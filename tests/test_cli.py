import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from buildiff import checkpoint, pipeline
from buildiff.checkpoint import load_params, save_params
from buildiff.cli import _load_config, build_parser, main
from buildiff.conditioner import SilhouetteImage, save_pgm
from buildiff.geometry import (BPC_MAGIC, PointCloud, load_bpc, load_ply,
                               save_bpc, save_ply, save_xyz)
from buildiff.metrics import PairReport, write_report_jsonl
from buildiff.pipeline import TrainConfig


def run(argv):
    return main(argv)


PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\n"
              "property float y\nproperty float z\nend_header\n")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


TINY_TRAIN = ["--set", "T=10", "--set", "T_upsampler=8", "--set", "K=16",
              "--set", "N=32", "--set", "d=8", "--set", "epochs_ae=1",
              "--set", "epochs_base=1", "--set", "epochs_upsampler=1",
              "--set", "batch_size=2", "--set", "checkpoint_interval=1"]


def edit_record(blob, record, edit):
    """blob with `record` dropped ("missing") or cut to half its rows
    ("misshapen"); returns the record's shape before the edit."""
    want = blob[record].shape
    if edit == "missing":
        del blob[record]
    else:
        blob[record] = blob[record][:want[0] // 2]
    return want


def joined_decoder_layer(blob):
    """blob in the layout written before the first decoder layer was split:
    one `dec.w1` record (and its Adam moments) in place of the blocks
    `dec.w1h`, `dec.w1c` and `dec.w1f`."""
    out = {}
    for name, value in blob.items():
        if name.endswith("dec.w1h"):
            out[name[:-1]] = np.concatenate([blob[name[:-1] + b] for b in "hcf"])
        elif not name.endswith(("dec.w1c", "dec.w1f")):
            out[name] = value
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    assert run(["gen-data", "--out", str(root), "--n-train", "4",
                "--n-test", "2", "--n-points", "96", "--resolution", "16",
                "--seed", "0"]) == 0
    return root


@pytest.fixture(scope="module")
def checkpoints(dataset, tmp_path_factory):
    ck = tmp_path_factory.mktemp("cli_ck")
    for cmd in ("train-ae", "train-base", "train-upsampler"):
        assert run([cmd, "--dataset", str(dataset), "--out", str(ck),
                    "--seed", "0"] + TINY_TRAIN) == 0
    return ck


@pytest.fixture(scope="module")
def base_at_n256(tmp_path_factory):
    """A 128-point dataset, with the autoencoder and the base stage trained
    at N=256 and T_upsampler=8; the upsampler is left to each test."""
    root = tmp_path_factory.mktemp("cli_n256")
    data, ck = root / "data", root / "ck"
    assert run(["gen-data", "--out", str(data), "--n-train", "4",
                "--n-test", "1", "--n-points", "128", "--resolution", "16",
                "--seed", "0"]) == 0
    for cmd in ("train-ae", "train-base"):
        assert run([cmd, "--dataset", str(data), "--out", str(ck), "--seed", "0"]
                   + TINY_TRAIN + ["--set", "N=256"]) == 0
    return data, ck


class TestGenData:
    def test_deterministic_trees(self, tmp_path):
        for d in ("x", "y"):
            assert run(["gen-data", "--out", str(tmp_path / d), "--n-train", "3",
                        "--n-test", "1", "--n-points", "64",
                        "--resolution", "16", "--seed", "5"]) == 0
        assert tree_bytes(tmp_path / "x") == tree_bytes(tmp_path / "y")

    def test_different_seed_differs(self, tmp_path):
        for d, s in (("x", "1"), ("y", "2")):
            run(["gen-data", "--out", str(tmp_path / d), "--n-train", "3",
                 "--n-test", "1", "--n-points", "64", "--resolution", "16",
                 "--seed", s])
        assert tree_bytes(tmp_path / "x") != tree_bytes(tmp_path / "y")

    @pytest.mark.parametrize("flag,value,message", [
        ("--roof-mix", "flat,tower", "roof_mix 'flat,tower': roof types are "
                                     "flat, gable, hip"),
        ("--roof-mix", "", "roof_mix '': roof types are flat, gable, hip"),
        ("--n-points", "0", "n_points must be >= 2, got 0"),
        ("--n-points", "1", "n_points must be >= 2, got 1"),
        ("--resolution", "4", "resolution must be >= 8, got 4"),
    ])
    def test_bad_argument_exits_3_before_writing(self, tmp_path, capsys,
                                                 flag, value, message):
        out = tmp_path / "ds"
        assert run(["gen-data", "--out", str(out), "--n-train", "2",
                    "--n-test", "1", "--n-points", "64", "--resolution", "16",
                    flag, value]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestTrainOrdering:
    def test_base_before_ae_exits_2(self, dataset, tmp_path):
        assert run(["train-base", "--dataset", str(dataset),
                    "--out", str(tmp_path / "ck")] + TINY_TRAIN) == 2

    def test_upsampler_before_base_exits_2(self, dataset, tmp_path):
        ck = tmp_path / "ck"
        assert run(["train-ae", "--dataset", str(dataset), "--out", str(ck),
                    "--seed", "0"] + TINY_TRAIN) == 0
        assert run(["train-upsampler", "--dataset", str(dataset),
                    "--out", str(ck)] + TINY_TRAIN) == 2

    @pytest.mark.parametrize("stage", ["base", "upsampler"])
    @pytest.mark.parametrize("edit", ["missing", "misshapen", "other-d"])
    def test_bad_autoencoder_exits_3_naming_it(self, dataset, checkpoints,
                                               tmp_path, capsys, stage, edit):
        """The diffusion stages check autoencoder.bdif's records against d
        and the silhouettes' side before they write anything."""
        ck = tmp_path / "ck"
        ck.mkdir()
        path = ck / "autoencoder.bdif"
        blob = load_params(checkpoints / "autoencoder.bdif")
        extra = []
        if edit == "other-d":  # a d=8 auto-encoder under a d=16 stage
            extra = ["--set", "d=16"]
            want = ["'enc.proj'", "(128, 8)", "d=16", "(128, 16)"]
        else:
            want = ["'enc.c2'", str(edit_record(blob, "enc.c2", edit))]
            if edit == "misshapen":
                want.append(str(blob["enc.c2"].shape))
        save_params(path, blob)
        if stage == "upsampler":
            shutil.copy(checkpoints / "base.bdif", ck)
        before = tree_bytes(ck)
        capsys.readouterr()
        assert run([f"train-{stage}", "--dataset", str(dataset), "--out",
                    str(ck), "--seed", "0"] + TINY_TRAIN + extra) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert all(w in err for w in want), err
        assert tree_bytes(ck) == before

    @pytest.mark.parametrize("stage", ["ae", "base"])
    @pytest.mark.parametrize("shape, want", [
        ((16, 24), "is 16x24; the auto-encoder takes square images"),
        ((12, 12), "is 12x12; the auto-encoder takes square images whose "
                   "side is a multiple of 8"),
        ((24, 24), "is 24x24, but {first} is 16x16; the auto-encoder takes "
                   "one side"),
    ], ids=["not-square", "side-not-multiple-of-8", "mixed-sides"])
    def test_bad_training_silhouette_exits_3_naming_it(
            self, dataset, tmp_path, capsys, stage, shape, want):
        """Every training silhouette is checked before any stage starts:
        the error names the manifest and the silhouette, and nothing is
        written."""
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        manifest = data / "manifest.json"
        train = [data / e["silhouette"] for e in
                 json.loads(manifest.read_text())["entries"] if e["split"] == "train"]
        save_pgm(train[-1], SilhouetteImage(np.zeros(shape)))
        capsys.readouterr()
        out = tmp_path / "ck"
        assert run([f"train-{stage}", "--dataset", str(data), "--out", str(out),
                    "--seed", "0"] + TINY_TRAIN) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: training silhouette "
                              f"{train[-1]} {want.format(first=train[0])}"), err
        assert not out.exists()

    def test_missing_dataset_exits_3(self, tmp_path):
        assert run(["train-ae", "--dataset", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "ck")] + TINY_TRAIN) == 3

    @pytest.mark.parametrize("edit,want", [
        (lambda m: m["entries"][1].pop("split"), "entry 1 needs a string 'split'"),
        (lambda m: m["entries"][2].update(cloud=7), "entry 2 needs a string 'cloud'"),
        (lambda m: m["entries"].__setitem__(0, "b00000"), "entry 0 needs a string 'id'"),
        (lambda m: m.pop("entries"), 'needs an "entries" list'),
        (None, "not valid JSON"),
        (b"\xff", "not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["no-split", "cloud-not-string", "entry-not-object", "no-entries",
            "invalid-json", "not-utf-8"])
    def test_bad_manifest_exits_3_naming_it(self, dataset, tmp_path, capsys,
                                            edit, want):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "manifest.json"
        if edit is None:
            path.write_text(path.read_text()[:-2])
        elif isinstance(edit, bytes):
            path.write_bytes(edit + path.read_bytes())
        else:
            manifest = json.loads(path.read_text())
            edit(manifest)
            path.write_text(json.dumps(manifest))
        assert run(["train-ae", "--dataset", str(data),
                    "--out", str(tmp_path / "ck")] + TINY_TRAIN) == 3
        err = capsys.readouterr().err
        assert str(path) in err and want in err and "Traceback" not in err


    def test_locked_directory_exits_3_naming_the_lock(self, dataset, tmp_path,
                                                     capsys):
        ck = tmp_path / "ck"
        ck.mkdir()
        lock = ck / ".lock"
        lock.write_text(f"{os.getpid()}\n")
        assert run(["train-ae", "--dataset", str(dataset), "--out", str(ck)]
                   + TINY_TRAIN) == 3
        err = capsys.readouterr().err
        assert err == (f"error: {lock}: checkpoint directory is locked by pid "
                       f"{os.getpid()}, which is still running\n")
        assert lock.read_text() == f"{os.getpid()}\n"
        assert list(ck.iterdir()) == [lock]


class TestResume:
    def test_resume_after_interrupted_save_is_bitwise(self, dataset, tmp_path,
                                                      capsys, monkeypatch):
        """A save that raises part-way through the epoch-2 checkpoint leaves
        the epoch-1 base.bdif byte for byte and no temp file; --resume then
        ends with the checkpoint (opt.rng included) and the log of a
        straight run."""
        def train_base(ck, *extra):
            return run(["train-base", "--dataset", str(dataset), "--out", str(ck),
                        "--seed", "0"] + TINY_TRAIN
                       + ["--set", "epochs_base=3", *extra])

        for ck in (tmp_path / "a", tmp_path / "b"):
            assert run(["train-ae", "--dataset", str(dataset), "--out", str(ck),
                        "--seed", "0"] + TINY_TRAIN) == 0
        assert train_base(tmp_path / "a") == 0

        ck = tmp_path / "b"
        saves, epoch_1 = 0, []

        class CutShort:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("no space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def failing_open(path, mode):
            nonlocal saves
            fh = open(path, mode)
            if Path(path).name == "base.bdif.tmp":
                saves += 1
                if saves == 2:
                    epoch_1.append((ck / "base.bdif").read_bytes())
                    return CutShort(fh)
            return fh

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        capsys.readouterr()
        assert train_base(ck) == 3
        assert "no space left on device" in capsys.readouterr().err
        monkeypatch.undo()
        assert (ck / "base.bdif").read_bytes() == epoch_1[0]
        assert load_params(ck / "base.bdif")["opt.epoch"] == 1.0
        assert not list(ck.glob("*.tmp")) and not (ck / ".lock").exists()

        assert train_base(ck, "--resume") == 0
        straight = load_params(tmp_path / "a" / "base.bdif")
        resumed = load_params(ck / "base.bdif")
        assert list(resumed) == list(straight) and "opt.rng" in resumed
        for name, value in straight.items():
            assert resumed[name].tobytes() == value.tobytes(), name
        assert ((ck / "base.log.jsonl").read_bytes()
                == (tmp_path / "a" / "base.log.jsonl").read_bytes())

    def test_train_ae_resume_is_bitwise(self, dataset, tmp_path):
        """train-ae stopped after its first epoch's checkpoint and resumed
        leaves the files of a straight run."""
        two = ["--set", "epochs_ae=2"]
        for d, extra in (("a", two), ("b", []), ("b", two + ["--resume"])):
            assert run(["train-ae", "--dataset", str(dataset), "--out",
                        str(tmp_path / d), "--seed", "0"] + TINY_TRAIN + extra) == 0
        assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "a")
        assert len((tmp_path / "a" / "autoencoder.log.jsonl").read_text().splitlines()) == 2

    def test_model_only_autoencoder_trains_base_but_does_not_resume(
            self, dataset, checkpoints, tmp_path, capsys):
        """An auto-encoder checkpoint written before the stage kept its
        training state holds model records only: the diffusion stages
        still read it, and --resume exits 3 naming the first missing
        record."""
        ck = tmp_path / "ck"
        ck.mkdir()
        path = ck / "autoencoder.bdif"
        blob = load_params(checkpoints / "autoencoder.bdif")
        save_params(path, {k: v for k, v in blob.items() if not k.startswith("opt.")})
        shutil.copy(checkpoints / "autoencoder.config", ck)
        assert run(["train-base", "--dataset", str(dataset), "--out", str(ck),
                    "--seed", "0"] + TINY_TRAIN) == 0
        assert (ck / "base.bdif").read_bytes() == (checkpoints / "base.bdif").read_bytes()
        capsys.readouterr()
        assert run(["train-ae", "--dataset", str(dataset), "--out", str(ck),
                    "--seed", "0", "--resume"] + TINY_TRAIN) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "no record 'opt.m.enc.c1'" in err

    def test_diverged_step_exits_5_in_one_line(self, dataset, tmp_path, capsys,
                                               monkeypatch):
        def diverged(*args):
            raise FloatingPointError("non-finite training loss")
        monkeypatch.setattr(pipeline, "train_autoencoder", diverged)
        capsys.readouterr()
        assert run(["train-ae", "--dataset", str(dataset), "--out",
                    str(tmp_path / "ck"), "--seed", "0"] + TINY_TRAIN) == 5
        assert capsys.readouterr().err == (
            "error: autoencoder stage, epoch 0, step 0: non-finite training "
            "loss; checkpoint: none\n")
        assert not (tmp_path / "ck" / ".lock").exists()

    @pytest.mark.parametrize("word", [0.5, -1.0], ids=["fraction", "negative"])
    def test_bad_rng_record_exits_3_naming_it(self, dataset, checkpoints,
                                              tmp_path, capsys, word):
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        path = ck / "base.bdif"
        blob = load_params(path)
        blob["opt.rng"][2] = word
        save_params(path, blob)
        capsys.readouterr()
        assert run(["train-base", "--dataset", str(dataset), "--out", str(ck),
                    "--seed", "0"] + TINY_TRAIN
                   + ["--set", "epochs_base=2", "--resume"]) == 3
        err = capsys.readouterr().err
        assert err == (f"error: {path}: record 'opt.rng' holds {word}, not a "
                       f"32-bit word of a PCG64 state; cannot resume\n")

    @pytest.mark.parametrize("edit", ["missing", "misshapen", "joined-decoder-layer",
                                      "no-rng-record"])
    def test_bad_record_exits_3_naming_it(self, dataset, checkpoints, tmp_path,
                                          capsys, edit):
        """--resume checks the model and the "opt." records of the training
        checkpoint before it trains; a checkpoint from before the first
        decoder layer was split names the first missing block, and one
        from before the RNG state moved into it names 'opt.rng'."""
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        path = ck / "base.bdif"
        blob = load_params(path)
        if edit == "joined-decoder-layer":
            blob = joined_decoder_layer(blob)
            want = ["no record 'dec.w1h'"]
        elif edit == "no-rng-record":
            del blob["opt.rng"]
            want = ["no record 'opt.rng'", "(10,)"]
        else:
            shape = edit_record(blob, "opt.m.dec.w2", edit)
            want = ["'opt.m.dec.w2'", str(shape)]
            if edit == "misshapen":
                want.append(str(blob["opt.m.dec.w2"].shape))
        save_params(path, blob)
        before = path.read_bytes()
        capsys.readouterr()
        assert run(["train-base", "--dataset", str(dataset), "--out", str(ck),
                    "--seed", "0"] + TINY_TRAIN
                   + ["--set", "epochs_base=2", "--resume"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert all(w in err for w in want), err
        assert path.read_bytes() == before


class TestConfig:
    @pytest.mark.parametrize("via", ["--set", "--config"])
    @pytest.mark.parametrize("bad", [
        "checkpoint_interval=0", "K=4096", "d=7", "batch_size=0", "sigma_mode=big",
        "K=abc", "seed=-1", "lr=nan", "lr=inf", "lr=-1", "lr=0", "drop_prob=1.5",
        "drop_prob=-0.1", "rho=nan", "rho=-1", "epochs_ae=-3", "epochs_base=-1",
        "epochs_upsampler=-2", "T=100000000000", "T_upsampler=100000000000",
        "beta_1=1e-300", "beta_1=5e-17", "d=1026", "d=1000000000", "N=65537",
        "N=1000000000", "K=1000000000"])
    def test_bad_value_exits_3_before_writing(self, dataset, tmp_path, capsys,
                                              via, bad):
        out = tmp_path / "ck"
        if via == "--set":
            source, extra = "--set", ["--set", "epochs_ae=1", "--set", bad]
        else:
            source = str(tmp_path / "bad.cfg")
            Path(source).write_text(f"epochs_ae=1\n{bad}\n")
            extra = ["--config", source]
        assert run(["train-ae", "--dataset", str(dataset),
                    "--out", str(out)] + extra) == 3
        assert list(out.glob("*")) == []
        err = capsys.readouterr().err
        key = bad.partition("=")[0]
        assert err.startswith(f"error: {source}: ")
        assert re.search(rf"\b{key}\b", err)

    @pytest.mark.parametrize("which", ["--config", "base.config"])
    def test_non_utf8_config_exits_3_naming_it(self, dataset, checkpoints,
                                               tmp_path, capsys, which):
        if which == "--config":
            path = tmp_path / "bad.cfg"
            argv = ["train-ae", "--dataset", str(dataset),
                    "--out", str(tmp_path / "ck"), "--config", str(path)]
        else:
            ck = tmp_path / "ck"
            shutil.copytree(checkpoints, ck)
            path = ck / "base.config"
            img = next((dataset / "silhouettes").glob("*.pgm"))
            argv = ["sample", "--checkpoints", str(ck), "--image", str(img),
                    "--out", str(tmp_path / "o.ply")]
        path.write_bytes(b"T=10\n\xffK=4\n")
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text: 'utf-8' codec "
                              f"can't decode byte 0xff")
        assert not (tmp_path / "o.ply").exists()

    def test_parse_order(self, tmp_path):
        """The preset, then --config, then --set, then --seed."""
        f = tmp_path / "f.cfg"
        f.write_text("T=7\nseed=3\n")

        def load(*extra):
            return _load_config(build_parser().parse_args(
                ["train-ae", "--dataset", "d", "--out", "o", "--toy",
                 "--config", str(f), *extra]))

        cfg = load()
        assert (cfg.K, cfg.sigma_mode, cfg.T, cfg.seed) == (256, "posterior", 7, 3)
        cfg = load("--set", "T=9", "--set", "seed=4", "--seed", "5")
        assert (cfg.K, cfg.T, cfg.seed) == (256, 9, 5)

    def test_negative_seed_exits_3_naming_it(self, dataset, tmp_path, capsys):
        assert run(["train-ae", "--dataset", str(dataset), "--out",
                    str(tmp_path / "ck"), "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "error: --seed: need seed >= 0, got -1\n"
        assert not (tmp_path / "ck").exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--out", "{tmp}/ds"],
        # a missing stage would exit 2, so nothing is read before the check
        ["sample", "--checkpoints", "{tmp}/ck", "--image", "{tmp}/i.pgm",
         "--out", "{tmp}/o.ply"],
        ["eval", "--pred", "{tmp}/pred", "--ref", "{tmp}/ref", "--out",
         "{tmp}/r.jsonl"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_3_before_reading_or_writing(self, tmp_path,
                                                             capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--seed", "-1"]
        assert run(argv) == 3
        assert capsys.readouterr().err == "error: --seed: need seed >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []


class TestSample:
    def test_missing_checkpoints_exits_2(self, dataset, tmp_path):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        assert run(["sample", "--checkpoints", str(tmp_path / "none"),
                    "--image", str(img), "--out", str(tmp_path / "o.ply")]) == 2

    def test_bad_image_exits_3(self, checkpoints, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not a pgm")
        assert run(["sample", "--checkpoints", str(checkpoints),
                    "--image", str(bad), "--out", str(tmp_path / "o.ply")]) == 3

    @pytest.mark.parametrize("blob", [
        b"P5\n\n255\n" + bytes(4), b"P5\n2 2\n255\n" + bytes(3),
        b"P5\n2 2\n0\n" + bytes(4), b"P5\n2 2\n256\n" + bytes(8),
        b"P5\n2 2\n7\n\x00\x07\x08\x00",
        b"P5\n12 12\n255\n" + bytes(144), b"P5\n24 16\n255\n" + bytes(384),
    ], ids=["empty-dimensions", "short-payload", "maxval-0", "maxval-256",
            "pixel-above-maxval", "side-not-multiple-of-8", "not-square"])
    def test_malformed_pgm_exits_3_naming_it(self, checkpoints, tmp_path,
                                             capsys, blob):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(blob)
        assert run(["sample", "--checkpoints", str(checkpoints),
                    "--image", str(bad), "--out", str(tmp_path / "o.ply")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err
        assert not (tmp_path / "o.ply").exists()

    def test_truncated_checkpoint_exits_3(self, dataset, checkpoints, tmp_path,
                                          capsys):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        blob = (ck / "base.bdif").read_bytes()
        for cut in (10, len(blob) - 5):
            (ck / "base.bdif").write_bytes(blob[:cut])
            assert run(["sample", "--checkpoints", str(ck), "--image", str(img),
                        "--out", str(tmp_path / "o.ply")]) == 3
            err = capsys.readouterr().err
            assert str(ck / "base.bdif") in err and f"byte offset {cut}" in err

    def test_nan_autoencoder_exits_3(self, dataset, checkpoints, tmp_path,
                                     capsys):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        ae = load_params(ck / "autoencoder.bdif")
        ae["enc.projb"][0] = np.nan
        save_params(ck / "autoencoder.bdif", ae)
        assert run(["sample", "--checkpoints", str(ck), "--image", str(img),
                    "--out", str(tmp_path / "o.ply")]) == 3
        assert "embedding contains non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "o.ply").exists()

    @pytest.mark.parametrize("stage,record", [("autoencoder", "enc.proj"),
                                              ("base", "dec.w2"),
                                              ("upsampler", "dec.w1f")])
    @pytest.mark.parametrize("edit", ["missing", "misshapen"])
    def test_bad_record_exits_3_naming_it(self, dataset, checkpoints, tmp_path,
                                          capsys, stage, record, edit):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        path = ck / f"{stage}.bdif"
        blob = load_params(path)
        want = [repr(record), str(edit_record(blob, record, edit))]
        if edit == "misshapen":
            want.append(str(blob[record].shape))
        save_params(path, blob)
        out = tmp_path / "o.ply"
        capsys.readouterr()
        assert run(["sample", "--checkpoints", str(ck), "--image", str(img),
                    "--out", str(out), "--high-res"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert all(w in err for w in want), err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["base", "upsampler"])
    def test_joined_decoder_layer_exits_3(self, dataset, checkpoints, tmp_path,
                                          capsys, stage):
        """A checkpoint written before the first decoder layer was split
        into dec.w1h, dec.w1c and dec.w1f is rejected, not converted."""
        img = next((dataset / "silhouettes").glob("*.pgm"))
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        path = ck / f"{stage}.bdif"
        save_params(path, joined_decoder_layer(load_params(path)))
        capsys.readouterr()
        assert run(["sample", "--checkpoints", str(ck), "--image", str(img),
                    "--out", str(tmp_path / "o.ply"), "--high-res"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: no record 'dec.w1h'")

    def test_image_of_another_size_exits_3(self, checkpoints, tmp_path, capsys):
        """The auto-encoder's records are checked against the image's size:
        a 24x24 silhouette for a 16x16 model names enc.proj and the size."""
        img = tmp_path / "big.pgm"
        save_pgm(img, SilhouetteImage(np.zeros((24, 24))))
        capsys.readouterr()
        assert run(["sample", "--checkpoints", str(checkpoints), "--image",
                    str(img), "--out", str(tmp_path / "o.ply")]) == 3
        err = capsys.readouterr().err
        assert "'enc.proj' has shape (128, 8)" in err and "24x24" in err

    def test_nan_base_weight_exits_5(self, dataset, checkpoints, tmp_path,
                                     capsys):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        base = load_params(ck / "base.bdif")
        base["dec.out_b"][0] = np.nan
        save_params(ck / "base.bdif", base)
        capsys.readouterr()
        assert run(["sample", "--checkpoints", str(ck), "--image", str(img),
                    "--out", str(tmp_path / "o.ply")]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: base stage, {ck / 'base.bdif'}: non-finite ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o.ply").exists()

    def test_nan_upsampler_weight_exits_5_naming_it(self, dataset, checkpoints,
                                                    tmp_path, capsys):
        """With --high-res, a non-finite model output names the stage whose
        checkpoint gave it."""
        img = next((dataset / "silhouettes").glob("*.pgm"))
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        up = load_params(ck / "upsampler.bdif")
        up["dec.w2"][0, 0] = np.nan
        save_params(ck / "upsampler.bdif", up)
        capsys.readouterr()
        assert run(["sample", "--checkpoints", str(ck), "--image", str(img),
                    "--out", str(tmp_path / "o.ply"), "--high-res"]) == 5
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: upsampler stage, {ck / 'upsampler.bdif'}: non-finite ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o.ply").exists()

    def test_checkpoint_without_rng_record_samples(self, dataset, checkpoints,
                                                   tmp_path):
        """Training checkpoints written before the RNG state moved into them
        have no opt.rng; sample reads only the model records."""
        img = next((dataset / "silhouettes").glob("*.pgm"))
        ck = tmp_path / "ck"
        shutil.copytree(checkpoints, ck)
        for stage in ("base", "upsampler"):
            blob = load_params(ck / f"{stage}.bdif")
            del blob["opt.rng"]
            save_params(ck / f"{stage}.bdif", blob)
        outs = []
        for d in (checkpoints, ck):
            out = tmp_path / f"{d.name}.ply"
            assert run(["sample", "--checkpoints", str(d), "--image", str(img),
                        "--out", str(out), "--seed", "4", "--high-res"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_deterministic_given_seed(self, dataset, checkpoints, tmp_path):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        outs = []
        for name in ("a.ply", "b.ply"):
            out = tmp_path / name
            assert run(["sample", "--checkpoints", str(checkpoints),
                        "--image", str(img), "--out", str(out),
                        "--seed", "7", "--gamma", "2.0"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_high_res_first_k_rows(self, dataset, checkpoints, tmp_path):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        low = tmp_path / "low.bpc"
        high = tmp_path / "high.bpc"
        assert run(["sample", "--checkpoints", str(checkpoints),
                    "--image", str(img), "--out", str(low), "--seed", "3"]) == 0
        assert run(["sample", "--checkpoints", str(checkpoints),
                    "--image", str(img), "--out", str(high), "--seed", "3",
                    "--high-res"]) == 0
        lo = load_bpc(low)
        hi = load_bpc(high)
        assert lo.count == 16 and hi.count == 32
        np.testing.assert_array_equal(hi.points[:16], lo.points)

    @staticmethod
    def _with_upsampler(base_at_n256, tmp_path, overrides):
        data, base_ck = base_at_n256
        ck = tmp_path / "ck"
        shutil.copytree(base_ck, ck)
        assert run(["train-upsampler", "--dataset", str(data), "--out", str(ck),
                    "--seed", "0"] + TINY_TRAIN + overrides) == 0
        return ck, next((data / "silhouettes").glob("*.pgm"))

    def test_high_res_reads_upsampler_config(self, base_at_n256, tmp_path,
                                             capsys):
        """N and T_upsampler come from upsampler.config, not base.config."""
        ck, img = self._with_upsampler(
            base_at_n256, tmp_path, ["--set", "N=128", "--set", "T_upsampler=6"])
        out = tmp_path / "o.bpc"
        capsys.readouterr()
        assert run(["sample", "--checkpoints", str(ck), "--image", str(img),
                    "--out", str(out), "--seed", "2", "--high-res"]) == 0
        assert load_bpc(out).count == 128
        (line,) = capsys.readouterr().out.splitlines()
        assert " steps=16 " in line  # T=10 base + 6 upsampler
        # the last words are the command's wall time
        assert re.fullmatch(rf"seed=2 gamma=4.0 steps=16 -> {re.escape(str(out))}"
                            r" in \d+\.\d\d s", line)

    def test_high_res_k_mismatch_exits_4(self, base_at_n256, tmp_path, capsys):
        ck, img = self._with_upsampler(base_at_n256, tmp_path, ["--set", "K=8"])
        out = tmp_path / "o.bpc"
        capsys.readouterr()
        assert run(["sample", "--checkpoints", str(ck), "--image", str(img),
                    "--out", str(out), "--high-res"]) == 4
        err = capsys.readouterr().err
        assert "K=8" in err and "K=16" in err
        assert not out.exists()

    def test_trace_export(self, dataset, checkpoints, tmp_path):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        tdir = tmp_path / "trace"
        assert run(["sample", "--checkpoints", str(checkpoints),
                    "--image", str(img), "--out", str(tmp_path / "o.ply"),
                    "--trace-stride", "5", "--trace-dir", str(tdir)]) == 0
        assert len(list(tdir.glob("trace_*.ply"))) >= 2

    def test_high_res_traces_both_chains(self, dataset, checkpoints, tmp_path):
        """--high-res writes each chain's states under its own name, after
        every stride-th step t and after the last one, labelled t - 1; the
        t = 0 files are the base-only cloud and the --out cloud."""
        img = next((dataset / "silhouettes").glob("*.pgm"))
        tdir, out, low = tmp_path / "trace", tmp_path / "o.ply", tmp_path / "low.ply"
        assert run(["sample", "--checkpoints", str(checkpoints), "--image", str(img),
                    "--out", str(out), "--seed", "5", "--high-res",
                    "--trace-stride", "2", "--trace-dir", str(tdir)]) == 0
        assert run(["sample", "--checkpoints", str(checkpoints), "--image", str(img),
                    "--out", str(low), "--seed", "5"]) == 0
        # T=10 base steps and T_upsampler=8 upsampler steps
        assert sorted(p.name for p in tdir.iterdir()) == sorted(
            [f"trace_base_{t:05d}.ply" for t in (9, 7, 5, 3, 1, 0)]
            + [f"trace_upsampler_{t:05d}.ply" for t in (7, 5, 3, 1, 0)])
        assert (tdir / "trace_upsampler_00000.ply").read_bytes() == out.read_bytes()
        assert (tdir / "trace_base_00000.ply").read_bytes() == low.read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (["--gamma", "nan"], "--gamma must be finite, got nan"),
        (["--gamma", "inf"], "--gamma must be finite, got inf"),
        (["--gamma=-inf"], "--gamma must be finite, got -inf"),
        (["--trace-stride", "5"], "--trace-stride needs --trace-dir"),
        (["--trace-dir", "tr"], "--trace-dir needs --trace-stride"),
        (["--trace-stride", "-3", "--trace-dir", "tr"],
         "--trace-stride must be >= 1, got -3"),
        (["--trace-stride", "0", "--trace-dir", "tr"],
         "--trace-stride must be >= 1, got 0"),
    ])
    def test_bad_flag_exits_3_before_reading_checkpoints(self, dataset, tmp_path,
                                                         capsys, flags, message):
        """A bad flag is named before any file is read: here the checkpoint
        directory does not exist, which would exit 2."""
        img = next((dataset / "silhouettes").glob("*.pgm"))
        flags = [str(tmp_path / f) if f == "tr" else f for f in flags]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--checkpoints", str(tmp_path / "none"),
                        "--image", str(img), "--out", str(tmp_path / "o.ply"),
                        "--high-res"] + flags) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == []

    def test_unsupported_out_format_exits_3(self, dataset, checkpoints,
                                            tmp_path, capsys):
        img = next((dataset / "silhouettes").glob("*.pgm"))
        out = tmp_path / "o.txt"
        capsys.readouterr()
        assert run(["sample", "--checkpoints", str(checkpoints),
                    "--image", str(img), "--out", str(out)]) == 3
        assert "unsupported output format '.txt'" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def make_dirs(self, tmp_path, ids_pred, ids_ref):
        pred = tmp_path / "pred"
        ref = tmp_path / "ref"
        pred.mkdir()
        ref.mkdir()
        rng = np.random.default_rng(0)
        for i in ids_pred:
            save_bpc(pred / f"{i}.bpc", PointCloud(rng.uniform(-1, 1, (24, 3))))
        for i in ids_ref:
            save_bpc(ref / f"{i}.bpc", PointCloud(rng.uniform(-1, 1, (24, 3))))
        return pred, ref

    def test_report_and_summary(self, tmp_path, capsys):
        pred, ref = self.make_dirs(tmp_path, ["a", "b"], ["a", "b"])
        out = tmp_path / "r.jsonl"
        assert run(["eval", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["a", "b", "__summary__"]
        assert rows[-1]["n_pairs"] == 2
        # the summary line ends with the command's wall time
        *_, mean = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r" +mean( +\S+){3} in \d+\.\d\d s", mean)

    def test_no_pairs_exit_4_naming_both_directories(self, tmp_path, capsys):
        """Two directories without clouds score nothing, not a perfect 0.0."""
        pred, ref = self.make_dirs(tmp_path, [], [])
        (pred / "notes.txt").write_text("not a cloud\n")
        out = tmp_path / "r.jsonl"
        assert run(["eval", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert str(pred) in err and str(ref) in err
        assert not out.exists()

    def test_unmatched_ids_exit_4(self, tmp_path, capsys):
        pred, ref = self.make_dirs(tmp_path, ["a", "b"], ["a", "c"])
        assert run(["eval", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(tmp_path / "r.jsonl")]) == 4
        err = capsys.readouterr().err
        assert "b" in err and "c" in err

    def test_serial_runs_byte_identical_in_id_order(self, tmp_path):
        ids = list("fbdaec")
        pred, ref = self.make_dirs(tmp_path, ids, ids)
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            assert run(["eval", "--pred", str(pred), "--ref", str(ref),
                        "--out", str(out), "--seed", "0"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = [json.loads(l) for l in outs[0].decode().splitlines()]
        assert [r["id"] for r in rows] == sorted(ids) + ["__summary__"]

    @pytest.mark.parametrize("side", ["pred", "ref"])
    @pytest.mark.parametrize("text,want", [
        ("", "empty cloud"),
        ("1 2 3\n1 2 3\n", "degenerate cloud: all points identical"),
    ], ids=["empty", "one-point"])
    def test_unscorable_cloud_exits_3_naming_it(self, tmp_path, capsys, side,
                                                text, want):
        """An empty .xyz loads without numpy's no-data warning; eval names
        the file of a cloud it cannot normalise."""
        pred, ref = self.make_dirs(tmp_path, ["a"], ["a"])
        bad = {"pred": pred, "ref": ref}[side] / "a.xyz"
        (bad.parent / "a.bpc").unlink()
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["eval", "--pred", str(pred), "--ref", str(ref),
                        "--out", str(tmp_path / "r.jsonl")]) == 3
        assert f"{bad}: {want}" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("side", ["pred", "ref"])
    def test_two_clouds_one_id_exit_4_naming_both(self, tmp_path, capsys, side):
        """a.bpc and a.xyz in one directory give one id two clouds; eval
        names both files instead of scoring whichever sorts last."""
        pred, ref = self.make_dirs(tmp_path, ["a"], ["a"])
        d = {"pred": pred, "ref": ref}[side]
        (d / "a.xyz").write_text("0 0 0\n1 1 1\n")
        assert run(["eval", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(tmp_path / "r.jsonl")]) == 4
        err = capsys.readouterr().err
        assert str(d / "a.bpc") in err and str(d / "a.xyz") in err
        assert not (tmp_path / "r.jsonl").exists()


class TestOutputs:
    @pytest.mark.parametrize("cmd", ["sample", "eval", "export"])
    def test_out_in_missing_directory_exits_3_before_reading(self, tmp_path,
                                                            capsys, cmd):
        """The inputs do not exist either: their error would be another
        exit code or message, so the --out check comes first."""
        out = tmp_path / "no" / "o.ply"
        argv = {"sample": ["--checkpoints", str(tmp_path / "ck"),
                           "--image", str(tmp_path / "i.pgm")],
                "eval": ["--pred", str(tmp_path / "p"), "--ref", str(tmp_path / "r")],
                "export": ["--input", str(tmp_path / "c.ply")]}[cmd]
        assert run([cmd, *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"error: --out {out}: no directory "
                                           f"{out.parent}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [
        lambda path: save_ply(path, PointCloud(np.eye(3))),
        lambda path: save_bpc(path, PointCloud(np.eye(3))),
        lambda path: save_xyz(path, PointCloud(np.eye(3))),
        lambda path: write_report_jsonl(
            path, [("a", PairReport(1.0, 2.0, 0.5, 3, 3))]),
    ], ids=["ply", "bpc", "xyz", "report"])
    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch,
                                               write):
        """A writer that raises after its first write leaves the file it
        was replacing byte for byte, and no .tmp file."""
        path = tmp_path / "out"
        path.write_bytes(b"previous\n")

        class FailAfterWrite:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data)
                raise OSError("no space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(checkpoint, "open",
                            lambda p, mode: FailAfterWrite(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space left"):
            write(path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestExport:
    def test_ply_to_bpc_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.uniform(-1, 1, (10, 3)))
        src = tmp_path / "c.ply"
        save_ply(src, cloud)
        dst = tmp_path / "c.bpc"
        assert run(["export", "--input", str(src), "--out", str(dst)]) == 0
        back = tmp_path / "c2.ply"
        assert run(["export", "--input", str(dst), "--out", str(back)]) == 0
        re = load_ply(back)
        assert np.abs(re.points - cloud.points).max() < 1e-6  # f32 quantization

    def test_unreadable_input_exits_3(self, tmp_path):
        assert run(["export", "--input", str(tmp_path / "missing.ply"),
                    "--out", str(tmp_path / "o.bpc")]) == 3

    @pytest.mark.parametrize("raw,want", [
        (BPC_MAGIC + b"\x05\x00", "header needs 8 bytes, the file has 6"),
        (BPC_MAGIC + struct.pack("<I", 3) + bytes(30),
         "count 3 needs 36 payload bytes, the file has 30"),
    ], ids=["short-header", "short-payload"])
    def test_malformed_bpc_exits_3(self, tmp_path, capsys, raw, want):
        src = tmp_path / "bad.bpc"
        src.write_bytes(raw)
        assert run(["export", "--input", str(src),
                    "--out", str(tmp_path / "o.ply")]) == 3
        err = capsys.readouterr().err
        assert str(src) in err and want in err
        assert not (tmp_path / "o.ply").exists()

    @pytest.mark.parametrize("name,text,want", [
        ("short.ply", PLY_HEADER.format(n=5) + "1 2 3\n",
         "PLY header promises 5 vertex rows, the file has 1"),
        ("word.ply", PLY_HEADER.format(n=1) + "1 two 3\n", "could not convert"),
        ("count.ply", PLY_HEADER.format(n="x") + "1 2 3\n", "bad vertex count"),
        ("two-columns.xyz", "1 2\n3 4\n5 6\n", "rows have 2 values, need 3"),
    ], ids=["ply-short", "ply-non-numeric", "ply-bad-count", "xyz-two-columns"])
    def test_malformed_text_cloud_exits_3(self, tmp_path, capsys, name, text,
                                          want):
        src = tmp_path / name
        src.write_text(text)
        assert run(["export", "--input", str(src),
                    "--out", str(tmp_path / "o.bpc")]) == 3
        err = capsys.readouterr().err
        assert str(src) in err and want in err
        assert not (tmp_path / "o.bpc").exists()

    @pytest.mark.parametrize("name,raw", [
        ("nan.ply", (PLY_HEADER.format(n=2) + "1 2 3\nnan 0 1\n").encode()),
        ("inf.xyz", b"1 2 3\n4 -inf 6\n"),
        ("inf.bpc", BPC_MAGIC + struct.pack("<I", 2)
         + np.array([1, 2, 3, 4, np.inf, 6], dtype="<f4").tobytes()),
    ], ids=["ply-nan", "xyz-inf", "bpc-inf"])
    def test_non_finite_cloud_exits_3_naming_it(self, tmp_path, capsys, name,
                                                raw):
        src = tmp_path / name
        src.write_bytes(raw)
        assert run(["export", "--input", str(src),
                    "--out", str(tmp_path / "o.ply")]) == 3
        err = capsys.readouterr().err
        assert f"{src}: points contain non-finite coordinates" in err
        assert not (tmp_path / "o.ply").exists()

    @pytest.mark.parametrize("raw,want", [
        (b"ply\n\xff\n" + PLY_HEADER.format(n=1)[4:].encode() + b"1 2 3\n",
         "can't decode byte 0xff"),
        (PLY_HEADER.format(n=1).encode() + b"1 2 \xff3\n",
         "can't decode byte 0xff"),
        (PLY_HEADER.format(n=-1).encode(), "bad vertex count"),
        (PLY_HEADER.format(n=10 ** 30).encode(), "bad vertex count"),
    ], ids=["non-utf8-header", "non-utf8-row", "negative-count", "huge-count"])
    def test_undecodable_ply_exits_3_naming_it(self, tmp_path, capsys, raw,
                                               want):
        src = tmp_path / "bad.ply"
        src.write_bytes(raw)
        assert run(["export", "--input", str(src),
                    "--out", str(tmp_path / "o.bpc")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: ") and want in err
        assert not (tmp_path / "o.bpc").exists()

    def test_unsupported_format_exits_3(self, tmp_path):
        src = tmp_path / "c.ply"
        save_ply(src, PointCloud(np.zeros((1, 3)) + 0.5))
        assert run(["export", "--input", str(src),
                    "--out", str(tmp_path / "o.obj")]) == 3


class TestHelp:
    def test_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for f in dataclasses.fields(TrainConfig):
            assert f.name in out

    def test_import_leaves_scipy_out(self):
        """A fresh interpreter imports the CLI without scipy, which only
        nearest-neighbour search and EMD import, when they first run."""
        src = str(Path(pipeline.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, buildiff.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestTrainDeterminism:
    def test_train_ae_byte_identical(self, dataset, tmp_path):
        blobs = []
        for d in ("u", "v"):
            ck = tmp_path / d
            assert run(["train-ae", "--dataset", str(dataset), "--out", str(ck),
                        "--seed", "0"] + TINY_TRAIN) == 0
            blobs.append((ck / "autoencoder.bdif").read_bytes())
        assert blobs[0] == blobs[1]
