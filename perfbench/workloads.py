"""The benchmark's workloads: set-up, one timed call per part, and the
checks on each call's output.

A workload runs its parts in rounds; a part is one call into a public
entry point (``pipeline.run_training`` or ``cli.main``). Only that call is
timed. Inputs come from ``datagen.build_dataset`` with
the workload seed; training and sampling seeds are fixed so that the work
done per call does not depend on the seed (the footprint loss, for
example, runs its NN search only for the t draws with lambda(t) > 0).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from buildiff import cli, datagen, geometry, pipeline

ROOFS = ("flat", "gable", "hip")
TRAIN_SEED = 0  # training RNG seed, fixed: see the module docstring
F1_TAU = 0.001  # squared-distance threshold documented in buildiff.metrics
EMD_APPROX_TOL = 0.02  # documented gap of the auction EMD to the optimum
JITTER = 0.005  # std of the noise added to eval predictions, in model units
BATCH = pipeline.TrainConfig.batch_size  # every stage trains at the default batch


@dataclass(frozen=True)
class Shapes:
    """Sizes each workload fixes. PAPER is what the benchmark runs; TINY
    is for the harness self-test."""
    n_points: int = 4096        # points per generated building
    toy_n_train: int = 16       # buildings train_toy trains on
    paper_n_train: int = 8      # buildings train_paper trains on
    ae_epochs: int = 1
    toy_base_epochs: int = 2
    toy_K: int = 256            # toy_config() shapes
    toy_d: int = 32
    toy_T: int = 100
    paper_base_epochs: int = 2
    paper_up_epochs: int = 1
    paper_K: int = 1024         # TrainConfig() shapes
    paper_N: int = 4096
    paper_d: int = 128
    paper_T: int = 1000
    paper_T_up: int = 500
    sample_n_train: int = 2
    sample_images: int = 4
    sample_chain: int = 10      # reverse-chain length of both stages
    gamma: float = 4.0
    eval_n: tuple = (1024, 4096)
    eval_pairs: tuple = (8, 3)  # distinct pairs per part, one per call, cycled
    eval_calls: tuple = (4, 1)  # calls of each part in one round


PAPER = Shapes()
TINY = Shapes(n_points=96, toy_n_train=2, paper_n_train=2, toy_base_epochs=1,
              toy_K=16, toy_d=8, toy_T=10, paper_base_epochs=1, paper_K=32, paper_N=64,
              paper_d=8, paper_T=10, paper_T_up=10, sample_n_train=1, sample_images=1,
              sample_chain=2, eval_n=(48, 96), eval_pairs=(2, 2), eval_calls=(2, 1))


@dataclass(frozen=True)
class Part:
    metric: str      # end-to-end name printed for this part
    unit: str
    item: str        # what one item of the part is


@dataclass
class Outcome:
    seconds: float   # wall time of the timed call
    items: int       # images, samples, clouds or pairs it processed
    failed: int      # operations whose output failed a check
    problems: list


def _quiet(fn, *args, **kwargs):
    """Call fn with stdout captured; returns (seconds, result)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return time.perf_counter() - t0, result


def _read_ply(path) -> np.ndarray:
    """Vertex rows of an ASCII PLY, parsed without buildiff's loader."""
    with open(path) as fh:
        header = 0
        for line in fh:
            header += 1
            if line.strip() == "end_header":
                break
    return np.loadtxt(path, skiprows=header, ndmin=2)


def _read_bpc(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    n = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    return np.frombuffer(raw[8:8 + 12 * n], dtype="<f4").reshape(n, 3).astype(np.float64)


def _unit_cube(p: np.ndarray) -> np.ndarray:
    lo, hi = p.min(axis=0), p.max(axis=0)
    return (p - (lo + hi) / 2.0) * (2.0 / float((hi - lo).max()))


class Workload:
    name = ""
    why = ""
    parts: tuple = ()
    calls: tuple = (1, 1)  # calls of each part in one round

    def __init__(self, root: Path, seed: int, shapes: Shapes = PAPER):
        self.root = Path(root)
        self.seed = seed
        self.shapes = shapes

    def setup(self) -> None:
        """Build every input from the seed, from scratch."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self._setup()

    def _setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute reference results for the checks, once, untimed."""

    def ops(self, part: int) -> int:
        """Operations one call of the part attempts: train steps, sample
        calls or eval pairs."""
        raise NotImplementedError

    def run(self, part: int, call: int) -> Outcome:
        """Make the part's call number `call`, counted from 0, timed, and
        check its output."""
        raise NotImplementedError

    def _dataset(self, name, n_train, n_test, n_points=None, seed=None):
        path = self.root / name
        datagen.build_dataset(path, n_train=n_train, n_test=n_test, roof_mix=ROOFS,
                              n_points=n_points or self.shapes.n_points,
                              seed=self.seed if seed is None else seed)
        return path


class _Training(Workload):
    """A training workload: each part is one ``run_training`` stage call,
    with its logged losses checked against the first round."""

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self._first_losses = {}

    def _train(self, part, cfg, stage, out, logs, items) -> Outcome:
        losses = []
        secs, _ = _quiet(pipeline.run_training, self.data, cfg, stage, out,
                         log_fn=lambda epoch, loss: losses.append(loss))
        problems = []
        if len(losses) != logs:
            problems.append(f"{stage}: {len(losses)} logged steps, expected {logs}")
        if not all(np.isfinite(losses)):
            problems.append(f"{stage}: non-finite L_theta")
        if losses != self._first_losses.setdefault(part, losses):
            problems.append(f"{stage}: loss sequence differs from round 0")
        return Outcome(secs, items, self.ops(part) if problems else 0, problems)

    def _fresh(self, name, ae_dir=None) -> Path:
        """An empty output directory, holding a copy of ae_dir's AE checkpoint."""
        out = self.root / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if ae_dir is not None:
            for f in ae_dir.glob("autoencoder.*"):
                shutil.copy(f, out / f.name)
        return out

class TrainToy(_Training):
    name = "train_toy"
    why = ("16 buildings: AE stage at d=128/32px, 1 epoch (part1, per image), then toy base "
           "stage K=256 d=32 T=100 batch 8, 2 epochs (part2, per sample); tape-bound")
    parts = (Part("train_ae.images_per_s", "1/s", "image"),
             Part("train_base_toy.samples_per_s", "1/s", "sample"))

    def _toy_cfg(self):
        s = self.shapes
        return dataclasses.replace(
            pipeline.toy_config(seed=TRAIN_SEED), K=s.toy_K, d=s.toy_d, T=s.toy_T,
            epochs_ae=1, epochs_base=s.toy_base_epochs)

    def _setup(self):
        self.data = self._dataset("data", self.shapes.toy_n_train, 1)
        # the toy base stage needs an AE of its own width d
        self.toy_ae = self.root / "toy_ae"
        _quiet(pipeline.run_training, self.data, self._toy_cfg(), "autoencoder",
               self.toy_ae)

    def ops(self, part):
        s = self.shapes
        if part == 0:  # the AE takes one Adam step per image
            return s.toy_n_train * s.ae_epochs
        return -(-s.toy_n_train // BATCH) * s.toy_base_epochs

    def run(self, part, call):
        s = self.shapes
        if part == 0:
            cfg = pipeline.TrainConfig(d=s.paper_d, epochs_ae=s.ae_epochs, seed=TRAIN_SEED)
            return self._train(part, cfg, "autoencoder", self._fresh("ae"),
                               s.ae_epochs, s.toy_n_train * s.ae_epochs)
        return self._train(part, self._toy_cfg(), "base", self._fresh("base", self.toy_ae),
                           self.ops(1), s.toy_n_train * s.toy_base_epochs)


class TrainPaper(_Training):
    name = "train_paper"
    why = ("8 buildings: paper base K=1024 d=128 T=1000 batch 8, 2 epochs (part1), then "
           "upsampler N=4096 T=500, 1 epoch (part2); BLAS, footprint NN and FPS bound")
    parts = (Part("train_base.samples_per_s", "1/s", "sample"),
             Part("train_upsampler.samples_per_s", "1/s", "sample"))

    def _cfg(self):
        s = self.shapes
        return pipeline.TrainConfig(
            K=s.paper_K, N=s.paper_N, d=s.paper_d, T=s.paper_T, T_upsampler=s.paper_T_up,
            epochs_ae=1, epochs_base=s.paper_base_epochs,
            epochs_upsampler=s.paper_up_epochs, seed=TRAIN_SEED)

    def _setup(self):
        self.data = self._dataset("data", self.shapes.paper_n_train, 1)
        self.ae = self.root / "ae"
        _quiet(pipeline.run_training, self.data, self._cfg(), "autoencoder", self.ae)

    def ops(self, part):
        s = self.shapes
        epochs = s.paper_base_epochs if part == 0 else s.paper_up_epochs
        return -(-s.paper_n_train // BATCH) * epochs

    def run(self, part, call):
        s = self.shapes
        if part == 0:
            return self._train(part, self._cfg(), "base", self._fresh("run", self.ae),
                               self.ops(0), s.paper_n_train * s.paper_base_epochs)
        # the upsampler needs this round's base checkpoint
        return self._train(part, self._cfg(), "upsampler", self.root / "run",
                           self.ops(1), s.paper_n_train * s.paper_up_epochs)


class Sample(Workload):
    name = "sample"
    why = ("buildiff sample at K=1024 N=4096 d=128 gamma=4, chains cut to 10+10 steps; "
           "part1=base-only call, part2=--high-res call for the same image and seed")
    parts = (Part("sample_base.cloud_s", "s", "cloud"),
             Part("sample_high.cloud_s", "s", "cloud"))

    def _setup(self):
        s = self.shapes
        self.data = self._dataset("data", s.sample_n_train, s.sample_images)
        cfg = pipeline.TrainConfig(
            K=s.paper_K, N=s.paper_N, d=s.paper_d, T=s.sample_chain,
            T_upsampler=s.sample_chain, epochs_ae=1, epochs_base=1,
            epochs_upsampler=1, seed=TRAIN_SEED)
        self.ckpt = self.root / "ckpt"
        for stage in pipeline.STAGES:
            _quiet(pipeline.run_training, self.data, cfg, stage, self.ckpt)
        manifest = datagen.DatasetManifest.load(self.data / "manifest.json")
        self.images = [self.data / e["silhouette"] for e in manifest.entries
                       if e["split"] == "test"]
        self.out = self.root / "out"
        self.out.mkdir()
        self._base_rows = {}

    def ops(self, part):
        return 1

    def run(self, part, call):
        s = self.shapes
        image = self.images[call % len(self.images)]
        seed = 100 + call
        out = self.out / f"{part}_{call}.ply"
        argv = ["sample", "--checkpoints", str(self.ckpt), "--image", str(image),
                "--out", str(out), "--seed", str(seed), "--gamma", str(s.gamma)]
        if part == 1:
            argv.append("--high-res")
        secs, code = _quiet(cli.main, argv)
        problems = []
        if code != 0:
            problems.append(f"sample exited {code}")
        else:
            rows = _read_ply(out)
            want = s.paper_K if part == 0 else s.paper_N
            if rows.shape != (want, 3) or not np.all(np.isfinite(rows)):
                problems.append(f"sample output has shape {rows.shape}, want ({want}, 3)")
            elif part == 0:
                self._base_rows[call] = rows
            elif call in self._base_rows and not np.array_equal(
                    rows[:s.paper_K], self._base_rows.pop(call)):
                problems.append("first K rows of --high-res differ from the base-only cloud")
        out.unlink(missing_ok=True)
        return Outcome(secs, 1, 1 if problems else 0, problems)


class Eval(Workload):
    name = "eval"
    why = ("buildiff eval, 1 thread, 1 pair per call: part1 cycles 8 pairs at n=1024, 4 per "
           "round; part2 cycles 3 pairs at n=4096, 1 per round; pred .ply = jittered resample of ref")
    parts = (Part("eval_1k.pairs_per_s", "1/s", "pair"),
             Part("eval_4k.pairs_per_s", "1/s", "pair"))

    @property
    def calls(self):
        # How fast the auction EMD converges depends on the building, so
        # each part cycles over several pairs and a run averages over them.
        # A pair at n=4096 takes seconds: a round makes one such call and
        # four at n=1024, so that a run holds several of each.
        return self.shapes.eval_calls

    def _setup(self):
        s = self.shapes
        self.dirs = [[], []]  # per part: a (pred, ref) directory pair per building
        for part, (n, pairs) in enumerate(zip(s.eval_n, s.eval_pairs)):
            data = self._dataset(f"data{part}", 1, pairs, n_points=n,
                                 seed=self.seed * 2 + part)
            rng = np.random.default_rng(self.seed * 2 + part)
            manifest = datagen.DatasetManifest.load(data / "manifest.json")
            tests = [e for e in manifest.entries if e["split"] == "test"]
            for k, e in enumerate(tests):
                pred, ref = self.root / f"pred{part}_{k}", self.root / f"ref{part}_{k}"
                pred.mkdir()
                ref.mkdir()
                shutil.copy(data / e["cloud"], ref / f"{e['id']}.bpc")
                spec = datagen.BuildingSpec(**e["spec"])
                cloud = datagen.sample_surface(datagen.generate_building(spec), n,
                                               seed=spec.seed + 1)
                jittered = cloud.points + rng.normal(0.0, JITTER, cloud.points.shape)
                geometry.save_ply(pred / f"{e['id']}.ply", geometry.PointCloud(jittered))
                self.dirs[part].append((pred, ref))

    def prepare_checks(self):
        """Brute-force CD x100, F1 and exact (Hungarian) EMD x100 of every
        pair, read back from the files the program will read."""
        self.oracle = [[], []]
        for part, sets in enumerate(self.dirs):
            for pred, ref in sets:
                oracle = {}
                for p in sorted(pred.iterdir()):
                    oracle[p.stem] = self._oracle(_read_ply(p), _read_bpc(ref / f"{p.stem}.bpc"))
                self.oracle[part].append(oracle)

    @staticmethod
    def _oracle(pred: np.ndarray, ref: np.ndarray) -> dict:
        a, b = _unit_cube(pred), _unit_cube(ref)
        d = cdist(a, b)
        d2 = d * d
        pa, pb = d2.min(axis=1), d2.min(axis=0)
        precision, recall = 100.0 * np.mean(pa <= F1_TAU), 100.0 * np.mean(pb <= F1_TAU)
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        rows, cols = linear_sum_assignment(d)
        return {"cd_scaled": 100.0 * (pa.mean() + pb.mean()), "f1": f1,
                "emd_scaled": 100.0 * float(d[rows, cols].mean()), "n": len(a)}

    def ops(self, part):
        return 1

    def run(self, part, call):
        k = call % self.shapes.eval_pairs[part]
        pred, ref = self.dirs[part][k]
        report = self.root / f"report{part}.jsonl"
        report.unlink(missing_ok=True)
        secs, code = _quiet(cli.main, ["eval", "--pred", str(pred), "--ref", str(ref),
                                       "--out", str(report)])
        pairs = self.ops(part)
        if code != 0:
            return Outcome(secs, pairs, pairs, [f"eval exited {code}"])
        got = {}
        for line in report.read_text().splitlines():
            row = json.loads(line)
            got[row["id"]] = row
        problems = []
        for pair_id, want in self.oracle[part][k].items():
            row = got.get(pair_id)
            if row is None:
                problems.append(f"{pair_id}: missing from report")
            elif not np.isclose(row["cd_scaled"], want["cd_scaled"], rtol=1e-9, atol=0):
                problems.append(f"{pair_id}: CD {row['cd_scaled']} != {want['cd_scaled']}")
            elif abs(row["f1"] - want["f1"]) > 100.0 / want["n"]:
                # one point flipping across tau moves F1 by at most 100/n
                problems.append(f"{pair_id}: F1 {row['f1']} != {want['f1']}")
            elif abs(row["emd_scaled"] - want["emd_scaled"]) > EMD_APPROX_TOL * want["emd_scaled"]:
                problems.append(f"{pair_id}: EMD {row['emd_scaled']} not within 2% "
                                f"of exact {want['emd_scaled']}")
        return Outcome(secs, pairs, len(problems), problems)


WORKLOADS = {w.name: w for w in (TrainToy, TrainPaper, Sample, Eval)}


# BUILDIFF_THREADS for eval. The pool's threads run the auction under the
# GIL while OpenBLAS runs threads of its own: on 2 cores, 2 threads made
# eval 2.5x slower than 1 and doubled its run-to-run spread.
EVAL_THREADS = 1
