#!/usr/bin/env python3
"""Run the whole buildiff CLI at a tiny size, for bitwise comparisons.

Generates 8 training and 2 test buildings (512 points, 16 px silhouettes)
with flat, gable and hip roofs in turn, so every roof type's triangles reach
the compared outputs. Trains the auto-encoder, base and upsampler stages for
3 epochs each at T=10, T_upsampler=8, K=64, N=256, d=16, batch 4, then
samples the first test silhouette with seed 9, once base-only and once with
--high-res and a trace every 2 steps. The high-res sample is exported to
.bpc and .xyz, and `eval` scores it against that test building's cloud
(pred/ and ref/ hold the pair under the building's id; report.jsonl is the
report). Everything is written under --out, so the outputs of two source
checkouts can be compared with `diff -r`. Takes a few seconds.

Usage:
    PYTHONPATH=src python3 scripts/tiny_cli_run.py --out /tmp/tiny
"""

import argparse
import shutil
from pathlib import Path

from buildiff import cli
from buildiff.datagen import DatasetManifest

SETTINGS = ["T=10", "T_upsampler=8", "K=64", "N=256", "d=16", "batch_size=4",
            "epochs_ae=3", "epochs_base=3", "epochs_upsampler=3"]


def run(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise SystemExit(f"buildiff {argv[0]} exited {code}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args()

    root = Path(args.out)
    data, ckpt = str(root / "data"), str(root / "ckpt")
    run("gen-data", "--out", data, "--n-train", "8", "--n-test", "2",
        "--n-points", "512", "--resolution", "16", "--roof-mix", "flat,gable,hip",
        "--seed", "0")
    sets = [arg for s in SETTINGS for arg in ("--set", s)]
    for cmd in ("train-ae", "train-base", "train-upsampler"):
        run(cmd, "--dataset", data, "--out", ckpt, *sets)
    manifest = DatasetManifest.load(root / "data" / "manifest.json")
    test = next(e for e in manifest.entries if e["split"] == "test")
    image = str(root / "data" / test["silhouette"])
    high_res = root / "sample_high_res.ply"
    run("sample", "--checkpoints", ckpt, "--image", image, "--seed", "9",
        "--out", str(root / "sample.ply"))
    run("sample", "--checkpoints", ckpt, "--image", image, "--seed", "9",
        "--high-res", "--trace-stride", "2", "--trace-dir", str(root / "trace"),
        "--out", str(high_res))
    for suffix in (".bpc", ".xyz"):
        run("export", "--input", str(high_res),
            "--out", str(high_res.with_suffix(suffix)))
    pred, ref = root / "pred", root / "ref"
    pred.mkdir()
    ref.mkdir()
    shutil.copy(high_res, pred / f"{test['id']}.ply")
    shutil.copy(root / "data" / test["cloud"], ref / f"{test['id']}.bpc")
    run("eval", "--pred", str(pred), "--ref", str(ref),
        "--out", str(root / "report.jsonl"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
