#!/usr/bin/env python3
"""End-to-end toy experiment on one CPU core (~6 minutes).

Generates the two-class procedural dataset, trains the silhouette
auto-encoder and the base diffusion stage with the toy preset, then samples
one cloud per held-out silhouette and reports how often the sampled cloud's
roof class matches the conditioning image, at a couple of guidance scales.

Usage:
    python3 scripts/run_toy_pipeline.py --workdir /tmp/toy [--seed 0]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from buildiff.conditioner import encode, load_pgm
from buildiff.datagen import DatasetManifest, build_dataset, roof_oracle
from buildiff.denoiser import make_model
from buildiff.diffusion import sample_base
from buildiff.geometry import normalize_unit_cube, save_ply
from buildiff.pipeline import load_stage_params, run_training, toy_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gammas", default="0,2,4",
                    help="comma list of guidance scales to evaluate")
    ap.add_argument("--keep-samples", action="store_true",
                    help="write every sampled cloud as PLY under workdir/samples")
    args = ap.parse_args()

    root = Path(args.workdir)
    cfg = toy_config(seed=args.seed)
    t0 = time.time()

    print("== generating dataset (200 train / 50 test) ==")
    build_dataset(root / "data", n_train=200, n_test=50, n_points=cfg.N,
                  seed=args.seed)

    print("== training auto-encoder ==")
    run_training(root / "data", cfg, "autoencoder", root / "ckpt")
    print(f"   done at {time.time() - t0:.0f}s")

    print("== training base diffusion ==")
    run_training(root / "data", cfg, "base", root / "ckpt")
    print(f"   done at {time.time() - t0:.0f}s")

    manifest = DatasetManifest.load(root / "data/manifest.json")
    tests = [e for e in manifest.entries if e["split"] == "test"]
    images = [load_pgm(root / "data" / e["silhouette"]) for e in tests]
    ae = load_stage_params(root / "ckpt", "autoencoder", cfg.d, images[0].height)
    model = make_model(load_stage_params(root / "ckpt", "base", cfg.d))
    embeddings = [encode(ae, img) for img in images]
    schedule = cfg.schedule("base")

    print("== sampling held-out conditions ==")
    print(f"{'gamma':>6} {'match':>7} {'flat/gable predicted':>22}")
    for gamma in [float(g) for g in args.gammas.split(",")]:
        preds = []
        for i, (entry, z) in enumerate(zip(tests, embeddings)):
            cloud = sample_base(model, z, cfg.K, gamma,
                                seed=3000 + i, schedule=schedule)
            norm = normalize_unit_cube(cloud)
            preds.append(roof_oracle(norm))
            if args.keep_samples:
                sdir = root / "samples" / f"gamma{gamma:g}"
                sdir.mkdir(parents=True, exist_ok=True)
                save_ply(sdir / f"{entry['id']}.ply", cloud)
        truth = [e["spec"]["roof_type"] for e in tests]
        match = np.mean([p == t for p, t in zip(preds, truth)])
        counts = f"{preds.count('flat')}/{preds.count('gable')}"
        print(f"{gamma:>6g} {match * 100:>6.1f}% {counts:>22}")

    print(f"total {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
