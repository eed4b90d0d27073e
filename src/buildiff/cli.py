"""Command-line entry point.

Exit codes: 0 ok, 1 internal error, 2 missing stage dependency,
3 unreadable input, 4 data mismatch, 5 non-finite numbers (a diverged
training step or a non-finite model output while sampling).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from . import tensor
from .conditioner import check_silhouette_size, encode, load_pgm
from .datagen import build_dataset
from .diffusion import sample_base, sample_upsampled
from .denoiser import make_model
from .geometry import (PointCloud, load_bpc, load_ply, load_xyz,
                       normalize_unit_cube, save_bpc, save_ply, save_xyz)
from .metrics import evaluate_pair, write_report_jsonl
from .pipeline import (StageDependencyError, TrainConfig, load_stage_params,
                       run_training, toy_config, trained_checkpoint)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DEPENDENCY = 2
EXIT_INPUT = 3
EXIT_MISMATCH = 4
EXIT_NONFINITE = 5

CLOUD_LOADERS = {".ply": load_ply, ".bpc": load_bpc, ".xyz": load_xyz}
CLOUD_SAVERS = {".ply": save_ply, ".bpc": save_bpc, ".xyz": save_xyz}


def _config_help() -> str:
    lines = ["config keys (key=value file, overridable with --set):"]
    for f in dataclasses.fields(TrainConfig):
        lines.append(f"  {f.name} (default {f.default})")
    return "\n".join(lines)


def _load_config(args) -> TrainConfig:
    """The preset, then --config, then --set, then --seed, in that order."""
    cfg = toy_config() if args.toy else TrainConfig()
    if args.config:
        cfg = cfg.with_file(args.config)
    cfg = cfg.with_lines(args.set or [], "--set")
    if args.seed is not None:
        cfg = cfg.with_lines([f"seed={args.seed}"], "--seed")
    return cfg


def _load_cloud(path: Path) -> PointCloud:
    loader = CLOUD_LOADERS.get(path.suffix)
    if loader is None:
        raise IOError(f"unsupported cloud format {path.suffix!r}")
    return loader(path)


def _out_path(arg: str) -> Path:
    """--out of sample, eval or export, checked before any input is read."""
    out = Path(arg)
    if not out.parent.is_dir():
        raise IOError(f"--out {out}: no directory {out.parent}")
    return out


def _cloud_saver(path: Path):
    saver = CLOUD_SAVERS.get(path.suffix)
    if saver is None:
        raise IOError(f"unsupported output format {path.suffix!r}")
    return saver


def _cmd_gen_data(args) -> int:
    build_dataset(args.out, n_train=args.n_train, n_test=args.n_test,
                  roof_mix=tuple(args.roof_mix.split(",")),
                  n_points=args.n_points, resolution=args.resolution,
                  seed=args.seed)
    print(f"dataset written to {args.out} "
          f"({args.n_train} train / {args.n_test} test)")
    return EXIT_OK


def _cmd_train(stage: str):
    def run(args) -> int:
        ckpt = run_training(args.dataset, _load_config(args), stage, args.out,
                            resume=args.resume)
        print(f"checkpoint written to {ckpt}")
        return EXIT_OK
    return run


def _check_sample_flags(args) -> None:
    """Raise ValueError naming the flag for a non-finite --gamma or a trace
    flag without its partner or below 1."""
    if not math.isfinite(args.gamma):
        raise ValueError(f"--gamma must be finite, got {args.gamma}")
    if args.trace_stride is not None and args.trace_stride < 1:
        raise ValueError(f"--trace-stride must be >= 1, got {args.trace_stride}")
    if (args.trace_stride is None) != (args.trace_dir is None):
        given, missing = (("--trace-stride", "--trace-dir")
                          if args.trace_dir is None
                          else ("--trace-dir", "--trace-stride"))
        raise ValueError(f"{given} needs {missing}")


def _cmd_sample(args) -> int:
    start = time.perf_counter()
    _check_sample_flags(args)
    out = _out_path(args.out)
    saver = _cloud_saver(out)
    ckpt_dir = Path(args.checkpoints)
    # a missing stage exits 2 before any input is read
    for stage in ["autoencoder", "base"] + (["upsampler"] if args.high_res else []):
        trained_checkpoint(ckpt_dir, stage)
    img = load_pgm(args.image)
    check_silhouette_size(img, f"{args.image}: silhouette")
    cfg = TrainConfig.load(ckpt_dir / "base.config")
    if args.high_res:
        up_cfg = TrainConfig.load(ckpt_dir / "upsampler.config")
        if up_cfg.K != cfg.K:
            print(f"error: upsampler.config has K={up_cfg.K} but base.config "
                  f"has K={cfg.K} in {ckpt_dir}", file=sys.stderr)
            return EXIT_MISMATCH
    ae_params = load_stage_params(ckpt_dir, "autoencoder", cfg.d, img.height)
    base_params = load_stage_params(ckpt_dir, "base", cfg.d)
    if args.high_res:
        up_params = load_stage_params(ckpt_dir, "upsampler", up_cfg.d)
    z_I = encode(ae_params, img)

    if args.trace_dir is not None:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)

    def chain(stage, run, *chain_args):
        """run(*chain_args), writing the states --trace-stride selects, with
        a non-finite model output named by the stage and its checkpoint."""
        def on_step(t, x):
            if t % args.trace_stride == 0 or t == 1:
                save_ply(Path(args.trace_dir) / f"trace_{stage}_{t - 1:05d}.ply",
                         PointCloud(x))
        try:
            return run(*chain_args,
                       on_step=None if args.trace_dir is None else on_step)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"{stage} stage, {ckpt_dir / f'{stage}.bdif'}: {exc}") from None

    cloud = chain("base", sample_base, make_model(base_params), z_I, cfg.K,
                  args.gamma, args.seed, cfg.schedule("base"))
    steps = cfg.T
    if args.high_res:
        cloud = chain("upsampler", sample_upsampled,
                      make_model(up_params, up_cfg.K), z_I, cloud, up_cfg.N,
                      args.gamma, args.seed + 1, up_cfg.schedule("upsampler"))
        steps += up_cfg.T_upsampler
    saver(out, cloud)
    print(f"seed={args.seed} gamma={args.gamma} steps={steps} -> {out} "
          f"in {time.perf_counter() - start:.2f} s")
    return EXIT_OK


def _cmd_eval(args) -> int:
    start = time.perf_counter()
    out = _out_path(args.out)
    pred_dir = Path(args.pred)
    ref_dir = Path(args.ref)

    def clouds_in(d: Path) -> dict[str, list[Path]]:
        """The cloud files in d by id, their stem."""
        by_id: dict[str, list[Path]] = {}
        for p in sorted(d.iterdir()):
            if p.suffix in CLOUD_LOADERS:
                by_id.setdefault(p.stem, []).append(p)
        return by_id

    def scorable_cloud(path: Path) -> PointCloud:
        """The cloud at path; one that cannot be normalised (empty, or all
        points identical) raises IOError naming path."""
        cloud = _load_cloud(path)
        try:
            normalize_unit_cube(cloud)
        except ValueError as exc:
            raise IOError(f"{path}: {exc}") from None
        return cloud

    preds = clouds_in(pred_dir)
    refs = clouds_in(ref_dir)
    for paths in [*preds.values(), *refs.values()]:
        if len(paths) > 1:
            print("error: one id, several clouds: "
                  + ", ".join(map(str, paths)), file=sys.stderr)
            return EXIT_MISMATCH
    missing = sorted(set(preds) ^ set(refs))
    if missing:
        print("error: unmatched ids: " + ", ".join(missing), file=sys.stderr)
        return EXIT_MISMATCH
    if not preds:
        print(f"error: no clouds to score in {pred_dir} or {ref_dir}", file=sys.stderr)
        return EXIT_MISMATCH
    rows = [(pair_id, evaluate_pair(scorable_cloud(preds[pair_id][0]),
                                    scorable_cloud(refs[pair_id][0]),
                                    seed=args.seed))
            for pair_id in sorted(preds)]
    summary = write_report_jsonl(out, rows)
    print(f"{'id':>12} {'CDx100':>10} {'EMDx100':>10} {'F1':>8}")
    for pair_id, rep in rows:
        print(f"{pair_id:>12} {rep.cd_scaled:>10.4f} {rep.emd_scaled:>10.4f} "
              f"{rep.f1:>8.3f}")
    print(f"{'mean':>12} {summary['cd_scaled']:>10.4f} "
          f"{summary['emd_scaled']:>10.4f} {summary['f1']:>8.3f} "
          f"in {time.perf_counter() - start:.2f} s")
    return EXIT_OK


def _cmd_export(args) -> int:
    src = Path(args.input)
    dst = _out_path(args.out)
    saver = _cloud_saver(dst)
    cloud = _load_cloud(src)
    saver(dst, cloud)
    print(f"{src} -> {dst} ({cloud.count} points)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buildiff",
        description="Image-conditional two-stage point cloud diffusion for buildings",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a procedural dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int, default=200)
    p.add_argument("--n-test", type=int, default=50)
    p.add_argument("--n-points", type=int, default=4096)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--roof-mix", default="flat,gable",
                   help="comma list drawn round-robin (flat,gable,hip)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen_data)

    for stage, name in [("autoencoder", "train-ae"), ("base", "train-base"),
                        ("upsampler", "train-upsampler")]:
        p = sub.add_parser(name, help=f"train the {stage} stage")
        p.add_argument("--dataset", required=True)
        p.add_argument("--out", required=True, help="checkpoint directory")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--toy", action="store_true", help="use the toy preset")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        p.add_argument("--seed", type=int)
        p.add_argument("--resume", action="store_true")
        p.set_defaults(fn=_cmd_train(stage))

    p = sub.add_parser("sample", help="sample a cloud conditioned on a silhouette")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--image", required=True, help="PGM silhouette")
    p.add_argument("--out", required=True, help="output cloud (.ply/.bpc/.xyz)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=4.0)
    p.add_argument("--high-res", action="store_true",
                   help="run the upsampler stage after the base stage")
    p.add_argument("--trace-stride", type=int, metavar="STRIDE",
                   help="write each chain's cloud every STRIDE steps and "
                        "at t=0 (needs --trace-dir)")
    p.add_argument("--trace-dir", metavar="DIR",
                   help="directory for the trace_<chain>_*.ply files")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("eval", help="evaluate prediction/reference pairs")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True, help="JSON-lines report path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("export", help="convert a cloud between formats")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tensor.keep_heap_warm()
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed: need seed >= 0, got {args.seed}")
        return args.fn(args)
    except StageDependencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
