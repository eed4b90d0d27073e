"""buildiff benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; buildiff is imported from ./src.
One process generates the inputs from --seed, sets up (several times, to
time set-up), then runs rounds of the workload's two parts for --seconds,
checking every output. The first call warms up and is not timed. Every
timed call is bracketed by runs of a reference kernel (hostspeed.py), and
the JSON times are scaled to the kernel's reference speed, so that the
shared host's changes of speed cancel. BLAS runs on one thread.
Human-readable lines name each metric with its unit, wall times too; the
last line is one JSON object: correct, attempted, failed and metrics
(end-to-end with --trace 0, per-layer with --trace 1).

The traced run spends half of --seconds untraced and half traced, so the
tracing overhead is measured in the same process. Full details (samples,
environment, spans) go to .perfbench_work/reports/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

# One BLAS thread, set before numpy loads: the reference kernel and every
# buildiff call then run on one core, so the host's speed moves both alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (after the thread settings: it loads numpy)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 7
SETUP_MIN_SECONDS = 2.0  # repeat cheap set-ups until they add up to this
KERNEL_SHARE = 0.03  # of a timed call's wall time, spent on the kernel after it
WORKLOAD_NAMES = ("train_toy", "train_paper", "sample", "eval")


def import_workloads():
    """Import buildiff from ROOT/src, then the benchmark modules."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import tracing
    import workloads
    return workloads, tracing


@dataclass
class Stats:
    samples: list  # per part: wall seconds per item of each successful timed call
    scaled: list   # the same, scaled to the reference speed
    rounds: list = field(default_factory=list)  # scaled seconds of each clean timed round
    n_rounds: int = 0  # rounds run
    attempted: int = 0
    failed: int = 0


class Bracket:
    """Times calls between runs of the reference kernel; each call's wall
    time comes with its factor to the reference speed. After a call the
    kernel runs once, or for KERNEL_SHARE of the call's wall time, and the
    median of those runs stands for the host's speed at that moment."""

    def __init__(self, reference):
        self.reference = reference
        self.kernel_s = []  # the median of each gap's kernel runs
        self._gap(0.0)

    def _gap(self, wall: float) -> None:
        runs = [self.reference.seconds()]
        while sum(runs) < KERNEL_SHARE * wall:
            runs.append(self.reference.seconds())
        self.kernel_s.append(median(runs))

    def __call__(self, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            self._gap(wall)
        return wall, self.reference.scale(*self.kernel_s[-2:]), result


def measure(wl, seconds: float, bracket: Bracket) -> Stats:
    """Run rounds of the workload's parts until `seconds` have passed since
    the start, and at least two rounds; after the deadline the round under
    way stops before its next call. A round makes wl.calls[part] calls of
    each part in turn. The first call warms up: it is checked and counted,
    but not timed. A raised exception or a failed check fails the call's
    operations; the run goes on."""
    stats = Stats(samples=[[] for _ in wl.parts], scaled=[[] for _ in wl.parts])
    calls = [0] * len(wl.parts)
    start = time.perf_counter()
    rnd = 0
    while rnd < 2 or time.perf_counter() - start < seconds:
        round_s, clean = 0.0, True
        for part in range(len(wl.parts)):
            for _ in range(wl.calls[part]):
                if rnd >= 2 and time.perf_counter() - start >= seconds:
                    clean = False  # an incomplete round has no round time
                    break
                call = calls[part]
                calls[part] += 1
                stats.attempted += wl.ops(part)
                try:
                    _, factor, out = bracket(lambda: wl.run(part, call))
                except Exception:
                    traceback.print_exc()
                    stats.failed += wl.ops(part)
                    clean = False
                    continue
                stats.failed += out.failed
                for p in out.problems:
                    print(f"check failed: {wl.name} part{part + 1} call {call}: {p}",
                          file=sys.stderr)
                if out.failed:
                    clean = False
                elif call > 0 or part > 0:
                    stats.samples[part].append(out.seconds / out.items)
                    stats.scaled[part].append(out.seconds * factor / out.items)
                round_s += out.seconds * factor
        if clean and rnd > 0:
            stats.rounds.append(round_s)
        rnd += 1
        stats.n_rounds = rnd
    return stats


def timed_setup(wl, bracket: Bracket) -> tuple[list[float], list[float]]:
    """Set up several times: (wall seconds, scaled seconds) of each."""
    walls, scaled = [], []
    while (len(walls) < SETUP_MIN_REPEATS
           or (sum(walls) < SETUP_MIN_SECONDS and len(walls) < SETUP_MAX_REPEATS)):
        wall, factor, _ = bracket(wl.setup)
        walls.append(wall)
        scaled.append(wall * factor)
    return walls, scaled


def tail(values: list[float]):
    """Highest percentile with at least ten samples above it, as
    (percentile, value), or None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    env = {k: os.environ.get(k, "unset") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BUILDIFF_THREADS")}
    return {"nproc": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "blas": blas, **env, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _line(name, value, unit, note=""):
    print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def end_to_end(wl, stats: Stats, setups: tuple[list[float], list[float]],
               kernel_s: list[float]) -> dict:
    """Print every end-to-end metric by name and return the JSON metrics:
    the part and set-up times at the reference speed."""
    metrics = {}
    for i, (part, secs, scaled) in enumerate(
            zip(wl.parts, stats.samples, stats.scaled), start=1):
        med = median(secs) if secs else 0.0
        per_s = part.unit == "1/s"
        value = (1.0 / med if per_s else med) if med else 0.0
        t = tail(secs)
        note = f"wall time; median of {len(secs)} calls"
        if t:
            note += f"; p{t[0]} (>=10 calls slower): {1.0 / t[1] if per_s else t[1]:.6g}"
        else:
            note += "; no percentile has 10 calls beyond it"
        _line(part.metric, value, part.unit, note)
        ref_ms = median(scaled) * 1e3 if scaled else 0.0
        name = f"part{i}.item_ms_at_ref"
        metrics[name] = {"value": ref_ms, "unit": "ms"}
        _line(name, ref_ms, "ms", f"per {part.item}, at the reference speed")
    wall, scaled = setups
    _line("setup_s", median(scaled), "s",
          f"at the reference speed; median of {len(scaled)} set-ups; "
          f"wall median {median(wall):.6g} s")
    metrics["setup_s"] = {"value": median(scaled), "unit": "s"}
    _line("host.kernel_ms", median(kernel_s) * 1e3, "ms",
          f"median of {len(kernel_s)} reference-kernel runs; the reference "
          f"speed is {hostspeed.REF_S * 1e3:.4g} ms")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _line("peak_rss_mb", rss, "MB")
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    ratio = stats.failed / stats.attempted if stats.attempted else 1.0
    _line("ops_failed", ratio, "ratio", f"{stats.failed} of {stats.attempted} operations")
    return metrics


def traced_run(wl, seconds, bracket, setup_tracer, n_setups, tracing, report):
    """Half of `seconds` untraced, then half traced; prints and returns
    the per-layer metrics."""
    plain = measure(wl, seconds / 2, bracket)
    with tracing.Tracer() as tracer:
        t0 = time.perf_counter()
        stats = measure(wl, seconds / 2, bracket)
        t1 = time.perf_counter()
    stats.attempted += plain.attempted
    stats.failed += plain.failed
    layer = tracing.layer_metrics(tracer, stats.n_rounds)
    layer["datagen.build_ms"] = sum(
        s.ms for s in setup_tracer.spans if s.name == "datagen.build") / n_setups
    base = median(plain.rounds) if plain.rounds else 0.0
    traced = median(stats.rounds) if stats.rounds else 0.0
    layer["trace.overhead_ms"] = (traced - base) * 1e3
    layer["trace.overhead_ratio"] = (traced - base) / base if base else 0.0
    layer["trace.uncovered_ms"] = tracing.uncovered_ms(tracer.spans, t0, t1) / stats.n_rounds
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        _line(name, layer[name], unit)
        metrics[name] = {"value": float(layer[name]), "unit": unit}
    print(f"# tracing overhead: {layer['trace.overhead_ms']:.1f} ms per round "
          f"({100 * layer['trace.overhead_ratio']:.1f}%, {len(plain.rounds)} untraced vs "
          f"{len(stats.rounds)} traced rounds); wall time no span covers: "
          f"{layer['trace.uncovered_ms']:.1f} ms per round")
    if tracer.absent:
        print("# absent (not traced): " + ", ".join(tracer.absent))
    report["denoiser_by_rows"] = tracing.rows_breakdown(tracer)
    report["trace"] = tracer.to_json()
    return stats, metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  shapes=None) -> dict:
    workloads, tracing = import_workloads()
    wl_cls = workloads.WORKLOADS[workload]
    os.environ["BUILDIFF_THREADS"] = str(workloads.EVAL_THREADS)
    env = environment()
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    scratch = WORK / f"{workload}-{os.getpid()}"
    wl = wl_cls(scratch, seed, shapes or workloads.PAPER)
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": env}
    bracket = Bracket(hostspeed.Reference())
    try:
        if not trace:
            setups = timed_setup(wl, bracket)
            wl.prepare_checks()
            stats = measure(wl, seconds, bracket)
            metrics = end_to_end(wl, stats, setups, bracket.kernel_s)
        else:
            with tracing.Tracer() as setup_tracer:
                setups = timed_setup(wl, bracket)
            wl.prepare_checks()
            stats, metrics = traced_run(wl, seconds, bracket, setup_tracer,
                                        len(setups[0]), tracing, report)
        report.update(setup_s=setups[0], setup_s_at_ref=setups[1],
                      samples=stats.samples, samples_at_ref=stats.scaled,
                      rounds_at_ref=stats.rounds, kernel_s=bracket.kernel_s,
                      metrics=metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report))
    return {"correct": stats.failed == 0, "attempted": stats.attempted,
            "failed": stats.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "buildiff" / "__init__.py").is_file():
        print(f"error: no buildiff sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
