"""Span tracer for the traced benchmark run.

Spans are recorded around the public functions of each buildiff module by
patching them from the outside; the package itself is never edited. A
``from .x import f`` in a caller copies the reference, so every patch also
replaces the same function object wherever another buildiff module, or a
module-level dict such as ``cli.CLOUD_LOADERS``, holds it. A name that no
longer exists is reported as absent instead of failing the run.

Spans live in memory until the run ends. A layer's self time is its span
minus the union of the intervals of its child spans.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from statistics import median

PACKAGE = "buildiff"
# (module, attribute, span name). "Class.method" patches the class.
SPANS = [
    ("tensor", "Tape.backward", "tensor.backward"),
    ("optim", "adam_step", "optim.adam"),
    ("denoiser", "denoise_graph", "denoiser.forward"),
    ("diffusion", "sample_base", "diffusion.sample"),
    ("diffusion", "sample_upsampled", "diffusion.sample"),
    ("pipeline", "run_training", "pipeline.run_training"),
    ("pipeline", "prepare_base_data", "pipeline.prepare"),
    ("pipeline", "prepare_upsampler_data", "pipeline.prepare"),
    ("pipeline", "regularization_loss", "pipeline.footprint"),
    ("geometry", "nearest_indices", "geometry.nn"),
    ("geometry", "farthest_point_sample", "geometry.fps"),
    ("geometry", "load_ply", "geometry.io"),
    ("geometry", "save_ply", "geometry.io"),
    ("geometry", "load_bpc", "geometry.io"),
    ("geometry", "save_bpc", "geometry.io"),
    ("geometry", "load_xyz", "geometry.io"),
    ("geometry", "save_xyz", "geometry.io"),
    ("metrics", "evaluate_pair", "metrics.pair"),
    ("metrics", "emd", "metrics.emd"),
    ("metrics", "chamfer", "metrics.chamfer"),
    ("metrics", "fscore", "metrics.fscore"),
    ("cli", "main", "cli.main"),
    ("conditioner", "train_autoencoder", "conditioner.train_ae"),
    ("conditioner", "encode", "conditioner.encode"),
    ("checkpoint", "save_params", "checkpoint.save"),
    ("checkpoint", "load_params", "checkpoint.load"),
    ("datagen", "build_dataset", "datagen.build"),
]
# Called once per recorded op: counted, not timed, to keep the overhead low.
COUNTERS = [("tensor", "Tape.record", "tensor.ops_recorded")]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _bind(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


class Tracer:
    """Patches buildiff's public functions with span-recording wrappers.

    Use as a context manager; leaving it restores every patched name.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._restore: list = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        # a worker thread's outermost span belongs to the main thread's
        # current span (eval evaluates pairs on a thread pool)
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack and stack is not self._main_stack
            else None)
        span = Span(name, time.perf_counter(), parent)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                if hook is not None:
                    args, kwargs = hook(tracer, span, fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------- patching

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = owner.__dict__.get(leaf) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        if owner_name:  # a method: callers look it up on the class
            setattr(owner, leaf, wrapper)
            self._restore.append((owner, leaf, original))
            return
        for m in self._modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._restore.append((m, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._restore.append((value, k, original))

    def __enter__(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._wrap(name, fn))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, name=name: self._counter(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()
        return False

    # --------------------------------------------------------------- output

    def to_json(self) -> dict:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return {
            "absent": self.absent,
            "counts": dict(self.counts),
            "spans": [[s.name, s.start, s.end,
                       index.get(id(s.parent)), s.attrs] for s in self.spans],
        }


# ------------------------------------------------------------------ hooks
# A hook runs inside the span before the wrapped call; it records
# attributes and may replace arguments (the sampler's model, the training
# log callback) with counting or timestamping wrappers.


def _hook_backward(tracer, span, fn, args, kwargs):
    span.attrs["entries"] = len(args[0].entries)
    return args, kwargs


def _hook_denoiser(tracer, span, fn, args, kwargs):
    xt = _bind(fn, args, kwargs).get("xt")
    span.attrs["rows"] = int(xt.shape[0]) if xt is not None else 0
    return args, kwargs


def _hook_sample(tracer, span, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    schedule, model = bound.get("schedule"), bound.get("model")
    span.attrs["steps"] = int(schedule.T) if schedule is not None else 0
    span.attrs["model_calls"] = 0
    if model is None:
        return args, kwargs

    def counted_model(*a, **k):
        span.attrs["model_calls"] += 1
        return model(*a, **k)
    bound["model"] = counted_model
    return (), bound


def _hook_run_training(tracer, span, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    span.attrs["stage"] = str(bound.get("stage"))
    span.attrs["logs"] = logs = []
    log_fn = bound.get("log_fn")
    if not bound:
        return args, kwargs

    def timed_log(*a, **k):
        logs.append(time.perf_counter())
        if log_fn is not None:
            return log_fn(*a, **k)
    bound["log_fn"] = timed_log
    return (), bound


def _hook_nn(tracer, span, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    a, b = bound.get("a"), bound.get("b")
    span.attrs["pairs"] = len(a) * len(b) if a is not None and b is not None else 0
    return args, kwargs


def _hook_emd(tracer, span, fn, args, kwargs):
    span.attrs["mode"] = _bind(fn, args, kwargs).get("mode", "exact")
    return args, kwargs


def _hook_cli(tracer, span, fn, args, kwargs):
    argv = _bind(fn, args, kwargs).get("argv") or []
    span.attrs["cmd"] = argv[0] if argv else ""
    return args, kwargs


_HOOKS = {
    "tensor.backward": _hook_backward,
    "denoiser.forward": _hook_denoiser,
    "diffusion.sample": _hook_sample,
    "pipeline.run_training": _hook_run_training,
    "geometry.nn": _hook_nn,
    "metrics.emd": _hook_emd,
    "cli.main": _hook_cli,
}


# ---------------------------------------------------------------- analysis


def _union_ms(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total * 1e3


def self_ms(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(id(s), ()) if c.end is not None]
        out[id(s)] = s.ms - _union_ms([k for k in kids if k[1] > k[0]])
    return out


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def uncovered_ms(spans: list[Span], start: float, end: float) -> float:
    """Wall time in [start, end] that no root span covers."""
    roots = [(max(s.start, start), min(s.end, end)) for s in spans
             if s.parent is None and s.end is not None]
    return (end - start) * 1e3 - _union_ms([r for r in roots if r[1] > r[0]])


# name -> unit, better; the order in which they are printed
LAYER_METRICS = {
    "tensor.ops_recorded": ("count", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.backward_entries": ("count", "lower"),
    "optim.adam_ms": ("ms", "lower"),
    "denoiser.forward_ms": ("ms", "lower"),
    "denoiser.calls": ("count", "lower"),
    "diffusion.model_calls_per_step": ("count", "lower"),
    "diffusion.self_ms": ("ms", "lower"),
    "pipeline.step_ms.base": ("ms", "lower"),
    "pipeline.step_ms.upsampler": ("ms", "lower"),
    "pipeline.footprint_ms": ("ms", "lower"),
    "pipeline.footprint_active_ratio": ("ratio", "lower"),
    "pipeline.prepare_ms": ("ms", "lower"),
    "geometry.nn_ms": ("ms", "lower"),
    "geometry.nn_ms.footprint": ("ms", "lower"),
    "geometry.nn_ms.metrics": ("ms", "lower"),
    "geometry.nn_pairs": ("count", "lower"),
    "geometry.fps_ms": ("ms", "lower"),
    "geometry.io_ms": ("ms", "lower"),
    "metrics.emd_ms": ("ms", "lower"),
    "metrics.emd_exact_ratio": ("ratio", "higher"),
    "metrics.chamfer_ms": ("ms", "lower"),
    "metrics.fscore_ms": ("ms", "lower"),
    "cli.eval_self_ms": ("ms", "lower"),
    "cli.sample_self_ms": ("ms", "lower"),
    "conditioner.ae_epoch_ms": ("ms", "lower"),
    "conditioner.encode_ms": ("ms", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "datagen.build_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.uncovered_ms": ("ms", "lower"),
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer totals of a traced phase, divided by the rounds it ran.

    datagen.build_ms, trace.overhead_ratio and trace.uncovered_ms are
    filled in by the caller, which owns the set-up and untraced phases.
    """
    spans = [s for s in tracer.spans if s.end is not None]
    own = self_ms(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name, pred=None):
        return sum(s.ms for s in by[name] if pred is None or pred(s))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name])

    out = {}
    out["tensor.ops_recorded"] = tracer.counts["tensor.ops_recorded"]
    out["tensor.backward_ms"] = total("tensor.backward")
    out["tensor.backward_entries"] = attr("tensor.backward", "entries")
    out["optim.adam_ms"] = total("optim.adam")
    out["denoiser.forward_ms"] = total("denoiser.forward")
    out["denoiser.calls"] = len(by["denoiser.forward"])
    steps = attr("diffusion.sample", "steps")
    out["diffusion.model_calls_per_step"] = (
        attr("diffusion.sample", "model_calls") / steps if steps else 0.0)
    out["diffusion.self_ms"] = sum(own[id(s)] for s in by["diffusion.sample"])

    # step time per stage: from the end of data preparation to the last
    # logged step, over the number of steps logged
    prepared = defaultdict(float)
    for s in by["pipeline.prepare"]:
        if s.parent is not None:
            prepared[id(s.parent)] = max(prepared[id(s.parent)], s.end)
    for stage in ("base", "upsampler"):
        ms, n = 0.0, 0
        for s in by["pipeline.run_training"]:
            logs = s.attrs.get("logs") or []
            if s.attrs.get("stage") == stage and logs:
                ms += (logs[-1] - (prepared.get(id(s)) or s.start)) * 1e3
                n += len(logs)
        out[f"pipeline.step_ms.{stage}"] = ms / n if n else 0.0

    out["pipeline.footprint_ms"] = total("pipeline.footprint")
    fp_nn = {id(s.parent) for s in by["geometry.nn"] if s.parent is not None}
    n_fp = len(by["pipeline.footprint"])
    out["pipeline.footprint_active_ratio"] = (
        sum(id(s) in fp_nn for s in by["pipeline.footprint"]) / n_fp if n_fp else 0.0)
    out["pipeline.prepare_ms"] = total("pipeline.prepare")

    def in_footprint(s):
        return _has_ancestor(s, "pipeline.footprint")
    out["geometry.nn_ms"] = total("geometry.nn")
    out["geometry.nn_ms.footprint"] = total("geometry.nn", in_footprint)
    out["geometry.nn_ms.metrics"] = total("geometry.nn", lambda s: not in_footprint(s))
    out["geometry.nn_pairs"] = attr("geometry.nn", "pairs")
    out["geometry.fps_ms"] = total("geometry.fps")
    out["geometry.io_ms"] = total("geometry.io")

    out["metrics.emd_ms"] = total("metrics.emd")
    n_emd = len(by["metrics.emd"])
    out["metrics.emd_exact_ratio"] = (
        sum(s.attrs.get("mode") == "exact" for s in by["metrics.emd"]) / n_emd
        if n_emd else 0.0)
    out["metrics.chamfer_ms"] = total("metrics.chamfer")
    out["metrics.fscore_ms"] = total("metrics.fscore")
    for cmd in ("eval", "sample"):
        out[f"cli.{cmd}_self_ms"] = sum(
            own[id(s)] for s in by["cli.main"] if s.attrs.get("cmd") == cmd)

    epochs = sum(len(s.attrs.get("logs") or []) for s in by["pipeline.run_training"]
                 if s.attrs.get("stage") == "autoencoder")
    out["conditioner.ae_epoch_ms"] = total("conditioner.train_ae") / epochs if epochs else 0.0
    out["conditioner.encode_ms"] = total("conditioner.encode")
    out["checkpoint.save_ms"] = total("checkpoint.save")
    out["checkpoint.load_ms"] = total("checkpoint.load")

    per_round = {k for k in out if not k.endswith(("_ratio", "_per_step"))
                 and not k.startswith(("pipeline.step_ms", "conditioner.ae_epoch"))}
    for k in per_round:
        out[k] = out[k] / rounds if rounds else 0.0
    return out


def rows_breakdown(tracer: Tracer) -> dict[str, dict]:
    """Denoiser forward time grouped by the number of input rows."""
    groups = defaultdict(list)
    for s in tracer.spans:
        if s.name == "denoiser.forward" and s.end is not None:
            groups[s.attrs.get("rows", 0)].append(s.ms)
    return {str(rows): {"calls": len(v), "total_ms": sum(v), "median_ms": median(v)}
            for rows, v in sorted(groups.items())}
