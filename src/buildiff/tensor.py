"""Minimal reverse-mode autodiff over dense float64 arrays.

Everything trainable in this project (denoiser, conditioner, losses) is
expressed through the op set below. Ops record only inside ``with Tape():``,
on a thread-local Tape; outside one they keep no graph, as sampling runs.
``Tape.backward(loss, wrt)`` walks the tape in reverse and returns the
gradient of each tensor in ``wrt``; no gradient is stored on a tensor.
No implicit broadcasting: shapes must match exactly. A bias row enters
only through ``linear``, the one affine op; no other op broadcasts.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

_tls = threading.local()


class ShapeError(ValueError):
    pass


class DiffTensor:
    """A value in the computation graph, stored row-major as float64."""

    __slots__ = ("shape", "data")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64, order="C")
        self.data = arr
        self.shape = arr.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"DiffTensor(shape={self.shape})"


def leaf(data) -> DiffTensor:
    return DiffTensor(data)


class _TapeEntry:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations; inputs always precede their consumers."""

    def __init__(self):
        self.entries: list[_TapeEntry] = []
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_tls, "tape", None)
        _tls.tape = self
        return self

    def __exit__(self, *exc):
        _tls.tape = self._prev
        return False

    def record(self, inputs: Sequence[DiffTensor], output: DiffTensor,
               backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.entries.append(_TapeEntry(list(inputs), output, backward_fn))

    def backward(self, loss: DiffTensor,
                 wrt: Sequence[DiffTensor]) -> list[np.ndarray]:
        """Gradient of loss with respect to each leaf in wrt (a tensor no
        op on this tape produced), in that order; zeros where the loss
        does not reach. Gradients are keyed by id(): the tape holds every
        tensor it names, so no id is reused while it runs."""
        if loss.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for entry in reversed(self.entries):
            gout = grads.pop(id(entry.output), None)
            if gout is None:
                continue
            gins = entry.backward_fn(gout)
            for t, g in zip(entry.inputs, gins):
                if g is None:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g
        return [grads[id(t)] if id(t) in grads else np.zeros_like(t.data)
                for t in wrt]


def _make(inputs, value, backward_fn) -> DiffTensor:
    out = DiffTensor(value)
    tape = getattr(_tls, "tape", None)
    if tape is not None:
        tape.record(inputs, out, backward_fn)
    return out


# ---------------------------------------------------------------- op kinds


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
    return _make([a, b], a.data + b.data, lambda g: (g, g))


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _make([a, b], ad * bd, lambda g: (g * bd, g * ad))


def scale(a: DiffTensor, c: float) -> DiffTensor:
    c = float(c)
    return _make([a], a.data * c, lambda g: (g * c,))


def linear(x: DiffTensor, w: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Affine map x@W + b of a (K, Cin) tensor, with b of shape (C,) or
    (1, C) added to every row; its gradient sums the rows of g."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape not in ((w.shape[1],), (1, w.shape[1]))):
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data

    def bwd(g):
        return (g @ wd.T, xd.T @ g, g.sum(axis=0).reshape(b.shape))

    return _make([x, w, b], out, bwd)


def concat_last_axis(parts: Sequence[DiffTensor]) -> DiffTensor:
    if not parts:
        raise ShapeError("concat_last_axis: no inputs")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last_axis: leading dims differ {p.shape} vs {parts[0].shape}")
    widths = [p.shape[-1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=-1))

    return _make(list(parts), np.concatenate([p.data for p in parts], axis=-1), bwd)


def leaky_relu(a: DiffTensor, slope: float = 0.01) -> DiffTensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0,1), got {slope}")
    # max(a, slope*a) equals a*coef, coef = 1 where a >= 0 else slope, bit
    # for bit; the backward builds coef with a cast rather than np.where,
    # which is several times slower
    ad = a.data
    out = ad * slope
    np.maximum(ad, out, out=out)

    def bwd(g):
        coef = np.maximum(ad >= 0, slope)
        coef *= g
        return (coef,)

    return _make([a], out, bwd)


def sigmoid(a: DiffTensor) -> DiffTensor:
    y = 1.0 / (1.0 + np.exp(-a.data))
    return _make([a], y, lambda g: (g * y * (1.0 - y),))


def reduce_max_over_points(a: DiffTensor) -> DiffTensor:
    """Max over axis 0 of a (K, C) tensor. Ties route gradient to the
    lowest index, so backward is deterministic."""
    if a.data.ndim != 2:
        raise ShapeError(f"reduce_max_over_points expects 2D, got {a.shape}")
    # np.argmax(a, axis=0) strides down the columns of a C-ordered array;
    # comparing against the column maxima gives the same first index faster.
    m = a.data.max(axis=0)
    idx = (a.data == m).argmax(axis=0)
    nan = np.isnan(m)
    if nan.any():  # a NaN is the max, as np.argmax has it
        idx[nan] = np.isnan(a.data[:, nan]).argmax(axis=0)
    cols = np.arange(a.shape[1])
    val = a.data[idx, cols]  # the picked element, so the sign of a zero matches

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[idx, cols] = g
        return (ga,)

    return _make([a], val, bwd)


def mse(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} vs {b.shape}")
    d = a.data - b.data
    n = d.size
    return _make([a, b], np.array(np.mean(d * d)),
                 lambda g: (g.item() * 2.0 / n * d, g.item() * -2.0 / n * d))


def gather_rows(a: DiffTensor, indices) -> DiffTensor:
    """Select rows of a 2D tensor. A negative index yields a zero row
    (used for implicit zero padding); gradient scatters to valid rows only."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows expects 2D, got {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    valid = idx >= 0
    safe = np.where(valid, idx, 0)
    out = a.data[safe]
    out[~valid] = 0.0

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, safe[valid], g[valid])
        return (ga,)

    return _make([a], out, bwd)


def reshape(a: DiffTensor, shape) -> DiffTensor:
    shape = tuple(shape)
    return _make([a], a.data.reshape(shape), lambda g: (g.reshape(a.shape),))


# ---------------------------------------------------------------- oracle


def finite_diff_grad(f: Callable[[list[DiffTensor]], float],
                     params: list[DiffTensor], step: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function, element by element.

    Test oracle only; f must be deterministic in the params.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f(params)
            flat[i] = orig - step
            fm = f(params)
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ValueError("finite_diff_grad: non-finite function value")
            gflat[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads
