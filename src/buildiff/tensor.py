"""Minimal reverse-mode autodiff over plain float64 numpy arrays.

Everything trainable in this project (denoiser, conditioner, losses) is
expressed through the op set below. Each op takes and returns C-ordered
float64 ``np.ndarray``s; there is no tensor type. Ops record only inside
``with Tape():``, on a thread-local Tape; outside one they keep no graph, as
sampling runs. ``Tape.backward(loss, wrt)`` walks the tape in reverse and
returns the gradient of each array in ``wrt``, matched by ``id()``: a view
of a parameter is another array and gets no gradient, so parameters enter
a graph only through ops (``linear``, ``reshape``), never through numpy
indexing. No implicit broadcasting: shapes must match exactly,
except that the bias of ``linear`` and ``dense``, a (C,) or (1, C) row,
is added to every row of their (K, C) product; no other op broadcasts.
A tape is walked once, and the walk frees each entry as it passes it.

The module also holds ``keep_heap_warm``, the one allocator setting for
the arrays these ops make, which every entry point calls, and
``bias_leaky_relu``, dense's bias add and activation, which records
nothing, for the decoder's guided branches.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Callable, Sequence

import numpy as np

_tls = threading.local()
LEAKY_SLOPE = 0.01  # the negative slope of dense's leaky ReLU
BLOCK_ELEMENTS = 1 << 15  # bias_leaky_relu's block: 256 KiB of float64


class ShapeError(ValueError):
    pass


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
        self._walked = False
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_tls, "tape", None)
        _tls.tape = self
        return self

    def __exit__(self, *exc):
        _tls.tape = self._prev
        return False

    def record(self, inputs: Sequence[np.ndarray], output: np.ndarray,
               backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.entries.append(_TapeEntry(list(inputs), output, backward_fn))

    def backward(self, loss: np.ndarray, wrt: Sequence[np.ndarray],
                 sums: dict[int, np.ndarray] | None = None) -> list[np.ndarray]:
        """Gradient of loss with respect to each array in wrt (one that no
        op on this tape produced), in that order; zeros where the loss
        does not reach.

        The walk pops each entry before it runs that entry's backward, so
        the arrays only that entry held are freed as soon as their
        gradients exist, and it empties the tape: a tape is walked once,
        and a second walk raises RuntimeError. Gradients are keyed by
        id(). That stays sound while arrays are freed: every id the walk
        looks up is that of loss, of an array of wrt or of an array an op
        recorded, and all of those were alive together at the end of the
        forward pass, so no two share an id. An id the walk frees can only
        be reused by an array made during the walk, a gradient, and the
        walk never looks up those.

        `sums`, if given, maps the id() of arrays of wrt to their partial
        gradients from walks over earlier tapes, so those arrays must stay
        alive between the walks. This walk adds to the sums as one walk
        over all the tapes, the last recorded first, would, and stores the
        new sums back. An array the loss does not reach keeps its sum, or
        stays absent, and gets that sum, or zeros, in the returned list."""
        if self._walked:
            raise RuntimeError("this tape was already walked backward")
        if loss.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        self._walked = True
        grads: dict[int, np.ndarray] = dict(sums or ())
        grads[id(loss)] = np.ones_like(loss)
        entries = self.entries
        while entries:
            entry = entries.pop()
            gout = grads.pop(id(entry.output), None)
            if gout is None:
                continue
            for t, g in zip(entry.inputs, entry.backward_fn(gout)):
                if g is None:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g
        if sums is not None:
            sums.update((id(t), grads[id(t)]) for t in wrt if id(t) in grads)
        return [grads[id(t)] if id(t) in grads else np.zeros_like(t)
                for t in wrt]


def recording() -> bool:
    """Whether ops record, on a Tape entered in this thread."""
    return getattr(_tls, "tape", None) is not None


def _make(inputs, value, backward_fn) -> np.ndarray:
    # numpy returns a 0-d result (of add, mul, scale or mse's mean) as an
    # np.float64 scalar; the tape and the callers want an array
    out = np.asarray(value)
    tape = getattr(_tls, "tape", None)
    if tape is not None:
        tape.record(inputs, out, backward_fn)
    return out


# ---------------------------------------------------------------- op kinds


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
    return _make([a, b], a + b, lambda g: (g, g))


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} vs {b.shape}")
    return _make([a, b], a * b, lambda g: (g * b, g * a))


def scale(a: np.ndarray, c: float) -> np.ndarray:
    c = float(c)
    return _make([a], a * c, lambda g: (g * c,))


def _check_affine(op: str, x, w, b) -> None:
    if (x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape not in ((w.shape[1],), (1, w.shape[1]))):
        raise ShapeError(f"{op}: shapes {x.shape} @ {w.shape} + {b.shape}")


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map x@W + b of a (K, Cin) array, with b of shape (C,) or
    (1, C) added to every row; its gradient sums the rows of g."""
    _check_affine("linear", x, w, b)
    out = x @ w
    out += b

    def bwd(g):
        return (g @ w.T, x.T @ g, g.sum(axis=0).reshape(b.shape))

    return _make([x, w, b], out, bwd)


def bias_leaky_relu(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                    find_underflow: bool = False) -> np.ndarray | None:
    """Write max(p, slope * p) of p = a + b into out (which may be a),
    for a (K, C) array a and a (C,) or (1, C) bias row b, one block of
    rows (about BLOCK_ELEMENTS elements) at a time, so that the three
    passes over a block stay in cache. Each element goes through the same
    float operations, in the same order, as the whole-array a + b, then
    p * slope, then np.maximum: the bits do not depend on the blocking.
    The block temporary has out's dtype. Records nothing.

    With find_underflow, returns the flat indices, in order, where p is a
    tiny negative whose slope * p underflows to zero (see dense), or None
    if no slope * p is zero."""
    n, c = a.shape
    rows = max(BLOCK_ELEMENTS // max(c, 1), 1)
    under = []
    for r0 in range(0, n, rows):
        blk = out[r0:r0 + rows]
        np.add(a[r0:r0 + rows], b, out=blk)
        t = blk * LEAKY_SLOPE
        if find_underflow and not t.all():
            under.append(np.flatnonzero((t == 0) & (blk < 0)) + r0 * c)
        np.maximum(blk, t, out=blk)
    return np.concatenate(under) if under else None


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The leaky ReLU of linear(x, w, b), max(a, slope * a) of the
    pre-activation a = x@W + b, as one op that keeps only its output, not
    a, while the graph waits for its walk. The matmul is one whole-array
    x @ w; bias_leaky_relu then adds b and takes the leaky ReLU in place,
    a block of rows at a time. The guided branch of denoise_graph calls the
    same helper, so its float operations are dense's by construction.

    The backward multiplies g by the coefficient 1 where a >= 0, else the
    slope. It reads that from out >= 0, which agrees with a >= 0 for -0.0,
    NaN and the infinities. It disagrees only where slope * a underflows
    to -0.0 for a tiny negative a (|a| at most about 2.5e-322), whose
    output is then the -0.0 of a = -0.0; the forward lists those
    elements, looking for them only on a tape and only in blocks where
    some slope * a is zero."""
    _check_affine("dense", x, w, b)
    out = x @ w
    under = bias_leaky_relu(out, b, out, find_underflow=recording())

    def bwd(g):
        coef = np.maximum(out >= 0, LEAKY_SLOPE)
        if under is not None:
            coef.flat[under] = LEAKY_SLOPE
        coef *= g
        return (coef @ w.T, x.T @ coef, coef.sum(axis=0).reshape(b.shape))

    return _make([x, w, b], out, bwd)


def concat_last_axis(parts: Sequence[np.ndarray]) -> np.ndarray:
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

    return _make(list(parts), np.concatenate(parts, axis=-1), bwd)


def sigmoid(a: np.ndarray) -> np.ndarray:
    y = 1.0 / (1.0 + np.exp(-a))
    return _make([a], y, lambda g: (g * y * (1.0 - y),))


def _first_max_rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per column of a, the first row holding its maximum m (a NaN if the
    column has one, as np.argmax has it). np.argmax(a, axis=0) strides down
    the columns of a C-ordered array; comparing against m is faster."""
    idx = (a == m).argmax(axis=0)
    nan = np.isnan(m)
    if nan.any():
        idx[nan] = np.isnan(a[:, nan]).argmax(axis=0)
    return idx


def reduce_max_over_points(a: np.ndarray) -> np.ndarray:
    """Max over axis 0 of a (K, C) array: per column the first maximal
    element, so a tie of +0.0 and -0.0 keeps the sign of the earlier one
    and the gradient goes to the lowest index, deterministically. Only the
    backward looks for that index."""
    if a.ndim != 2:
        raise ShapeError(f"reduce_max_over_points expects 2D, got {a.shape}")
    m = a.max(axis=0)
    # a.max may return either zero of a ±0.0 tie, or any NaN; only those
    # columns take the first matching element
    odd = ~(m != 0)
    if odd.any():
        a_odd = a[:, odd]
        m[odd] = a_odd[_first_max_rows(a_odd, m[odd]), np.arange(a_odd.shape[1])]

    def bwd(g):
        ga = np.zeros_like(a)
        ga[_first_max_rows(a, m), np.arange(a.shape[1])] = g
        return (ga,)

    return _make([a], m, bwd)


def mse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} vs {b.shape}")
    d = a - b
    n = d.size
    return _make([a, b], np.mean(d * d),
                 lambda g: (g.item() * 2.0 / n * d, g.item() * -2.0 / n * d))


class GatherPlan:
    """The fixed part of gathering rows `indices` from an n-row array:
    `src`, the indices with each negative (padding) index mapped to n, and,
    built on first use for each channel count C, the (m*C) np.bincount
    bins of gather_rows' backward. A caller whose indices do not change
    keeps one plan (the auto-encoder's convolutions lru_cache theirs), so
    that work is done once; a cached plan and its bins then live as long
    as the process. `src` and the bins are read-only, as the plan may be
    shared; two threads that build one count's bins at once make equal
    arrays, and either is kept."""

    __slots__ = ("n", "src", "_bins")

    def __init__(self, indices, n: int):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ShapeError(f"gather_rows: indices must be 1-D, got {idx.shape}")
        if idx.size and idx.max() >= n:
            raise IndexError(f"gather_rows: index {idx.max()} is out of "
                             f"bounds for {n} rows")
        self.n = n
        self.src = np.where(idx >= 0, idx, n)
        self.src.flags.writeable = False
        self._bins: dict[int, np.ndarray] = {}

    def bins(self, c: int) -> np.ndarray:
        """The bin of each (row, channel) term of a gradient with c
        channels: src * c + channel, padding rows in row n."""
        bins = self._bins.get(c)
        if bins is None:
            bins = (self.src.reshape(-1, 1) * c + np.arange(c)).ravel()
            bins.flags.writeable = False
            self._bins[c] = bins
        return bins


def gather_rows(a: np.ndarray, rows) -> np.ndarray:
    """Select rows of a 2D array by a GatherPlan, or by an index array,
    which is wrapped in a fresh one. A negative index yields a zero row
    (used for implicit zero padding); gradient scatters to valid rows only.

    The forward takes the rows from a copy of a with one +0.0 row n
    appended, which every padding index names. The scatter is one
    np.bincount over the plan's bins, one per (row, channel). It sums each
    bin's terms in input order, starting from +0.0, so the gradient is bit
    for bit that of accumulating g's rows one by one into zeros, signs of
    zero included. Padding terms go to the extra row n, which is sliced
    off."""
    if a.ndim != 2:
        raise ShapeError(f"gather_rows expects 2D, got {a.shape}")
    n, c = a.shape
    plan = rows if isinstance(rows, GatherPlan) else GatherPlan(rows, n)
    if plan.n != n:
        raise ShapeError(f"gather_rows: plan for {plan.n} rows, got shape {a.shape}")
    padded = np.empty((n + 1, c))
    padded[:n] = a
    padded[n] = 0.0
    out = padded.take(plan.src, axis=0)

    def bwd(g):
        ga = np.bincount(plan.bins(c), weights=g.ravel(), minlength=(n + 1) * c)
        return (ga[:n * c].reshape(n, c),)

    return _make([a], out, bwd)


def rows_from(a: np.ndarray, k: int) -> np.ndarray:
    """Rows k: of a 2D array, as a view: bit for bit gather_rows(a,
    arange(k, n)) without its copy. The backward writes g + 0.0 into rows
    k: of zeros, as that gather's bincount scatter sums each row's one
    term from +0.0 (so -0.0 becomes +0.0)."""
    if a.ndim != 2 or not 0 <= k <= a.shape[0]:
        raise ShapeError(f"rows_from: rows {k}: of shape {a.shape}")

    def bwd(g):
        ga = np.zeros_like(a)
        np.add(g, 0.0, out=ga[k:])
        return (ga,)

    return _make([a], a[k:], bwd)


def reshape(a: np.ndarray, shape) -> np.ndarray:
    shape = tuple(shape)
    return _make([a], a.reshape(shape), lambda g: (g.reshape(a.shape),))


M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
M_MMAP_THRESHOLD = -3


def keep_heap_warm() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    By default glibc serves each block of 128 KiB or more with its own mmap
    and only raises that threshold after such a block is freed, and it
    trims the heap top whenever 128 KiB lie free there. A process would
    then unmap and fault in again the 1-4 MB arrays that every denoiser
    call and every training sample's backward walk free. `run_training`,
    the sampling chain and `cli.main` call this first. The setting is
    process-wide and lasts for the life of the process; calling it again
    changes nothing. A no-op where libc has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)
