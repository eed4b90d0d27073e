"""Conditional noise-prediction network.

Per-point shared MLP with a global max-pool context vector, fused with the
image-condition / time-step feature map. Permutation equivariant by
construction. A learned null embedding stands in for dropped conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .schedule import sinusoidal_embedding


@dataclass(frozen=True)
class DenoiserConfig:
    d: int = 128        # condition / temporal embedding width
    w1: int = 64        # point MLP hidden
    w2: int = 128       # point feature width (also pooled context width)
    wd: int = 128       # decoder hidden


def _kaiming(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def denoiser_shapes(cfg: DenoiserConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each denoiser parameter, in draw order; a weight is
    its (fan_in, fan_out) matrix, a bias is 1-D. The first decoder layer
    is three blocks, one per input: per-point features h, max-pool
    context and fused time/condition features."""
    d, w1, w2, wd = cfg.d, cfg.w1, cfg.w2, cfg.wd
    return {
        "time.w1": (d, d), "time.b1": (d,),
        "time.w2": (d, d), "time.b2": (d,),
        "fuse.w1": (2 * d, d), "fuse.b1": (d,),
        "fuse.w2": (d, d), "fuse.b2": (d,),
        "point.w1": (3, w1), "point.b1": (w1,),
        "point.w2": (w1, w2), "point.b2": (w2,),
        "dec.w1h": (w2, wd), "dec.w1c": (w2, wd), "dec.w1f": (d, wd),
        "dec.b1": (wd,),
        "dec.w2": (wd, wd), "dec.b2": (wd,),
        "dec.out_w": (wd, 3), "dec.out_b": (3,),
        "null_embed": (d,),
    }


def init_denoiser_params(cfg: DenoiserConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform Kaiming weights at fan_in = their row count, except that the
    three first-decoder-layer blocks share the layer's fan_in 2 w2 + d;
    zero biases and a zero output layer, so the fresh network predicts
    eps ~ 0; null_embed uniform in +-0.1, drawn last."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in denoiser_shapes(cfg).items():
        if name == "null_embed":
            params[name] = rng.uniform(-0.1, 0.1, size=shape)
        elif len(shape) == 1 or name == "dec.out_w":
            params[name] = np.zeros(shape)
        else:
            fan_in = 2 * cfg.w2 + cfg.d if name.startswith("dec.w1") else shape[0]
            params[name] = _kaiming(rng, fan_in, shape)
    return params


def time_features(params: dict[str, np.ndarray], t: int) -> np.ndarray:
    """The (1, d) time features of step t: its sinusoidal embedding
    through the two-layer time MLP."""
    d = params["null_embed"].shape[0]
    zt = sinusoidal_embedding(t, d).reshape(1, d)
    zt = T.dense(zt, params["time.w1"], params["time.b1"])
    return T.dense(zt, params["time.w2"], params["time.b2"])


def fuse_conditions(params: dict[str, np.ndarray], z_I: np.ndarray | None,
                    zt: np.ndarray) -> np.ndarray:
    """Build the (1, d) condition feature row from the time features zt
    (time_features) and the image embedding (or the learned null embedding
    when dropped)."""
    d = params["null_embed"].shape[0]
    if z_I is not None and len(np.asarray(z_I).reshape(-1)) != d:
        raise ValueError(f"condition dim {len(z_I)} != d={d}")
    if z_I is None:
        cond = T.reshape(params["null_embed"], (1, d))
    else:
        cond = np.asarray(z_I, dtype=np.float64).reshape(1, d)
    both = T.concat_last_axis([cond, zt])
    h = T.dense(both, params["fuse.w1"], params["fuse.b1"])
    return T.dense(h, params["fuse.w2"], params["fuse.b2"])


def point_features(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """The point MLP: (n, w2) features of the (n, 3) points x, row by row."""
    h = T.dense(x, params["point.w1"], params["point.b1"])
    return T.dense(h, params["point.w2"], params["point.b2"])


def join_max(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The column maxima of two stacked row blocks, from each block's
    reduce_max_over_points, by that op's rule: per column the first maximal
    element in row order. So first wins a tie, -0.0 against +0.0 included,
    and a NaN of first wins over everything; a NaN of second wins over a
    number of first."""
    return np.where((first >= second) | np.isnan(first), first, second)


def _check_input(xt: np.ndarray, K: int) -> None:
    if xt.ndim != 2 or xt.shape[1] != 3:
        raise ValueError(f"xt must be (N,3), got {xt.shape}")
    if not 0 <= K < xt.shape[0]:
        raise ValueError(f"need 0 <= K < N={xt.shape[0]}, got K={K}")


def denoise_graph(params: dict[str, np.ndarray], xt: np.ndarray, t: int,
                  z_I: np.ndarray | None, guided: bool = False, K: int = 0,
                  fixed_max: np.ndarray | None = None):
    """Forward pass; returns the (N - K, 3) noise prediction of rows K: of
    the (N, 3) input, whose first K rows are the upsampler's fixed points
    (K = 0 for the base stage). Inside a Tape it records the graph for
    training; outside one, as sampling calls it, it keeps none.

    Every hidden layer is one dense op, which keeps its output but not
    its pre-activation. The point MLP and the max-pool context read all N
    rows (but see fixed_max below); only the decoder is cut to rows K:, a
    view taken by rows_from, as nothing reads a noise estimate of a fixed
    row. The first decoder layer is three parameters, one per input block:
    dec.w1h (W_h, w2 rows) for the per-point features h, dec.w1c (W_ctx,
    w2 rows) for the max-pool context and dec.w1f (W_f, d rows) for the
    fused time/condition features. The context and fused features are the
    same on every row, so they are computed once as (1, .) rows and enter
    that layer as one bias row: ctx@W_ctx + fused@W_f + dec.b1, added to
    h[K:]@W_h; a plain call, as training makes, takes that sum and its
    activation in one dense. A guided call, which only sampling makes,
    raises ValueError inside a Tape and returns (eps_cond, eps_uncond). Its
    branches share the point MLP, the context, the time features and
    h[K:]@W_h, computed once in plain numpy; each adds its own bias row and
    takes the leaky ReLU into a new array by tensor.bias_leaky_relu, the
    helper dense itself calls, so it is bitwise a plain call.

    fixed_max, for sampling calls outside a Tape with K >= 1, is the (w2,)
    reduce_max_over_points of the point features of rows :K. Given it, the
    point MLP and the max-pool run on rows K: only, and join_max joins the
    two maxima into the context, bitwise the all-row context as long as
    the point MLP gives the same bits for rows K: alone as inside all N
    rows.
    """
    _check_input(xt, K)
    if guided and T.recording():
        raise ValueError("a guided call records nothing; make it outside a Tape")
    if fixed_max is None:
        h = point_features(params, xt)
        ctx = T.reduce_max_over_points(h)
        noisy = T.rows_from(h, K) if K else h
    elif K and not T.recording():
        noisy = point_features(params, xt[K:])
        ctx = join_max(fixed_max, T.reduce_max_over_points(noisy))
    else:
        raise ValueError("fixed_max needs K >= 1 and a call outside a Tape")
    w_h, w_f = params["dec.w1h"], params["dec.w1f"]
    ctx = T.reshape(ctx, (1, ctx.shape[0]))
    ctx_bias = T.linear(ctx, params["dec.w1c"], params["dec.b1"])

    hw = noisy @ w_h if guided else None
    zt = time_features(params, t)

    def branch(cond):
        fused = fuse_conditions(params, cond, zt)
        bias = T.linear(fused, w_f, ctx_bias)
        if guided:
            out = np.empty_like(hw)
            T.bias_leaky_relu(hw, bias, out)
        else:
            out = T.dense(noisy, w_h, bias)
        out = T.dense(out, params["dec.w2"], params["dec.b2"])
        out = T.linear(out, params["dec.out_w"], params["dec.out_b"])
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite activations in decoder output")
        return out

    if guided:
        return branch(z_I), branch(None)
    return branch(z_I)


def make_model(params: dict[str, np.ndarray], K: int = 0):
    """Adapter for the sampling chain, with the count K of fixed rows
    bound: model(xt, t, z_I_or_None) -> (N - K, 3);
    model(xt, t, z_I, guided=True) -> (eps_cond, eps_uncond) from one
    shared point trunk. denoise_graph is looked up at each call, so a
    wrapper patched into this module sees the sampling calls too.

    With K >= 1 the model keeps the bits of the last call's rows :K and
    the column maxima of their point features, which it passes to
    denoise_graph as fixed_max. A call whose rows :K hold the same bits
    (dtype included; bits, not values, so a -0.0 for a +0.0 recomputes)
    reuses them, so a sampling chain, which never changes its fixed rows,
    runs the point MLP on them once. A call inside a Tape passes nothing."""
    fixed_key = fixed_max = None

    def model(xt, t, z_I, guided=False):
        nonlocal fixed_key, fixed_max
        if not K or T.recording():
            return denoise_graph(params, xt, t, z_I, guided=guided, K=K)
        _check_input(xt, K)
        key = (xt.dtype.str, xt[:K].tobytes())
        if key != fixed_key:
            fixed_max = T.reduce_max_over_points(point_features(params, xt[:K]))
            fixed_key = key
        return denoise_graph(params, xt, t, z_I, guided=guided, K=K,
                             fixed_max=fixed_max)
    return model
