"""Reference computations that only tests use."""

from __future__ import annotations

from typing import Callable

import numpy as np


def finite_diff_grad(f: Callable[[list[np.ndarray]], float],
                     params: list[np.ndarray], step: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function, element by element.

    f must be deterministic in the params, which are perturbed in place and
    restored.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    grads = []
    for p in params:
        g = np.zeros_like(p)
        # index p itself: p.reshape(-1) is a copy when p is not C-contiguous
        for i in np.ndindex(p.shape):
            orig = p[i]
            p[i] = orig + step
            fp = f(params)
            p[i] = orig - step
            fm = f(params)
            p[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ValueError("finite_diff_grad: non-finite function value")
            g[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def gather_rows_reference(a: np.ndarray, indices) -> np.ndarray:
    """tensor.gather_rows as it stood before GatherPlan, recording on the
    current tape: a fancy-indexed copy of a whose padding (negative) rows
    are then set to 0.0, and a backward that builds its np.bincount bins
    on every call."""
    from buildiff import tensor as T

    if a.ndim != 2:
        raise T.ShapeError(f"gather_rows expects 2D, got {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    valid = idx >= 0
    safe = np.where(valid, idx, 0)
    out = a[safe]
    out[~valid] = 0.0

    def bwd(g):
        n, c = a.shape
        tgt = np.where(valid, idx, n).reshape(-1, 1)
        bins = (tgt * c + np.arange(c)).ravel()
        ga = np.bincount(bins, weights=g.ravel(), minlength=(n + 1) * c)
        return (ga[:n * c].reshape(n, c),)

    return T._make([a], out, bwd)


def leaky_relu_reference(a: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """tensor.leaky_relu as it stood before the guided call left the tape,
    recording on the current tape: max(a, slope * a), and a backward that
    multiplies g by coef, 1 where a >= 0 else slope. Both equal a * coef
    and g * coef bit for bit; the backward builds coef with a cast rather
    than np.where, which is several times slower."""
    from buildiff import tensor as T

    out = np.asarray(a * slope)  # a * slope is a scalar when a is 0-d
    np.maximum(a, out, out=out)

    def bwd(g):
        coef = np.maximum(a >= 0, slope)
        coef *= g
        return (coef,)

    return T._make([a], out, bwd)


def plan_indices(rows) -> np.ndarray:
    """The index array behind a tensor.GatherPlan, -1 for each padding row;
    any other argument as an int64 array."""
    from buildiff import tensor as T

    if isinstance(rows, T.GatherPlan):
        return np.where(rows.src < rows.n, rows.src, -1)
    return np.asarray(rows, dtype=np.int64)


def train_autoencoder_reference(images, epochs: int, lr: float, d: int,
                                seed: int) -> dict[str, np.ndarray]:
    """The auto-encoder's own training loop as it stood before the stage
    ran through `pipeline.run_training`: parameters from init_ae_params at
    seed, one permutation of the images per epoch from
    default_rng(seed + 1), then per image one integers(2**31) draw seeding
    its augmentation and one Adam step on ae_loss."""
    from buildiff import tensor as T
    from buildiff.conditioner import (_decode_graph, _encode_graph, ae_loss,
                                      augment, init_ae_params)
    from buildiff.optim import AdamState, adam_step

    size = images[0].height
    params = init_ae_params(d, size, seed)
    state = AdamState(params, lr=lr)
    rng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        for i in rng.permutation(len(images)):
            img = images[int(i)]
            aug = augment(img, int(rng.integers(2 ** 31)))
            with T.Tape() as tape:
                z = _encode_graph(params, img.pixels)
                recon = _decode_graph(params, z, size)
                loss = ae_loss(img.pixels, recon, z, _encode_graph(params, aug.pixels))
            adam_step(state, params, tape.backward(loss, list(params.values())))
    return params


def init_denoiser_params_reference(cfg, seed: int) -> dict[str, np.ndarray]:
    """The denoiser's initialisation as it stood before it was drawn from
    `denoiser_shapes`: one Kaiming draw per layer, with the first decoder
    layer drawn whole at (2 w2 + d, wd) and then split into the row blocks
    dec.w1h, dec.w1c and dec.w1f; each bias is filled in after its
    weight, and null_embed comes last."""
    rng = np.random.default_rng(seed)
    d, w1, w2, wd = cfg.d, cfg.w1, cfg.w2, cfg.wd

    def kaiming(fan_in, shape):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    spec = {
        "time.w1": (d, (d, d)), "time.b1": None,
        "time.w2": (d, (d, d)), "time.b2": None,
        "fuse.w1": (2 * d, (2 * d, d)), "fuse.b1": None,
        "fuse.w2": (d, (d, d)), "fuse.b2": None,
        "point.w1": (3, (3, w1)), "point.b1": None,
        "point.w2": (w1, (w1, w2)), "point.b2": None,
        "dec.w1": (2 * w2 + d, (2 * w2 + d, wd)), "dec.b1": None,
        "dec.w2": (wd, (wd, wd)), "dec.b2": None,
    }
    params: dict[str, np.ndarray] = {}
    for name, s in spec.items():
        if s is None:  # the bias of the layer drawn just before
            params[name] = np.zeros(w.shape[1])
            continue
        w = kaiming(*s)
        if name == "dec.w1":
            for suffix, block in zip("hcf", np.split(w, [w2, 2 * w2])):
                params[name + suffix] = block.copy()
        else:
            params[name] = w
    params["dec.out_w"] = np.zeros((wd, 3))
    params["dec.out_b"] = np.zeros(3)
    params["null_embed"] = rng.uniform(-0.1, 0.1, size=d)
    return params
