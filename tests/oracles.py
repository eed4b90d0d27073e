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
