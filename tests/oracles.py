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
