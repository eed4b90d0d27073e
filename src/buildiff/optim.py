"""Adam with bias correction, over named parameter arrays, updated in
place, and their gradients, one array per parameter in the dict's order."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    def __init__(self, params: dict[str, np.ndarray], lr: float = 0.0002):
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: list[np.ndarray]) -> None:
    """One step on every parameter; a gradient list of the wrong length
    raises ValueError before anything moves.

    Each parameter's update is
        m = BETA1 m + (1 - BETA1) g,  v = BETA2 v + (1 - BETA2) g g,
        p -= lr (m / bc1) / (sqrt(v / bc2) + EPS),
    computed in that order in two scratch arrays, never in g: two
    parameters may share one gradient array (add's backward hands g to
    both inputs)."""
    if len(grads) != len(params):
        raise ValueError(f"adam_step: {len(grads)} gradients for "
                         f"{len(params)} parameters")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for (name, p), g in zip(params.items(), grads):
        m = state.m[name]
        v = state.v[name]
        s = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += s
        np.multiply(g, g, out=s)
        s *= 1.0 - BETA2
        v *= BETA2
        v += s
        np.divide(m, bc1, out=s)
        s *= state.lr
        r = np.divide(v, bc2)
        np.sqrt(r, out=r)
        r += EPS
        s /= r
        p -= s

