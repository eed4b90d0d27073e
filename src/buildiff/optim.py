"""Adam with bias correction, over named parameter arrays, updated in
place, and their gradients, one array per parameter in the dict's order."""

from __future__ import annotations

import numpy as np

from .tensor import Tape

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
    raises ValueError before anything moves."""
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
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def backward_and_step(state: AdamState, params: dict[str, np.ndarray],
                      tape: Tape, loss: np.ndarray) -> None:
    """Backpropagate loss over tape and take one Adam step; a parameter
    the loss does not reach steps on a zero gradient."""
    adam_step(state, params, tape.backward(loss, list(params.values())))
