"""Adam with bias correction, over named DiffTensor parameters and their
gradients, one array per parameter in the dict's order."""

from __future__ import annotations

import numpy as np

from .tensor import DiffTensor, Tape

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    def __init__(self, params: dict[str, DiffTensor], lr: float = 0.0002):
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def adam_step(state: AdamState, params: dict[str, DiffTensor],
              grads: list[np.ndarray]) -> None:
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for (name, p), g in zip(params.items(), grads, strict=True):
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def backward_and_step(state: AdamState, params: dict[str, DiffTensor],
                      tape: Tape, loss: DiffTensor) -> None:
    """Backpropagate loss over tape and take one Adam step; a parameter
    the loss does not reach steps on a zero gradient."""
    adam_step(state, params, tape.backward(loss, list(params.values())))
