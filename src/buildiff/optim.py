"""Adam with bias correction, over named DiffTensor parameters."""

from __future__ import annotations

import numpy as np

from .tensor import DiffTensor, Tape


class AdamState:
    def __init__(self, params: dict[str, DiffTensor], lr: float = 0.0002,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def adam_step(state: AdamState, params: dict[str, DiffTensor]) -> None:
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def backward_and_step(state: AdamState, params: dict[str, DiffTensor],
                      tape: Tape, loss: DiffTensor) -> None:
    """Backpropagate loss over tape and take one Adam step. backward sets
    .grad only where the loss reaches, so every gradient is cleared first
    and an unreached parameter steps on zeros, never on a stale gradient."""
    for p in params.values():
        p.grad = None
    tape.backward(loss)
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
    adam_step(state, params)
