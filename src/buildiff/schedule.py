"""Noise schedules, the piecewise time weight, and sinusoidal time embedding."""

from __future__ import annotations

import numpy as np

SIGMA_MODES = ("large", "posterior")


class NoiseSchedule:
    """Linear beta schedule with derived alpha / alpha-bar / sigma sequences.

    All accessors take 1-based t in {1..T}. sigma_mode selects the sampling
    noise: 'large' = sqrt(beta_t), 'posterior' = sqrt(beta_t * (1-abar_{t-1})
    / (1-abar_t)). sigma(1) is forced to 0 so the last step is deterministic.
    """

    def __init__(self, T: int, betas: np.ndarray, sigma_mode: str = "large"):
        if T < 2 or len(betas) != T:
            raise ValueError("schedule needs T >= 2 betas")
        self.T = T
        self.betas = betas
        self.alphas = 1.0 - betas
        self.alpha_bars = np.cumprod(self.alphas)
        self.sigma_mode = sigma_mode
        if sigma_mode == "large":
            sig2 = betas.copy()
        elif sigma_mode == "posterior":
            abar_prev = np.concatenate([[1.0], self.alpha_bars[:-1]])
            sig2 = betas * (1.0 - abar_prev) / (1.0 - self.alpha_bars)
        else:
            raise ValueError(f"unknown sigma_mode {sigma_mode!r}")
        sig2[0] = 0.0
        self.sigmas = np.sqrt(sig2)

    def _check_t(self, t: int) -> int:
        if not 1 <= t <= self.T:
            raise ValueError(f"t={t} outside 1..{self.T}")
        return t - 1

    def alpha(self, t: int) -> float:
        return float(self.alphas[self._check_t(t)])

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[self._check_t(t)])

    def sigma(self, t: int) -> float:
        return float(self.sigmas[self._check_t(t)])


def linear_beta_schedule(T: int = 1000, beta_1: float = 0.0001,
                         beta_T: float = 0.02,
                         sigma_mode: str = "large") -> NoiseSchedule:
    if not 0.0 < beta_1 < beta_T < 1.0:
        raise ValueError(f"need 0 < beta_1 < beta_T < 1, got {beta_1}, {beta_T}")
    if T < 2:
        raise ValueError("T must be >= 2")
    t = np.arange(T, dtype=np.float64)
    betas = beta_1 + t / (T - 1) * (beta_T - beta_1)
    return NoiseSchedule(T, betas, sigma_mode=sigma_mode)


def lambda_weight(t: int, T: int) -> float:
    """Piecewise footprint-loss weight: 1 at t=1, stepping down to 0 past 3T/4."""
    if not 1 <= t <= T:
        raise ValueError(f"t={t} outside 1..{T}")
    if t == 1:
        return 1.0
    if t <= T / 4:
        return 0.75
    if t <= T / 2:
        return 0.5
    if t <= 3 * T / 4:
        return 0.25
    return 0.0


def sinusoidal_embedding(t: int, d: int = 128) -> np.ndarray:
    """Standard sin/cos positional embedding of the time step; d must be even."""
    if d % 2 != 0:
        raise ValueError(f"embedding dimension must be even, got {d}")
    i = np.arange(d // 2, dtype=np.float64)
    freq = t / np.power(10000.0, 2.0 * i / d)
    emb = np.empty(d)
    emb[0::2] = np.sin(freq)
    emb[1::2] = np.cos(freq)
    return emb
