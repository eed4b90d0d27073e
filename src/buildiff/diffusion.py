"""Forward noising, x0 reconstruction, guided noise combination and the
one ancestral sampling chain, which the base stage runs with no fixed
points and the upsampler with its low-resolution cloud held fixed."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .geometry import PointCloud
from .schedule import NoiseSchedule


def forward_noise(x0: np.ndarray, t: int, eps: np.ndarray,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form noisy state: sqrt(abar_t) x0 + sqrt(1-abar_t) eps."""
    if x0.shape != eps.shape:
        raise ValueError(f"forward_noise: shapes {x0.shape} vs {eps.shape}")
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def reconstruct_x0(xt: np.ndarray, t: int, eps_hat: np.ndarray,
                   schedule: NoiseSchedule) -> np.ndarray:
    """Algebraic inverse of forward_noise given a noise estimate. Inside a
    Tape, as the footprint loss runs it, gradients flow through eps_hat;
    xt is a constant."""
    if xt.shape != eps_hat.shape:
        raise ValueError(f"reconstruct_x0: shapes {xt.shape} vs {eps_hat.shape}")
    ab = schedule.alpha_bar(t)
    return T.scale(T.add(xt, T.scale(eps_hat, -np.sqrt(1.0 - ab))),
                   1.0 / np.sqrt(ab))


def guided_epsilon(eps_cond: np.ndarray, eps_uncond: np.ndarray,
                   gamma: float) -> np.ndarray:
    """(1+gamma) * conditional - gamma * unconditional."""
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError(
            f"guided_epsilon: shapes {eps_cond.shape} vs {eps_uncond.shape}")
    return (1.0 + gamma) * eps_cond - gamma * eps_uncond


def ancestral_step(xt: np.ndarray, t: int, eps_guided: np.ndarray,
                   z: np.ndarray | None, schedule: NoiseSchedule) -> np.ndarray:
    """One reverse step; at t=1 sigma is 0 so z is ignored."""
    if t < 1:
        raise ValueError(f"t={t} below 1")
    a = schedule.alpha(t)
    ab = schedule.alpha_bar(t)
    mean = (xt - (1.0 - a) / np.sqrt(1.0 - ab) * eps_guided) / np.sqrt(a)
    sigma = schedule.sigma(t)
    if t > 1 and sigma > 0.0:
        if z is None:
            raise ValueError("z required for t > 1")
        mean = mean + sigma * z
    return mean


def _chain(model, z_I, fixed: np.ndarray, N: int, gamma: float, seed: int,
           schedule: NoiseSchedule, on_step=None) -> PointCloud:
    """The one reverse chain, from Gaussian noise to an N-point cloud whose
    first K = len(fixed) rows are written once and never stepped, so they
    survive bitwise in every state; K = 0 is the base chain. After each
    reverse step t, on_step(t, x) is called, if given, with the live
    (N, 3) state x_{t-1}; it must not write to x, which the next step
    overwrites in place.

    model(xt, t, z_I_or_None) -> (N-K,3) noise prediction of rows K:; for
    gamma != 0 the loop calls model(xt, t, z_I, guided=True) once per step,
    which returns (eps_cond, eps_uncond). Any other shape raises ValueError.
    Each step's z is drawn for all N rows and its rows K: are used, so the
    random stream is the same for every K. Deterministic in
    (seed, gamma, model).
    """
    T.keep_heap_warm()
    K = fixed.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N, 3))
    x[:K] = fixed
    for t in range(schedule.T, 0, -1):
        if gamma == 0.0:
            eps = model(x, t, z_I)
        else:
            eps = guided_epsilon(*model(x, t, z_I, guided=True), gamma)
        if eps.shape != (N - K, 3):
            raise ValueError(f"model returned shape {eps.shape} at step t={t}, "
                             f"want ({N - K}, 3) for rows K={K}..N={N}")
        # a non-finite branch makes the guided combination non-finite too
        if not np.all(np.isfinite(eps)):
            raise FloatingPointError(f"non-finite model output at step t={t}")
        z = rng.standard_normal((N, 3))[K:] if t > 1 else None
        x[K:] = ancestral_step(x[K:], t, eps, z, schedule)
        if on_step is not None:
            on_step(t, x)
    return PointCloud(x)


def sample_base(model, z_I, K: int, gamma: float, seed: int,
                schedule: NoiseSchedule, on_step=None) -> PointCloud:
    """Base chain to a K-point cloud: the chain with no fixed points."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return _chain(model, z_I, np.zeros((0, 3)), K, gamma, seed, schedule,
                  on_step)


def sample_upsampled(model, z_I, lowres: PointCloud, N: int, gamma: float,
                     seed: int, schedule: NoiseSchedule,
                     on_step=None) -> PointCloud:
    """Upsampling chain to N points that holds the low-resolution cloud
    fixed in the first K rows."""
    if N <= lowres.count:
        raise ValueError(f"N={N} must exceed K={lowres.count}")
    return _chain(model, z_I, lowres.points, N, gamma, seed, schedule, on_step)
