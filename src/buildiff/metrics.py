"""Pairwise point-set evaluation: Chamfer distance, Earth Mover's Distance
and F1 score, reported with the x100 scaling used for tables."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .checkpoint import replaced
from .geometry import PointCloud, nearest_squared_distances, normalize_unit_cube

F1_TAU = 0.001  # threshold on squared distance (see README on the convention)
# Up to here eval takes the Hungarian EMD: on building pairs it is about 2x
# faster than the auction at n=1024 and level with it at n=2048 (README).
EXACT_EMD_LIMIT = 2048


@dataclass
class PairReport:
    cd_scaled: float
    emd_scaled: float
    f1: float
    n_pred: int
    n_ref: int
    emd_mode: str = "exact"
    resampled: bool = False


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean of squared nearest-neighbour distances."""
    if a.count == 0 or b.count == 0:
        raise ValueError("chamfer: empty cloud")
    return _chamfer(nearest_squared_distances(a.points, b.points),
                    nearest_squared_distances(b.points, a.points))


def _chamfer(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    """Chamfer distance from the squared nearest distances each way."""
    return float(d_ab.mean() + d_ba.mean())


def _auction_assignment(cost: np.ndarray) -> np.ndarray:
    """Forward auction with epsilon scaling; returns a feasible assignment
    (column for each row) whose cost is within n*eps_final of optimal.

    Row i bids on the column j minimising s = cost[i] + prices and raises
    its price by (second-best s - best s) + eps: the Gauss-Seidel auction
    of Bertsekas (1988) on benefit -cost, written on costs so that no
    negated n x n copy is made."""
    n = cost.shape[0]
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    span = float(cost.max() - cost.min()) or 1.0
    prices = np.zeros(n)
    s = np.empty(n)
    eps = span / 2.0
    # the total-cost gap n * eps_final is at most 1e-4 * span, so the
    # mean-cost gap is at most 1e-4 * span / n
    eps_final = span * 1e-4 / n
    assign = np.full(n, -1, dtype=np.int64)
    while True:
        assign[:] = -1
        owner = np.full(n, -1, dtype=np.int64)
        unassigned = list(range(n))
        while unassigned:
            i = unassigned.pop()
            np.add(cost[i], prices, out=s)
            j = int(s.argmin())
            s1 = s[j]
            s[j] = np.inf
            prices[j] += (s[s.argmin()] - s1) + eps
            prev = owner[j]
            owner[j] = i
            assign[i] = j
            if prev >= 0:
                assign[prev] = -1
                unassigned.append(prev)
        if eps <= eps_final:
            return assign
        eps = max(eps / 5.0, eps_final)


def emd(a: PointCloud, b: PointCloud, mode: str = "exact",
        seed: int = 0) -> tuple[float, bool]:
    """Mean Euclidean distance under the optimal bijection.

    Unequal counts are handled by seeded uniform subsampling to the smaller
    count; the returned flag records whether that happened.
    """
    # here, not at module level: most commands never need scipy
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    if a.count == 0 or b.count == 0:
        raise ValueError("emd: empty cloud")
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown emd mode {mode!r}")
    m = min(a.count, b.count)
    if mode == "exact" and m > EXACT_EMD_LIMIT:
        raise ValueError(
            f"exact EMD limited to n<={EXACT_EMD_LIMIT}, got {m}; use approx")
    pa, pb = a.points, b.points
    resampled = len(pa) != len(pb)
    if resampled:
        rng = np.random.default_rng(seed)
        if len(pa) > m:
            pa = pa[rng.choice(len(pa), m, replace=False)]
        if len(pb) > m:
            pb = pb[rng.choice(len(pb), m, replace=False)]
    cost = cdist(pa, pb)
    if mode == "exact":
        rows, cols = linear_sum_assignment(cost)
    else:
        rows, cols = np.arange(m), _auction_assignment(cost)
    return float(cost[rows, cols].mean()), resampled


def fscore(pred: PointCloud, ref: PointCloud, tau: float = F1_TAU) -> float:
    """F1 in percent; a point scores if its squared distance to the other
    set is <= tau."""
    if pred.count == 0 or ref.count == 0:
        raise ValueError("fscore: empty cloud")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return _fscore(nearest_squared_distances(pred.points, ref.points),
                   nearest_squared_distances(ref.points, pred.points), tau)


def _fscore(d_pr: np.ndarray, d_rp: np.ndarray, tau: float) -> float:
    """F1 in percent from the squared nearest distances pred->ref and
    ref->pred."""
    precision = 100.0 * np.mean(d_pr <= tau)
    recall = 100.0 * np.mean(d_rp <= tau)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate_pair(pred: PointCloud, ref: PointCloud, seed: int = 0) -> PairReport:
    """Full report: CD x100, EMD x100, F1(tau), each taken after both clouds
    are normalized to [-1,1]^3. EMD is exact up to EXACT_EMD_LIMIT points
    and the auction above it. CD and F1 share one nearest-neighbour query
    each way."""
    pred = normalize_unit_cube(pred)
    ref = normalize_unit_cube(ref)
    emd_mode = "exact" if min(pred.count, ref.count) <= EXACT_EMD_LIMIT else "approx"
    emd_val, resampled = emd(pred, ref, mode=emd_mode, seed=seed)
    d_pr = nearest_squared_distances(pred.points, ref.points)
    d_rp = nearest_squared_distances(ref.points, pred.points)
    return PairReport(
        cd_scaled=_chamfer(d_pr, d_rp) * 100.0,
        emd_scaled=emd_val * 100.0,
        f1=_fscore(d_pr, d_rp, F1_TAU),
        n_pred=pred.count,
        n_ref=ref.count,
        emd_mode=emd_mode,
        resampled=resampled,
    )


def write_report_jsonl(path, rows: list[tuple[str, PairReport]]) -> dict:
    """One JSON object per pair, then a summary row of their means (rows
    must not be empty), written by checkpoint.replaced; returns the summary."""
    summary = {
        "id": "__summary__",
        "cd_scaled": float(np.mean([r.cd_scaled for _, r in rows])),
        "emd_scaled": float(np.mean([r.emd_scaled for _, r in rows])),
        "f1": float(np.mean([r.f1 for _, r in rows])),
        "n_pairs": len(rows),
    }
    with replaced(path, "w") as fh:
        for pair_id, rep in rows:
            obj = {"id": pair_id}
            obj.update(asdict(rep))
            fh.write(json.dumps(obj) + "\n")
        fh.write(json.dumps(summary) + "\n")
    return summary
