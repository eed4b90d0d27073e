import itertools
import json
import warnings

import numpy as np
import pytest
import scipy.spatial.distance
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from buildiff import datagen
from buildiff.geometry import PointCloud, normalize_unit_cube
from buildiff.metrics import (EXACT_EMD_LIMIT, PairReport, _auction_assignment,
                              chamfer, emd, evaluate_pair, fscore,
                              write_report_jsonl)


def brute_chamfer(a, b):
    total = 0.0
    for p in a:
        total += min(np.sum((p - q) ** 2) for q in b) / len(a)
    for q in b:
        total += min(np.sum((p - q) ** 2) for p in a) / len(b)
    return total


def brute_emd(a, b):
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        cost = np.mean([np.linalg.norm(a[i] - b[j]) for i, j in enumerate(perm)])
        best = min(best, cost)
    return best


def cloud(pts):
    return PointCloud(np.asarray(pts, dtype=float))


def reference_auction(cost):
    """The auction as first written, on benefit = -cost with argmax and
    max: every bid of `_auction_assignment` must match it bit for bit."""
    n = cost.shape[0]
    benefit = -cost
    span = float(cost.max() - cost.min()) or 1.0
    prices = np.zeros(n)
    eps = span / 2.0
    eps_final = span * 1e-4 / n
    assign = np.full(n, -1, dtype=np.int64)
    while True:
        assign[:] = -1
        owner = np.full(n, -1, dtype=np.int64)
        unassigned = list(range(n))
        while unassigned:
            i = unassigned.pop()
            values = benefit[i] - prices
            j = int(np.argmax(values))
            v1 = values[j]
            values[j] = -np.inf
            v2 = values.max()
            prices[j] += (v1 - v2) + eps
            prev = owner[j]
            owner[j] = i
            assign[i] = j
            if prev >= 0:
                assign[prev] = -1
                unassigned.append(prev)
        if eps <= eps_final:
            return assign
        eps = max(eps / 5.0, eps_final)


def assert_same_auction(cost):
    got = _auction_assignment(cost)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_auction(cost))


class TestChamfer:
    def test_identical_zero(self):
        rng = np.random.default_rng(0)
        c = cloud(rng.normal(size=(10, 3)))
        assert chamfer(c, c) == 0.0

    def test_two_singletons(self):
        assert chamfer(cloud([[0, 0, 0]]), cloud([[1, 0, 0]])) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer(cloud(np.zeros((0, 3))), cloud([[0, 0, 0]]))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 5000), na=st.integers(1, 16), nb=st.integers(1, 16))
    def test_matches_brute_force(self, seed, na, nb):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(na, 3))
        b = rng.normal(size=(nb, 3))
        assert chamfer(cloud(a), cloud(b)) == pytest.approx(
            brute_chamfer(a, b), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = cloud(rng.normal(size=(8, 3))), cloud(rng.normal(size=(5, 3)))
        assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-15)


class TestEMD:
    def test_identical_zero(self):
        rng = np.random.default_rng(2)
        c = cloud(rng.normal(size=(6, 3)))
        value, resampled = emd(c, c)
        assert value == 0.0 and not resampled

    def test_two_point_example(self):
        a = cloud([[0, 0, 0], [1, 0, 0]])
        b = cloud([[0.5, 0, 0], [1.5, 0, 0]])
        value, _ = emd(a, b)
        assert value == pytest.approx(0.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5000), n=st.integers(1, 8))
    def test_exact_matches_permutation_enumeration(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 3))
        value, _ = emd(cloud(a), cloud(b), mode="exact")
        assert value == pytest.approx(brute_emd(a, b), abs=1e-10)

    def test_unequal_counts_resamples(self):
        rng = np.random.default_rng(3)
        a = cloud(rng.normal(size=(10, 3)))
        b = cloud(rng.normal(size=(7, 3)))
        value, resampled = emd(a, b, seed=1)
        assert resampled and np.isfinite(value)

    def test_approx_within_two_percent_at_256(self):
        rng = np.random.default_rng(4)
        a = cloud(rng.uniform(-1, 1, size=(256, 3)))
        b = cloud(rng.uniform(-1, 1, size=(256, 3)))
        exact, _ = emd(a, b, mode="exact")
        approx, _ = emd(a, b, mode="approx")
        assert approx >= exact - 1e-9
        assert abs(approx - exact) / exact < 0.02

    def test_exact_size_limit(self):
        rng = np.random.default_rng(5)
        big = cloud(rng.normal(size=(EXACT_EMD_LIMIT + 1, 3)))
        with pytest.raises(ValueError, match="approx"):
            emd(big, big, mode="exact")

    @pytest.mark.parametrize("n_a, n_b, mode, match", [
        (EXACT_EMD_LIMIT + 1, EXACT_EMD_LIMIT + 7, "exact", "use approx"),
        (4, 4, "fast", "unknown emd mode"),
    ])
    def test_bad_arguments_rejected_before_cost_matrix(self, monkeypatch, n_a,
                                                       n_b, mode, match):
        def no_cdist(*args):
            raise AssertionError("cost matrix built before the checks")

        monkeypatch.setattr(scipy.spatial.distance, "cdist", no_cdist)
        rng = np.random.default_rng(11)
        a, b = cloud(rng.normal(size=(n_a, 3))), cloud(rng.normal(size=(n_b, 3)))
        with pytest.raises(ValueError, match=match):
            emd(a, b, mode=mode)

    @pytest.mark.parametrize("q", [[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    def test_approx_single_point_no_warning(self, q):
        p = cloud([[0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, resampled = emd(p, cloud([q]), mode="approx")
        assert value == float(np.linalg.norm(q)) and not resampled


class TestAuctionOracle:
    """`_auction_assignment` bids on cost + prices; the reference bids on
    -cost - prices. Each bid must pick the same column and set the same
    price, so the assignments are equal, not just close."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 64))
    def test_random_clouds(self, seed, n):
        rng = np.random.default_rng(seed)
        assert_same_auction(cdist(rng.normal(size=(n, 3)), rng.normal(size=(n, 3))))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 64))
    def test_integer_grid_ties(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=(n, 3)).astype(float)
        b = rng.integers(0, 3, size=(n, 3)).astype(float)
        assert_same_auction(cdist(a, b))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 64))
    def test_permuted_copy(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=(n, 3))
        assert_same_auction(cdist(a, a[rng.permutation(n)]))

    @pytest.mark.parametrize("value", [0.0, 0.75])
    def test_constant_cost(self, value):
        assert_same_auction(np.full((9, 9), value))

    def test_jittered_building_pair(self):
        # built as the benchmark's eval pairs are: two surface draws of one
        # building, the prediction jittered, both normalised
        rng = np.random.default_rng(2024)
        spec = datagen.random_spec(rng, "gable")
        mesh = datagen.generate_building(spec)
        ref = datagen.sample_surface(mesh, 512, seed=spec.seed)
        pred = datagen.sample_surface(mesh, 512, seed=spec.seed + 1).points
        pred = normalize_unit_cube(cloud(pred + rng.normal(0.0, 0.005, pred.shape)))
        assert_same_auction(cdist(pred.points, normalize_unit_cube(ref).points))


class TestFscore:
    def test_identical_is_100(self):
        rng = np.random.default_rng(6)
        c = cloud(rng.normal(size=(9, 3)))
        assert fscore(c, c, tau=1e-9) == 100.0

    def test_far_apart_is_0(self):
        a = cloud([[0, 0, 0]])
        b = cloud([[10, 0, 0]])
        assert fscore(a, b, tau=0.001) == 0.0

    def test_outlier_example(self):
        rng = np.random.default_rng(7)
        ref = rng.uniform(-1, 1, size=(9, 3))
        pred = np.vstack([ref, [50.0, 50.0, 50.0]])
        f1 = fscore(cloud(pred), cloud(ref), tau=0.001)
        # P=90, R=100 -> F1 = 2*90*100/190
        assert f1 == pytest.approx(2 * 90 * 100 / 190.0)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(8)
        a = cloud(rng.uniform(-1, 1, size=(32, 3)))
        b = cloud(rng.uniform(-1, 1, size=(32, 3)))
        taus = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        scores = [fscore(a, b, tau=t) for t in taus]
        assert scores == sorted(scores)

    def test_bad_tau(self):
        c = cloud([[0, 0, 0]])
        with pytest.raises(ValueError):
            fscore(c, c, tau=0.0)


class TestEvaluatePair:
    def test_identical_report(self):
        rng = np.random.default_rng(9)
        c = cloud(rng.uniform(-1, 1, size=(12, 3)))
        rep = evaluate_pair(c, c)
        assert (rep.cd_scaled, rep.emd_scaled, rep.f1) == (0.0, 0.0, 100.0)

    def test_two_point_scaling(self):
        a = cloud([[0, 0, 0], [1, 0, 0]])
        b = cloud([[0.5, 0, 0], [1.5, 0, 0]])
        assert emd(a, b)[0] * 100.0 == pytest.approx(50.0)

    def test_regression_fixture_stable(self):
        rng = np.random.default_rng(123)
        a = cloud(rng.uniform(-1, 1, size=(20, 3)))
        b = cloud(rng.uniform(-1, 1, size=(20, 3)))
        # frozen on first run; guards against accidental metric drift
        assert chamfer(a, b) * 100.0 == pytest.approx(44.2849031769423, rel=1e-9)
        assert emd(a, b)[0] * 100.0 == pytest.approx(61.18951296895562, rel=1e-9)
        assert fscore(a, b) == 0.0
        # the report is the same three metrics after unit-cube normalization
        r1 = evaluate_pair(a, b)
        r2 = evaluate_pair(a, b)
        assert (r1.cd_scaled, r1.emd_scaled, r1.f1) == \
            (r2.cd_scaled, r2.emd_scaled, r2.f1)
        na, nb = normalize_unit_cube(a), normalize_unit_cube(b)
        assert (r1.cd_scaled, r1.emd_scaled, r1.f1) == \
            (chamfer(na, nb) * 100.0, emd(na, nb)[0] * 100.0, fscore(na, nb))

    def test_two_nearest_neighbour_queries_per_pair(self, monkeypatch):
        """CD and F1 share one query each way: 2 k-d tree queries per
        pair, and the report equals the stand-alone metrics bit for bit."""
        from buildiff import geometry
        calls = []
        inner = geometry.nearest_indices

        def counting(a, b):
            calls.append((len(a), len(b)))
            return inner(a, b)

        monkeypatch.setattr(geometry, "nearest_indices", counting)
        rng = np.random.default_rng(11)
        ref = rng.uniform(-1, 1, size=(40, 3))
        pred = cloud(ref[:30] + rng.normal(size=(30, 3)) * 0.02)
        ref = cloud(ref)
        rep = evaluate_pair(pred, ref)
        assert calls == [(30, 40), (40, 30)]
        assert 0.0 < rep.f1 < 100.0
        na, nb = normalize_unit_cube(pred), normalize_unit_cube(ref)
        assert (rep.cd_scaled, rep.f1) == (chamfer(na, nb) * 100.0, fscore(na, nb))

    def test_normalizes_unnormalized_inputs(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(15, 3)) * 40.0 + 100.0
        rep = evaluate_pair(cloud(pts), cloud(pts))
        assert rep.cd_scaled == 0.0 and rep.f1 == 100.0


def test_report_jsonl_layout(tmp_path):
    rep = PairReport(cd_scaled=1.0, emd_scaled=2.0, f1=50.0, n_pred=4, n_ref=4)
    path = tmp_path / "report.jsonl"
    summary = write_report_jsonl(path, [("a", rep), ("b", rep)])
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["id"] == "a"
    assert lines[-1]["id"] == "__summary__"
    assert summary["cd_scaled"] == pytest.approx(1.0)
