import numpy as np
import pytest

from buildiff.schedule import (NoiseSchedule, lambda_weight,
                               linear_beta_schedule, sinusoidal_embedding)


class TestLinearBetaSchedule:
    def test_endpoints(self):
        sch = linear_beta_schedule(1000, 0.0001, 0.02)
        assert sch.betas[0] == pytest.approx(0.0001)
        assert sch.betas[999] == pytest.approx(0.02)

    def test_alpha_bar_first(self):
        sch = linear_beta_schedule(1000)
        assert sch.alpha_bar(1) == pytest.approx(0.9999)

    def test_variance_recursion_matches_closed_form(self):
        sch = linear_beta_schedule(1000)
        v = 0.0
        for t in range(1, 1001):
            v = sch.alpha(t) * v + sch.betas[t - 1]
            assert abs(v - (1.0 - sch.alpha_bar(t))) < 1e-12

    def test_alpha_bar_strictly_decreasing(self):
        sch = linear_beta_schedule(500)
        assert np.all(np.diff(sch.alpha_bars) < 0)

    def test_near_pure_noise_at_T(self):
        sch = linear_beta_schedule(1000)
        assert 1.0 - sch.alpha_bar(1000) > 0.99

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            linear_beta_schedule(100, 0.02, 0.0001)
        with pytest.raises(ValueError):
            linear_beta_schedule(1)

    def test_t_out_of_range(self):
        sch = linear_beta_schedule(10)
        with pytest.raises(ValueError):
            sch.alpha(0)
        with pytest.raises(ValueError):
            sch.alpha(11)

    def test_sigma_first_step_zero(self):
        for mode in ("large", "posterior"):
            sch = linear_beta_schedule(100, sigma_mode=mode)
            assert sch.sigma(1) == 0.0
            assert sch.sigma(2) > 0.0

    def test_posterior_sigma_below_large(self):
        large = linear_beta_schedule(100, sigma_mode="large")
        post = linear_beta_schedule(100, sigma_mode="posterior")
        for t in range(2, 101):
            assert post.sigma(t) <= large.sigma(t) + 1e-15


class TestLambdaWeight:
    @pytest.mark.parametrize("t,expected", [
        (1, 1.0), (2, 0.75), (250, 0.75), (251, 0.5), (500, 0.5),
        (501, 0.25), (750, 0.25), (751, 0.0), (1000, 0.0),
    ])
    def test_table_T1000(self, t, expected):
        assert lambda_weight(t, 1000) == expected

    def test_nonincreasing_five_plateaus(self):
        values = [lambda_weight(t, 1000) for t in range(1, 1001)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert sorted(set(values)) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_weight(0, 100)
        with pytest.raises(ValueError):
            lambda_weight(101, 100)


class TestSinusoidalEmbedding:
    def test_t_zero_alternates(self):
        emb = sinusoidal_embedding(0, 8)
        np.testing.assert_allclose(emb, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_range(self):
        for t in (1, 17, 999):
            emb = sinusoidal_embedding(t, 128)
            assert emb.min() >= -1.0 and emb.max() <= 1.0

    def test_adjacent_steps_differ(self):
        for t in (1, 100, 999):
            a = sinusoidal_embedding(t, 128)
            b = sinusoidal_embedding(t + 1, 128)
            assert np.linalg.norm(a - b) > 0.0

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_embedding(5, 7)


def test_schedule_is_immutable_enough():
    sch = linear_beta_schedule(10)
    before = sch.alpha_bars.copy()
    _ = NoiseSchedule(10, sch.betas.copy())
    np.testing.assert_array_equal(sch.alpha_bars, before)
