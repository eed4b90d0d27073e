import numpy as np
import pytest

from buildiff import tensor as T
from buildiff.denoiser import DenoiserConfig, init_denoiser_params, make_model
from buildiff.diffusion import (ancestral_step, forward_noise, guided_epsilon,
                                reconstruct_x0, sample_base, sample_upsampled)
from buildiff.geometry import PointCloud
from buildiff.schedule import linear_beta_schedule
from oracles import finite_diff_grad

SCH = linear_beta_schedule(100)


class TestForwardNoise:
    def test_zero_eps(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(16, 3))
        out = forward_noise(x0, 10, np.zeros_like(x0), SCH)
        np.testing.assert_allclose(out, np.sqrt(SCH.alpha_bar(10)) * x0)

    def test_near_T_is_mostly_noise(self):
        sch = linear_beta_schedule(1000)
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(512, 3))
        eps = rng.normal(size=(512, 3))
        out = forward_noise(x0, 1000, eps, sch)
        corr = np.corrcoef(out.ravel(), x0.ravel())[0, 1]
        assert abs(corr) < 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward_noise(np.zeros((4, 3)), 1, np.zeros((5, 3)), SCH)

    def test_distributional_moments(self):
        x0 = np.array([[0.3, -0.2, 0.7]])
        t = 40
        rng = np.random.default_rng(2)
        eps = rng.standard_normal((100_000, 3))
        out = forward_noise(np.repeat(x0, 100_000, axis=0), t, eps, SCH)
        ab = SCH.alpha_bar(t)
        np.testing.assert_allclose(out.mean(axis=0), np.sqrt(ab) * x0[0],
                                   atol=0.01 * np.sqrt(1 - ab) * 4)
        np.testing.assert_allclose(out.std(axis=0), np.sqrt(1 - ab), rtol=0.01)


class TestReconstruct:
    def test_inverts_forward(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x0 = rng.normal(size=(8, 3))
            eps = rng.normal(size=(8, 3))
            t = int(rng.integers(1, SCH.T + 1))
            back = reconstruct_x0(forward_noise(x0, t, eps, SCH), t, eps, SCH)
            assert np.abs(back - x0).max() < 1e-10

    def test_zero_eps_hat(self):
        rng = np.random.default_rng(4)
        xt = rng.normal(size=(5, 3))
        out = reconstruct_x0(xt, 7, np.zeros_like(xt), SCH)
        np.testing.assert_allclose(out, xt / np.sqrt(SCH.alpha_bar(7)))

    def test_diff_version_gradient(self):
        """Inside a Tape the gradient flows through eps_hat."""
        rng = np.random.default_rng(5)
        xt = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        eps_hat = rng.normal(size=(4, 3))

        def f(params):
            with T.Tape():
                x0h = reconstruct_x0(xt, 9, params[0], SCH)
                return T.mse(x0h, target).item()

        with T.Tape() as tape:
            x0h = reconstruct_x0(xt, 9, eps_hat, SCH)
            (ad,) = tape.backward(T.mse(x0h, target), [eps_hat])
        (fd,) = finite_diff_grad(f, [eps_hat], 1e-6)
        assert np.abs(ad - fd).max() / np.abs(fd).max() < 1e-6


class TestGuidance:
    def test_gamma_zero(self):
        rng = np.random.default_rng(6)
        c = rng.normal(size=(4, 3))
        u = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(guided_epsilon(c, u, 0.0), c)

    def test_equal_predictions(self):
        rng = np.random.default_rng(7)
        c = rng.normal(size=(4, 3))
        for gamma in (0.0, 1.0, 4.0, 10.0):
            np.testing.assert_allclose(guided_epsilon(c, c.copy(), gamma), c)

    def test_gamma_four_combination(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(4, 3))
        u = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(guided_epsilon(c, u, 4.0), 5.0 * c - 4.0 * u)


class TestAncestralStep:
    def test_t1_ignores_z(self):
        rng = np.random.default_rng(9)
        xt = rng.normal(size=(6, 3))
        eps = rng.normal(size=(6, 3))
        a = ancestral_step(xt, 1, eps, rng.normal(size=(6, 3)), SCH)
        b = ancestral_step(xt, 1, eps, None, SCH)
        np.testing.assert_array_equal(a, b)

    def test_zero_inputs(self):
        rng = np.random.default_rng(10)
        xt = rng.normal(size=(6, 3))
        out = ancestral_step(xt, 5, np.zeros_like(xt), np.zeros_like(xt), SCH)
        np.testing.assert_allclose(out, xt / np.sqrt(SCH.alpha(5)))

    def test_t_below_one(self):
        with pytest.raises(ValueError):
            ancestral_step(np.zeros((2, 3)), 0, np.zeros((2, 3)), None, SCH)


def analytic_point_mass_model(x0, K=0):
    """The exact noise of a point mass at x0, for rows K: of x_t."""
    def model(xt, t, z_I):
        ab = SCH.alpha_bar(t)
        return (xt[K:] - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab)
    return model


class TestSamplingLoops:
    def test_deterministic_given_seed(self):
        model = analytic_point_mass_model(np.array([0.1, 0.2, 0.3]))
        a = sample_base(model, None, 16, 0.0, seed=5, schedule=SCH)
        b = sample_base(model, None, 16, 0.0, seed=5, schedule=SCH)
        assert np.array_equal(a.points, b.points)

    def test_gamma_zero_single_call_identical(self):
        calls = []
        x0 = np.array([0.1, 0.2, 0.3])
        inner = analytic_point_mass_model(x0)

        def counting(xt, t, z_I, guided=False):
            calls.append((z_I is None, guided))
            eps = inner(xt, t, z_I)
            return (eps, inner(xt, t, None)) if guided else eps

        a = sample_base(counting, "cond", 8, 0.0, seed=1, schedule=SCH)
        # gamma=0: one plain conditional call per step, never the
        # unconditional branch
        assert calls == [(False, False)] * SCH.T
        calls.clear()
        b = sample_base(counting, "cond", 8, 4.0, seed=1, schedule=SCH)
        # gamma=4: one guided call per step returns both branches
        assert calls == [(False, True)] * SCH.T
        # eps_cond == eps_uncond for this model, so guidance is a no-op
        np.testing.assert_allclose(a.points, b.points)

    def test_point_mass_convergence(self):
        x0 = np.array([0.3, -0.5, 0.7])
        model = analytic_point_mass_model(x0)
        cloud = sample_base(model, None, 256, 0.0, seed=2, schedule=SCH)
        err = cloud.points - x0
        assert np.abs(err.mean(axis=0)).max() < 0.05
        assert err.std(axis=0).max() < 0.05

    def test_trace_recording(self):
        """on_step sees every step once, from T down to 1; the CLI's stride
        selection (every 25th step and the last, labelled t - 1) is taken
        from those calls."""
        model = analytic_point_mass_model(np.zeros(3))
        steps = []
        sample_base(model, None, 4, 0.0, seed=3, schedule=SCH,
                    on_step=lambda t, x: steps.append(t))
        assert steps == list(range(SCH.T, 0, -1))
        ts = [t - 1 for t in steps if t % 25 == 0 or t == 1]
        assert ts == [99, 74, 49, 24, 0]

    @pytest.mark.parametrize("gamma", [0.0, 4.0])
    def test_on_step_leaves_cloud_unchanged(self, gamma):
        """A chain with a callback returns the same cloud, bit for bit, as
        one without, and its last call sees that cloud's rows."""
        def model(xt, t, z_I, guided=False):
            eps = np.sin(xt + t)
            return (eps, np.cos(xt)) if guided else eps

        states = []
        plain = sample_base(model, None, 8, gamma, seed=6, schedule=SCH)
        traced = sample_base(model, None, 8, gamma, seed=6, schedule=SCH,
                             on_step=lambda t, x: states.append(x.copy()))
        assert np.array_equal(plain.points, traced.points)
        assert len(states) == SCH.T
        assert np.array_equal(states[-1], plain.points)

    def test_upsampler_first_k_bitwise(self):
        rng = np.random.default_rng(11)
        lowres = PointCloud(rng.normal(size=(16, 3)))
        model = analytic_point_mass_model(np.zeros(3), K=16)
        out = sample_upsampled(model, None, lowres, 48, 0.0, seed=4,
                               schedule=SCH)
        assert out.count == 48
        assert np.array_equal(out.points[:16], lowres.points)

    def test_upsampler_boundary_n_k_plus_one(self):
        rng = np.random.default_rng(12)
        lowres = PointCloud(rng.normal(size=(8, 3)))
        model = analytic_point_mass_model(np.zeros(3), K=8)
        out = sample_upsampled(model, None, lowres, 9, 0.0, seed=5,
                               schedule=SCH)
        assert out.count == 9

    def test_upsampler_rejects_small_n(self):
        lowres = PointCloud(np.zeros((8, 3)) + np.arange(8)[:, None])
        model = analytic_point_mass_model(np.zeros(3), K=8)
        with pytest.raises(ValueError):
            sample_upsampled(model, None, lowres, 8, 0.0, seed=0, schedule=SCH)

    @pytest.mark.parametrize("rows", [48, 31])
    def test_upsampler_rejects_model_of_other_shape(self, rows):
        """The model must return rows K: only; a full-row (N, 3) output
        or any other shape names the shape it got."""
        lowres = PointCloud(np.random.default_rng(13).normal(size=(16, 3)))

        def model(xt, t, z_I):
            return np.zeros((rows, 3))

        with pytest.raises(ValueError, match=rf"shape \({rows}, 3\).*want \(32, 3\)"):
            sample_upsampled(model, None, lowres, 48, 0.0, seed=0, schedule=SCH)

    def test_guided_model_of_other_shape(self):
        def model(xt, t, z_I, guided=False):
            return np.zeros((3, 3)), np.zeros((3, 3))

        with pytest.raises(ValueError, match=r"shape \(3, 3\).*want \(4, 3\)"):
            sample_base(model, None, 4, 4.0, seed=0, schedule=SCH)

    def test_nonfinite_model_aborts_with_step(self):
        def bad(xt, t, z_I):
            return np.full_like(xt, np.nan)

        with pytest.raises(FloatingPointError, match="t=100"):
            sample_base(bad, None, 4, 0.0, seed=0, schedule=SCH)


def upsampler_params():
    p = init_denoiser_params(DenoiserConfig(d=8, w1=6, w2=10, wd=12), seed=0)
    rng = np.random.default_rng(21)
    p["dec.out_w"][...] = rng.normal(size=p["dec.out_w"].shape) * 0.1
    p["dec.out_b"][...] = rng.normal(size=3) * 0.1
    return p


class TestUpsamplerChain:
    def test_trace_snapshots_hold_fixed_rows(self):
        """The fixed rows are never stepped: every snapshot starts with
        them, and the t=0 snapshot is the returned cloud bit for bit."""
        rng = np.random.default_rng(14)
        lowres = PointCloud(rng.normal(size=(16, 3)))
        sch = linear_beta_schedule(20)
        snapshots = []
        out = sample_upsampled(
            make_model(upsampler_params(), 16), rng.normal(size=8), lowres, 40,
            4.0, seed=3, schedule=sch,
            on_step=lambda t, x: snapshots.append((t - 1, x.copy())))
        assert [t for t, _ in snapshots] == list(range(19, -1, -1))
        for t, snap in snapshots:
            assert np.array_equal(snap[:16], lowres.points), t
        assert np.array_equal(snapshots[-1][1], out.points)

    def test_noisy_rows_match_full_decode_chain(self):
        """Decoding rows K: only and stepping only those rows gives the
        rows K: of a chain that decodes and steps all N rows and writes
        the fixed rows back before each call (the same RNG stream)."""
        p = upsampler_params()
        rng = np.random.default_rng(15)
        lowres = PointCloud(rng.normal(size=(16, 3)))
        z_I = rng.normal(size=8)
        sch = linear_beta_schedule(20)
        out = sample_upsampled(make_model(p, 16), z_I, lowres, 40, 4.0,
                               seed=7, schedule=sch)
        full = make_model(p)
        ref = np.random.default_rng(7)
        x = ref.standard_normal((40, 3))
        for t in range(sch.T, 0, -1):
            x[:16] = lowres.points
            eps = guided_epsilon(*full(x, t, z_I, guided=True), 4.0)
            z = ref.standard_normal((40, 3)) if t > 1 else None
            x = ancestral_step(x, t, eps, z, sch)
        np.testing.assert_allclose(out.points[16:], x[16:], rtol=0, atol=1e-12)
