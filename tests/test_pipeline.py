import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import buildiff.pipeline as P
from buildiff import tensor as T
from buildiff.checkpoint import CheckpointError, load_params
from buildiff.conditioner import init_ae_params, load_pgm
from buildiff.datagen import DatasetManifest, build_dataset
from buildiff.denoiser import (DenoiserConfig, denoise_graph,
                               init_denoiser_params)
from buildiff.diffusion import forward_noise, reconstruct_x0
from buildiff.geometry import (PointCloud, farthest_point_sample,
                               nearest_indices)
from buildiff.optim import AdamState, adam_step
from buildiff.pipeline import (StageDependencyError, StepLog, TrainConfig,
                               regularization_loss, run_training, sample_losses,
                               toy_config, train_step)
from buildiff.schedule import SIGMA_MODES, lambda_weight, linear_beta_schedule
from oracles import (finite_diff_grad, gather_rows_reference, plan_indices,
                     train_autoencoder_reference)

SCH = linear_beta_schedule(100)


def tiny_params(seed=0):
    p = init_denoiser_params(DenoiserConfig(d=8, w1=6, w2=10, wd=12), seed=seed)
    rng = np.random.default_rng(seed + 100)
    p["dec.out_w"][...] = rng.normal(size=p["dec.out_w"].shape) * 0.05
    return p


def embedding(seed=0, d=8):
    return np.random.default_rng(seed).normal(size=d)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(T=123, rho=0.5, sigma_mode="posterior", seed=9)
        cfg.save(tmp_path / "c.cfg")
        back = TrainConfig.load(tmp_path / "c.cfg")
        assert back == cfg

    def test_unknown_key_rejected(self, tmp_path):
        # gamma, once written into .config files, is as unknown as any other
        for line in ("bogus=1", "gamma=4.0"):
            (tmp_path / "c.cfg").write_text(line + "\n")
            key = line.partition("=")[0]
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                TrainConfig.load(tmp_path / "c.cfg")

    def test_comments_and_blanks_ignored(self, tmp_path):
        (tmp_path / "c.cfg").write_text("# comment\n\nT=55\n")
        assert TrainConfig.load(tmp_path / "c.cfg").T == 55

    def test_toy_preset_is_smaller(self):
        toy, full = toy_config(), TrainConfig()
        assert toy.T < full.T and toy.K < full.K and toy.d < full.d

    @pytest.mark.parametrize("key, value", [
        ("T", 1), ("T_upsampler", 1), ("beta_1", 0.5), ("beta_T", 1.0),
        ("sigma_mode", "big"), ("K", 0), ("K", 4096), ("N", 256), ("d", 7),
        ("d", 0), ("batch_size", 0), ("checkpoint_interval", 0),
        ("seed", -1), ("lr", float("nan")), ("lr", float("inf")), ("lr", -1.0),
        ("lr", 0.0), ("drop_prob", 1.5), ("drop_prob", -0.1),
        ("rho", float("nan")), ("rho", -1.0), ("epochs_ae", -3),
        ("epochs_base", -1), ("epochs_upsampler", -2), ("beta_1", 1e-300),
        ("beta_1", 5e-17), ("d", P.D_MAX + 2), ("d", 10**9), ("N", P.N_MAX + 1),
        ("N", 10**9), ("K", 10**9)])
    def test_bad_value_rejected_at_construction(self, key, value):
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            TrainConfig(**{key: value})
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            dataclasses.replace(toy_config(), **{key: value})

    def test_bad_line_names_source_and_key(self):
        with pytest.raises(ValueError, match=r"^src\.cfg: need 1 <= K < N, got K=4096"):
            TrainConfig().with_lines(["K=4096"], "src.cfg")
        with pytest.raises(ValueError, match=r"^--set: K='abc' is not a valid int"):
            TrainConfig().with_lines(["K=abc"], "--set")

    @pytest.mark.parametrize("key", ["T", "T_upsampler"])
    def test_steps_above_bound_rejected_without_building_a_schedule(
            self, monkeypatch, key):
        """A step count far beyond memory fails its check naming the key;
        no config check builds a noise schedule."""
        def no_schedule(*args):
            raise AssertionError("a config check built a noise schedule")

        monkeypatch.setattr(P, "linear_beta_schedule", no_schedule)
        cfg = TrainConfig().with_lines([f"{key}={P.T_MAX}"], "--set")
        assert getattr(cfg, key) == P.T_MAX
        with pytest.raises(ValueError, match=rf"^--set: need 2 <= {key} <= "
                                             rf"{P.T_MAX}, got 100000000000$"):
            TrainConfig().with_lines([f"{key}=100000000000"], "--set")

    def test_bounds_are_inclusive(self):
        """The largest d and N and the smallest beta_1 that the checks let
        through build a config; that beta_1 keeps alpha_bar below 1."""
        cfg = TrainConfig(d=P.D_MAX, N=P.N_MAX, beta_1=2.0**-53)
        assert (cfg.d, cfg.N) == (P.D_MAX, P.N_MAX)
        assert cfg.schedule("base").alpha_bar(1) < 1.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().K = 4096

    def test_schedule_per_stage(self):
        cfg = toy_config()
        for stage, T_stage in (("base", cfg.T), ("upsampler", cfg.T_upsampler)):
            want = linear_beta_schedule(T_stage, cfg.beta_1, cfg.beta_T,
                                        cfg.sigma_mode)
            got = cfg.schedule(stage)
            assert got.T == T_stage
            np.testing.assert_array_equal(got.betas, want.betas)
            np.testing.assert_array_equal(got.sigmas, want.sigmas)


def config_line(key):
    """`key=value` lines whose value is often of the key's type."""
    typed = {int: st.integers(-5, 2 * P.T_MAX), float: st.floats(),
             str: st.sampled_from(SIGMA_MODES)}[type(getattr(TrainConfig(), key))]
    return st.one_of(typed.map(str), st.text(max_size=12)).map(f"{key}=".__add__)


config_lines = st.one_of(
    st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)]).flatmap(config_line),
    st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(config_lines, max_size=4),
       base=st.sampled_from([TrainConfig(), toy_config()]))
def test_with_lines_gives_a_sound_config_or_a_named_error(lines, base, tmp_path_factory):
    """Any key=value lines give a config that saves, loads back equal and
    builds both schedules, or a ValueError naming the source."""
    try:
        cfg = base.with_lines(lines, "fuzz.cfg")
    except ValueError as exc:
        assert str(exc).startswith("fuzz.cfg: "), exc
        return
    path = tmp_path_factory.mktemp("cfg") / "c.cfg"
    cfg.save(path)
    assert TrainConfig.load(path) == cfg
    assert cfg.d <= P.D_MAX and cfg.K < cfg.N <= P.N_MAX
    for stage, steps in (("base", cfg.T), ("upsampler", cfg.T_upsampler)):
        assert 2 <= steps <= P.T_MAX
        assert cfg.schedule(stage).alpha_bar(1) < 1.0
        assert cfg.schedule(stage).T == steps


@pytest.fixture
def nn_query_rows(monkeypatch):
    """Counts the query rows the footprint loss sends to nearest_indices."""
    rows = [0]

    def counting(a, b):
        rows[0] += len(a)
        return nearest_indices(a, b)

    monkeypatch.setattr(P, "nearest_indices", counting)
    return rows


class TestRegularizationLoss:
    def test_lambda_zero_skips_nn_and_returns_zero(self, nn_query_rows):
        x0 = np.random.default_rng(0).normal(size=(8, 3))
        with T.Tape():
            hat = x0 + 1.0
            # T=100: lambda is 0 for t > 75
            out = regularization_loss(x0, hat, 90, SCH)
        assert out.item() == 0.0
        assert nn_query_rows[0] == 0

    def test_lambda_positive_counts_queries(self, nn_query_rows):
        x0 = np.random.default_rng(1).normal(size=(8, 3))
        with T.Tape():
            regularization_loss(x0, x0 + 0.1, 1, SCH)
        assert nn_query_rows[0] == 16

    def test_hand_example_unit_offset(self):
        # x0 on a line, prediction shifted by (1, 0, 0): footprint Chamfer is
        # 1 each way when the shift exceeds the point spacing ... use a single
        # point so the nearest neighbour is unambiguous: CD = 1 + 1 = 2.
        x0 = np.array([[0.0, 0.0, 5.0]])  # z is projected away
        with T.Tape():
            hat = np.array([[1.0, 0.0, -3.0]])
            out = regularization_loss(x0, hat, 1, SCH)
        assert out.item() == pytest.approx(2.0 * lambda_weight(1, SCH.T))

    def test_z_component_ignored(self):
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(6, 3))
        jig = x0.copy()
        jig[:, 2] += rng.normal(size=6) * 10
        with T.Tape():
            out = regularization_loss(x0, jig, 1, SCH)
        assert out.item() == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            with T.Tape():
                regularization_loss(np.zeros((4, 3)), np.zeros((5, 3)), 1, SCH)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_diverged_cloud_raises_before_nn_query(self, bad, nn_query_rows):
        """A NaN, an infinity or a coordinate whose squared distances
        overflow raises the training loss's FloatingPointError before the
        k-d tree sees it, not an IndexError from inside the query."""
        x0 = np.random.default_rng(4).normal(size=(8, 3))
        hat = x0.copy()
        hat[3, 0] = bad
        with T.Tape(), pytest.raises(FloatingPointError,
                                     match="non-finite training loss"):
            regularization_loss(x0, hat, 1, SCH)
        assert nn_query_rows[0] == 0

    @pytest.mark.parametrize("K", [0, 4])
    def test_diverged_training_cloud_raises_floating_point_error(self, K):
        """x0 = 1e300 everywhere reconstructs a finite cloud whose squared
        distances overflow; at lambda(t) > 0 its sample raises before the
        nearest-neighbour query."""
        x0 = np.full((12, 3), 1e300)
        with np.errstate(over="ignore"), T.Tape(), pytest.raises(
                FloatingPointError, match="non-finite training loss"):
            sample_losses(tiny_params(), x0, x0[:K], 1, np.zeros_like(x0),
                          embedding(), SCH)


class TestFullLossGradient:
    def test_matches_finite_differences(self):
        """Central-difference check of the complete training objective
        (noise MSE + weighted footprint Chamfer) on a miniature model."""
        params = tiny_params()
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(8, 3)) * 0.5
        eps = rng.normal(size=(8, 3))
        z = rng.normal(size=8)
        t = 10  # lambda(10, 100) = 0.75
        rho = 0.001
        xt = forward_noise(x0, t, eps, SCH)
        names = sorted(params)

        def loss_value(values):
            p = dict(zip(names, values))
            with T.Tape():
                eps_hat = denoise_graph(p, xt, t, z)
                L_eps = T.mse(eps, eps_hat)
                x0_hat = reconstruct_x0(xt, t, eps_hat, SCH)
                L_reg = regularization_loss(x0, x0_hat, t, SCH)
                return T.add(L_eps, T.scale(L_reg, rho)).item()

        with T.Tape() as tape:
            eps_hat = denoise_graph(params, xt, t, z)
            L_eps = T.mse(eps, eps_hat)
            x0_hat = reconstruct_x0(xt, t, eps_hat, SCH)
            L_reg = regularization_loss(x0, x0_hat, t, SCH)
            ad = tape.backward(T.add(L_eps, T.scale(L_reg, rho)),
                               [params[n] for n in names])

        fd = finite_diff_grad(loss_value, [params[n] for n in names], 1e-6)
        gmax = max(np.abs(g).max() for g in fd)
        for name, got, g in zip(names, ad, fd):
            assert np.abs(got - g).max() / gmax < 1e-6, name


class TestUpsamplerLosses:
    """sample_losses on an upsampler triple: x0 (N, 3) and its K-point FPS
    subset as the fixed rows."""

    @staticmethod
    def triple(N=256, K=64, seed=20):
        x0 = np.random.default_rng(seed).uniform(-1, 1, size=(N, 3))
        fixed = farthest_point_sample(PointCloud(x0), K, seed=1).points
        return x0, fixed

    def test_footprint_flat_in_t_at_perfect_noise(self, monkeypatch):
        """With eps_hat equal to the drawn noise the reconstructed rows are
        x0[K:] and the fixed rows enter clean, so L_reg / lambda(t) does
        not depend on t."""
        sch = linear_beta_schedule(500)
        x0, fixed = self.triple()
        K = len(fixed)
        eps = np.random.default_rng(21).standard_normal(x0.shape)
        monkeypatch.setattr(P, "denoise_graph",
                            lambda params, xt, t, z_I, K: eps[K:])
        chamfers = []
        for t in (10, 100, 300):
            with T.Tape():
                L_eps, L_reg = sample_losses(None, x0, fixed, t, eps, None, sch)
            assert L_eps.item() == 0.0
            chamfers.append(L_reg.item() / lambda_weight(t, sch.T))
        assert max(chamfers) < 0.01
        np.testing.assert_allclose(chamfers, chamfers[0], rtol=1e-9)

    def test_no_footprint_graph_when_lambda_zero(self, recorded_ops):
        """At lambda(t) = 0 nothing past the noise MSE is recorded."""
        x0, fixed = self.triple(N=12, K=4)
        eps = np.random.default_rng(22).standard_normal(x0.shape)
        z = embedding(2)
        with T.Tape():
            denoise_graph(tiny_params(), x0, 90, z, K=4)
        n_denoise = recorded_ops()
        with T.Tape():
            _, L_reg = sample_losses(tiny_params(), x0, fixed, 90, eps, z, SCH)
        assert L_reg.item() == 0.0
        # the denoiser call and the noise MSE
        assert recorded_ops() - n_denoise == n_denoise + 1

    def test_shift_plan_bitwise_equal_to_reference_gather(self, monkeypatch):
        """Both losses and every gradient of an upsampler sample with a
        footprint term equal those made through the gather as it stood
        before plans (tests/oracles.py); the shift-by-K plan is built once
        per (N, K)."""
        params = tiny_params()
        x0, fixed = self.triple(N=40, K=12, seed=25)
        eps = np.random.default_rng(26).standard_normal(x0.shape)
        z = embedding(4)
        names = sorted(params)

        def run():
            with T.Tape() as tape:
                L_eps, L_reg = sample_losses(params, x0, fixed, 10, eps, z, SCH)
                grads = tape.backward(T.add(L_eps, L_reg),
                                      [params[n] for n in names])
            return [L_eps, L_reg, *grads]

        P._shift_plan.cache_clear()
        planned = run()
        run()
        assert P._shift_plan.cache_info().misses == 1
        calls = []

        def reference(a, rows):
            calls.append(rows)
            return gather_rows_reference(a, plan_indices(rows))

        monkeypatch.setattr(T, "gather_rows", reference)
        want = run()
        # the shift and the footprint's nearest-neighbour gather
        assert len(calls) == 2
        for got, ref in zip(planned, want, strict=True):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("t", [10, 60])
    def test_gradient_matches_finite_differences(self, t):
        """The complete objective L_eps + L_reg of an upsampler sample, at
        t=10 (lambda 0.75) and t=60 (lambda 0.25)."""
        params = tiny_params()
        x0, fixed = self.triple(N=10, K=3, seed=23)
        x0 *= 0.5
        fixed *= 0.5
        eps = np.random.default_rng(24).standard_normal(x0.shape)
        z = embedding(3)
        names = sorted(params)

        def loss_value(values):
            with T.Tape():
                L_eps, L_reg = sample_losses(dict(zip(names, values)), x0,
                                             fixed, t, eps, z, SCH)
                return T.add(L_eps, L_reg).item()

        with T.Tape() as tape:
            L_eps, L_reg = sample_losses(params, x0, fixed, t, eps, z, SCH)
            assert L_reg.item() > 0.0
            ad = tape.backward(T.add(L_eps, L_reg), [params[n] for n in names])
        fd = finite_diff_grad(loss_value, [params[n] for n in names], 1e-6)
        gmax = max(np.abs(g).max() for g in fd)
        for name, got, g in zip(names, ad, fd):
            assert np.abs(got - g).max() / gmax < 1e-6, name


class TestTrainSteps:
    def test_base_step_returns_finite_log(self):
        params = tiny_params()
        state = AdamState(params, lr=1e-3)
        rng = np.random.default_rng(4)
        x0s = [rng.normal(size=(12, 3)) for _ in range(3)]
        batch = [(x0, x0[:0], embedding(i)) for i, x0 in enumerate(x0s)]
        log = train_step(params, state, batch, TrainConfig(d=8), SCH, rng)
        assert isinstance(log, StepLog)
        assert np.isfinite(log.L_theta)
        assert log.L_theta == pytest.approx(log.L_eps + 0.001 * log.L_reg)
        assert len(log.t_drawn) == len(log.dropped) == 3
        assert all(1 <= t <= 100 for t in log.t_drawn)
        assert log.lambda_drawn == [lambda_weight(t, 100) for t in log.t_drawn]

    def test_base_step_changes_params(self):
        params = tiny_params()
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState(params, lr=1e-3)
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(12, 3))
        train_step(params, state, [(x0, x0[:0], embedding(0))],
                   TrainConfig(d=8), SCH, rng)
        moved = sum(np.abs(params[k] - before[k]).max() > 0 for k in params)
        assert moved > len(params) // 2

    def test_empty_batch(self):
        params = tiny_params()
        state = AdamState(params, lr=1e-3)
        with pytest.raises(ValueError):
            train_step(params, state, [], TrainConfig(d=8), SCH,
                       np.random.default_rng(0))

    def test_drop_frequency(self):
        """Classifier-free drop decisions over many samples sit near the
        configured probability (0.1 +- 0.01 over 10^4 draws)."""
        params = tiny_params()
        state = AdamState(params, lr=1e-6)
        rng = np.random.default_rng(6)
        cfg = TrainConfig(d=8, drop_prob=0.1)
        dropped = 0
        total = 0
        x0s = [rng.normal(size=(6, 3)) for _ in range(8)]
        while total < 10_000:
            x0 = x0s[total % 8]
            batch = [(x0, x0[:0], embedding(total % 8)) for _ in range(8)]
            log = train_step(params, state, batch, cfg, SCH, rng)
            dropped += sum(log.dropped)
            total += len(log.dropped)
        assert abs(dropped / total - 0.1) <= 0.01

    def test_unreached_parameter_gets_zero_gradient(self):
        """null_embed is not reached on a step without a drop: Adam must see
        a zero gradient there, not the previous (dropped) step's."""
        params = tiny_params()
        state = AdamState(params, lr=1e-3)
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=(6, 3))
        cfg = TrainConfig(d=8, drop_prob=0.0)
        train_step(params, state, [(x0, x0[:0], embedding(0))],
                   dataclasses.replace(cfg, drop_prob=1.0), SCH, rng)
        m_dropped = state.m["null_embed"].copy()
        v_dropped = state.v["null_embed"].copy()
        assert np.abs(m_dropped).max() > 0
        train_step(params, state, [(x0, x0[:0], embedding(0))], cfg, SCH, rng)
        assert np.array_equal(state.m["null_embed"], 0.9 * m_dropped)
        assert np.array_equal(state.v["null_embed"], 0.999 * v_dropped)

    def test_upsampler_step_masks_conditioning_rows(self):
        """The first K rows of x_t are the clean fixed rows, and the noise
        loss covers rows K..N only: L_eps equals the MSE over those rows
        of a replayed denoiser call. K=0 is the base stage."""
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(12, 3))
        emb = embedding(1)
        cfg = TrainConfig(d=8, rho=0.0, drop_prob=0.0)
        for K in (4, 0):
            fixed = x0[:K].copy()
            params = tiny_params(seed=1)
            log = train_step(params, AdamState(params, lr=1e-6), [(x0, fixed, emb)],
                             cfg, SCH, np.random.default_rng(99))

            replay = np.random.default_rng(99)
            t = int(replay.integers(1, SCH.T + 1))
            eps = replay.standard_normal(x0.shape)
            xt = forward_noise(x0, t, eps, SCH)
            xt[:K] = fixed
            eps_hat = denoise_graph(tiny_params(seed=1), xt, t, emb)
            expected = np.mean((eps[K:] - eps_hat[K:]) ** 2)
            assert log.t_drawn == [t]
            assert log.L_eps == pytest.approx(expected, rel=1e-12, abs=0), K

    def test_upsampler_rejects_n_le_k(self):
        params = tiny_params()
        state = AdamState(params, lr=1e-3)
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(4, 3))
        with pytest.raises(ValueError):
            train_step(params, state, [(x0, x0.copy(), embedding(0))],
                       TrainConfig(d=8), SCH, rng)

    def test_step_log_json(self):
        log = StepLog(epoch=1, step=2, L_eps=0.5, L_reg=0.25, L_theta=0.50025,
                      t_drawn=[3], lambda_drawn=[0.75], dropped=[False])
        import json
        back = json.loads(log.to_json())
        assert back["epoch"] == 1 and back["dropped"] == [False]


def one_tape_step(params, state, batch, config, schedule, rng):
    """The reference train_step: every sample recorded on one tape, whose
    batch loss is walked backward once before Adam steps."""
    ts, lams, drops = [], [], []
    with T.Tape() as tape:
        eps_terms, reg_terms = [], []
        for x0, fixed, emb in batch:
            t = int(rng.integers(1, schedule.T + 1))
            eps = rng.standard_normal(x0.shape)
            dropped = bool(rng.random() < config.drop_prob)
            L_eps, L_reg = sample_losses(params, x0, fixed, t, eps,
                                         None if dropped else emb, schedule)
            eps_terms.append(L_eps)
            reg_terms.append(L_reg)
            ts.append(t)
            lams.append(lambda_weight(t, schedule.T))
            drops.append(dropped)
        inv = 1.0 / len(batch)
        L_eps, L_reg = eps_terms[0], reg_terms[0]
        for e, r in zip(eps_terms[1:], reg_terms[1:]):
            L_eps, L_reg = T.add(L_eps, e), T.add(L_reg, r)
        L_eps, L_reg = T.scale(L_eps, inv), T.scale(L_reg, inv)
        loss = T.add(L_eps, T.scale(L_reg, config.rho))
        grads = tape.backward(loss, list(params.values()))
    adam_step(state, params, grads)
    return StepLog(epoch=0, step=0, L_eps=L_eps.item(), L_reg=L_reg.item(),
                   L_theta=loss.item(), t_drawn=ts, lambda_drawn=lams,
                   dropped=drops)


def step_batch(K, B, seed=30):
    """B triples of 12-row clouds with K fixed rows (K=0: base stage)."""
    rng = np.random.default_rng(seed)
    x0s = [rng.normal(size=(12, 3)) * 0.5 for _ in range(B)]
    return [(x0, x0[:K].copy(), embedding(i)) for i, x0 in enumerate(x0s)]


class TestPerSampleWalks:
    """train_step walks each sample's tape backward as soon as its losses
    exist; Adam must see the gradients of the one-tape batch walk."""

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("K", [0, 4])
    def test_bitwise_equal_to_one_tape_step(self, K, B):
        cfg = TrainConfig(d=8, drop_prob=0.3, rho=0.01)
        batch = step_batch(K, B)
        params, ref_params = tiny_params(), tiny_params()
        state, ref_state = AdamState(params, lr=1e-3), AdamState(ref_params, lr=1e-3)
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        logs = []
        for _ in range(12):
            log = train_step(params, state, batch, cfg, SCH, rng)
            assert log == one_tape_step(ref_params, ref_state, batch, cfg, SCH,
                                        ref_rng)
            for name in params:
                for got, want in ((params, ref_params), (state.m, ref_state.m),
                                  (state.v, ref_state.v)):
                    assert np.array_equal(got[name], want[name]), name
            logs.append(log)
        assert state.step_count == ref_state.step_count == 12
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # the steps drew dropped and kept samples, at lambda 0 and lambda > 0
        assert {d for log in logs for d in log.dropped} == {True, False}
        assert {v > 0 for log in logs for v in log.lambda_drawn} == {True, False}
        if B > 1:  # and some batch mixed each pair
            assert any(len(set(log.dropped)) == 2 for log in logs)
            assert any(len({v > 0 for v in log.lambda_drawn}) == 2 for log in logs)

    @pytest.mark.parametrize("K", [0, 4])
    def test_one_walk_per_sample_over_its_own_entries(self, K, monkeypatch):
        """A step of batch B makes B walks, last sample first, each over
        one sample's graph and its seed L_eps / B + (rho / B) L_reg."""
        walks = []
        backward = T.Tape.backward

        def counted(tape, *args):
            walks.append(len(tape.entries))
            return backward(tape, *args)

        batch = step_batch(K, 3)
        cfg = TrainConfig(d=8, drop_prob=0.5)
        params = tiny_params()
        monkeypatch.setattr(T.Tape, "backward", counted)
        log = train_step(params, AdamState(params, lr=1e-3), batch, cfg, SCH,
                         np.random.default_rng(32))
        monkeypatch.undo()
        want = []
        for (x0, fixed, emb), t, dropped in zip(batch, log.t_drawn, log.dropped):
            with T.Tape() as tape:
                sample_losses(params, x0, fixed, t, np.zeros_like(x0),
                              None if dropped else emb, SCH)
            want.append(len(tape.entries) + 3)  # two scales and their add
        assert walks == want[::-1]

    def test_non_finite_loss_leaves_state_untouched(self, monkeypatch):
        """A sample whose loss is infinite makes the step raise before Adam:
        the params, both moments and the step count stay as they were."""
        batch = step_batch(0, 3)
        params = tiny_params()
        state = AdamState(params, lr=1e-3)
        train_step(params, state, batch, TrainConfig(d=8), SCH,
                   np.random.default_rng(33))
        before = [{k: d[k].copy() for k in params}
                  for d in (params, state.m, state.v)]

        def overflowing(params, x0, *args):
            L_eps, L_reg = sample_losses(params, x0, *args)
            return (T.scale(L_eps, np.inf) if x0 is batch[1][0] else L_eps), L_reg

        monkeypatch.setattr(P, "sample_losses", overflowing)
        # the walks run before the check, on infinite seeds
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            train_step(params, state, batch, TrainConfig(d=8), SCH,
                       np.random.default_rng(34))
        for snapshot, now in zip(before, (params, state.m, state.v)):
            for k in params:
                assert np.array_equal(now[k], snapshot[k]), k
        assert state.step_count == 1


@pytest.mark.parametrize("t", [90, 2], ids=["lambda-0", "lambda-0.75"])
def test_sample_graph_holds_only_the_activations(t):
    """Bytes an upsampler-shaped sample (N=1024, K=256, paper widths) holds
    after its forward pass: the four leaky-ReLU outputs at N or N - K rows
    that the backward reads, plus under 512 KB of small arrays and entries.
    Keeping a pre-activation (at least 512 KB here) or copying the cut
    h[K:] (768 KB) again breaks the bound."""
    N, K, cfg = 1024, 256, DenoiserConfig()
    params = init_denoiser_params(cfg, seed=0)
    rng = np.random.default_rng(40)
    x0, eps = rng.uniform(-1, 1, size=(N, 3)), rng.normal(size=(N, 3))
    emb = rng.normal(size=cfg.d)
    activations = 8 * (N * cfg.w1 + N * cfg.w2 + 2 * (N - K) * cfg.wd)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with T.Tape() as tape:  # bound, so the graph outlives the block
            sample_losses(params, x0, x0[:K], t, eps, emb, SCH)
        held = tracemalloc.get_traced_memory()[0] - before
        assert tape.entries
    finally:
        tracemalloc.stop()
    assert activations <= held < activations + 2 ** 19


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    build_dataset(root, n_train=4, n_test=2, n_points=96, resolution=16, seed=0)
    return root


def tiny_train_config():
    return TrainConfig(T=10, T_upsampler=8, K=16, N=32, d=8, epochs_ae=2,
                       epochs_base=2, epochs_upsampler=1, batch_size=2,
                       checkpoint_interval=1, seed=0)


class TestRunTraining:
    def test_stage_ordering_enforced(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config()
        with pytest.raises(StageDependencyError):
            run_training(tiny_dataset, cfg, "base", tmp_path / "ck")
        with pytest.raises(StageDependencyError):
            run_training(tiny_dataset, cfg, "upsampler", tmp_path / "ck")

    def test_unknown_stage(self, tiny_dataset, tmp_path):
        with pytest.raises(ValueError):
            run_training(tiny_dataset, tiny_train_config(), "refiner", tmp_path)

    def test_full_sequence_and_resume_bitwise(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config()

        # straight-through run
        a_dir = tmp_path / "a"
        run_training(tiny_dataset, cfg, "autoencoder", a_dir)
        run_training(tiny_dataset, cfg, "base", a_dir)
        run_training(tiny_dataset, cfg, "upsampler", a_dir)

        # interrupted run: stop the base stage after epoch 1, then resume
        b_dir = tmp_path / "b"
        run_training(tiny_dataset, cfg, "autoencoder", b_dir)
        half = dataclasses.replace(cfg, epochs_base=1)
        run_training(tiny_dataset, half, "base", b_dir)
        run_training(tiny_dataset, cfg, "base", b_dir, resume=True)

        blob_a = load_params(a_dir / "base.bdif")
        blob_b = load_params(b_dir / "base.bdif")
        assert sorted(blob_a) == sorted(blob_b)
        for k in blob_a:
            np.testing.assert_array_equal(blob_a[k], blob_b[k])

    def test_resumed_log_continues_step_count(self, tiny_dataset, tmp_path):
        import json
        cfg = tiny_train_config()

        def logged(out_dir):
            lines = (out_dir / "base.log.jsonl").read_text().splitlines()
            return [(r["epoch"], r["step"]) for r in map(json.loads, lines)]

        run_training(tiny_dataset, cfg, "autoencoder", tmp_path / "a")
        run_training(tiny_dataset, cfg, "base", tmp_path / "a")
        run_training(tiny_dataset, cfg, "autoencoder", tmp_path / "b")
        run_training(tiny_dataset, dataclasses.replace(cfg, epochs_base=1),
                     "base", tmp_path / "b")
        run_training(tiny_dataset, cfg, "base", tmp_path / "b", resume=True)
        assert logged(tmp_path / "b") == logged(tmp_path / "a")
        assert [s for _, s in logged(tmp_path / "a")] == [0, 1, 2, 3]

    def test_fresh_run_truncates_log(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config()
        run_training(tiny_dataset, cfg, "autoencoder", tmp_path)
        run_training(tiny_dataset, cfg, "base", tmp_path)
        first = (tmp_path / "base.log.jsonl").read_bytes()
        run_training(tiny_dataset, cfg, "base", tmp_path)
        assert (tmp_path / "base.log.jsonl").read_bytes() == first

    @pytest.mark.parametrize("killed_at", [2, 4])
    def test_run_killed_mid_epoch_resumes_to_straight_log(
            self, tiny_dataset, tmp_path, monkeypatch, killed_at):
        """A run killed at its n-th step (4 steps, 2 per epoch, a checkpoint
        after each epoch), then resumed, leaves the log and checkpoint of a
        straight run: the lines logged after the last checkpoint are
        dropped, and with no checkpoint yet the run starts afresh."""
        cfg = tiny_train_config()
        for d in ("a", "b"):
            run_training(tiny_dataset, cfg, "autoencoder", tmp_path / d)
        run_training(tiny_dataset, cfg, "base", tmp_path / "a")

        calls = 0
        step = P.train_step

        def killed(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == killed_at:
                raise KeyboardInterrupt
            return step(*args, **kwargs)

        monkeypatch.setattr(P, "train_step", killed)
        with pytest.raises(KeyboardInterrupt):
            run_training(tiny_dataset, cfg, "base", tmp_path / "b")
        monkeypatch.undo()
        b = tmp_path / "b"
        assert (b / "base.config").read_bytes() == (tmp_path / "a" / "base.config").read_bytes()
        assert (b / "base.bdif").exists() == (killed_at > 2)
        assert len((b / "base.log.jsonl").read_text().splitlines()) == killed_at - 1
        run_training(tiny_dataset, cfg, "base", b, resume=True)
        for name in ("base.log.jsonl", "base.bdif", "base.config"):
            assert (b / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), name

    @pytest.mark.parametrize("killed_at", [2, 3])
    def test_autoencoder_killed_then_resumed_is_straight_run(
            self, tiny_dataset, tmp_path, monkeypatch, killed_at):
        """The auto-encoder logs one step per epoch and checkpoints as the
        diffusion stages do: a run killed in its 2nd or 3rd epoch, then
        resumed, leaves the checkpoint, log and config of a straight run."""
        cfg = dataclasses.replace(tiny_train_config(), epochs_ae=3)
        run_training(tiny_dataset, cfg, "autoencoder", tmp_path / "a")
        calls = 0
        epoch = P.train_autoencoder

        def killed(*args):
            nonlocal calls
            calls += 1
            if calls == killed_at:
                raise KeyboardInterrupt
            return epoch(*args)

        monkeypatch.setattr(P, "train_autoencoder", killed)
        with pytest.raises(KeyboardInterrupt):
            run_training(tiny_dataset, cfg, "autoencoder", tmp_path / "b")
        monkeypatch.undo()
        b = tmp_path / "b"
        assert load_params(b / "autoencoder.bdif")["opt.epoch"] == killed_at - 1
        run_training(tiny_dataset, cfg, "autoencoder", b, resume=True)
        for name in ("autoencoder.bdif", "autoencoder.log.jsonl", "autoencoder.config"):
            assert (b / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), name

    def test_autoencoder_matches_reference_loop(self, tiny_dataset, tmp_path):
        """The auto-encoder's model records are bitwise those of its own
        loop before it ran through run_training; its training state adds
        Adam's moments, one Adam step per image, and the RNG state."""
        cfg = dataclasses.replace(tiny_train_config(), epochs_ae=3, seed=4)
        run_training(tiny_dataset, cfg, "autoencoder", tmp_path)
        images = [load_pgm(tiny_dataset / e["silhouette"]) for e in
                  DatasetManifest.load(tiny_dataset / "manifest.json").entries
                  if e["split"] == "train"]
        want = train_autoencoder_reference(images, epochs=3, lr=cfg.lr, d=cfg.d,
                                           seed=cfg.seed)
        blob = load_params(tmp_path / "autoencoder.bdif")
        assert list(P.model_params(blob)) == list(want)
        for name, value in want.items():
            assert blob[name].tobytes() == value.tobytes(), name
        assert blob["opt.step"] == 3 * len(images) and blob["opt.epoch"] == 3
        assert "opt.rng" in blob and f"opt.m.{name}" in blob

    def test_autoencoder_logs_each_epoch_mean(self, tiny_dataset, tmp_path):
        import json
        cfg = dataclasses.replace(tiny_train_config(), epochs_ae=3)
        seen = []
        run_training(tiny_dataset, cfg, "autoencoder", tmp_path,
                     log_fn=lambda epoch, loss: seen.append((epoch, loss)))
        lines = [json.loads(line) for line in
                 (tmp_path / "autoencoder.log.jsonl").read_text().splitlines()]
        assert lines == [{"epoch": e, "step": e, "L_ae": loss} for e, loss in seen]
        assert [e for e, _ in seen] == [0, 1, 2]

    def test_empty_train_split_names_manifest(self, tiny_dataset, tmp_path):
        """The diffusion stages refuse an empty train split as the
        auto-encoder does, rather than save an untrained checkpoint."""
        manifest = DatasetManifest.load(tiny_dataset / "manifest.json")
        manifest.entries = [e for e in manifest.entries if e["split"] == "test"]
        manifest.save(tmp_path / "manifest.json")
        ck = tmp_path / "ck"
        run_training(tiny_dataset, tiny_train_config(), "autoencoder", ck)
        with pytest.raises(ValueError, match=r"manifest\.json: no 'train' entries"):
            run_training(tmp_path, tiny_train_config(), "base", ck)
        assert not (ck / "base.bdif").exists()

    @pytest.mark.parametrize("stage, name", [("autoencoder", "train_autoencoder"),
                                             ("base", "train_step")])
    @pytest.mark.parametrize("diverge_at", [1, 3])
    def test_diverged_step_names_stage_epoch_step_and_checkpoint(
            self, tiny_dataset, tmp_path, monkeypatch, stage, name, diverge_at):
        """A step's FloatingPointError comes back naming the stage, the
        epoch, the step and the checkpoint the run left, or none; that
        checkpoint stays as it was saved."""
        cfg = dataclasses.replace(tiny_train_config(), epochs_ae=4)
        if stage == "base":
            run_training(tiny_dataset, cfg, "autoencoder", tmp_path)
        calls = 0
        step = getattr(P, name)

        def diverging(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == diverge_at:
                raise FloatingPointError("non-finite training loss")
            return step(*args, **kwargs)

        monkeypatch.setattr(P, name, diverging)
        ckpt = tmp_path / f"{stage}.bdif"
        # an auto-encoder step is an epoch; a base epoch has 2 steps
        epoch = (diverge_at - 1) // (1 if stage == "autoencoder" else 2)
        left = f"{ckpt} at epoch {epoch}" if epoch else "none"
        with pytest.raises(FloatingPointError) as exc:
            run_training(tiny_dataset, cfg, stage, tmp_path)
        assert str(exc.value) == (f"{stage} stage, epoch {epoch}, step {diverge_at - 1}: "
                                  f"non-finite training loss; checkpoint: {left}")
        assert ckpt.exists() == bool(epoch)
        if epoch:
            assert load_params(ckpt)["opt.epoch"] == epoch

    def test_rng_record_round_trips(self):
        """opt.rng holds a PCG64 state exactly, a buffered 32-bit half
        included: the rebuilt generator draws bitwise what the saved one
        would have."""
        params = tiny_params()
        state = AdamState(params, lr=1e-3)
        rng = np.random.default_rng(123)
        rng.integers(0, 2 ** 32, size=3, dtype=np.uint32)  # leaves has_uint32=1
        assert rng.bit_generator.state["has_uint32"] == 1
        words = P._training_blob(params, state, 0, rng)["opt.rng"]
        assert words.shape == (10,)
        back = P._rng_from_record("p.bdif", words)
        assert back.bit_generator.state == rng.bit_generator.state
        for draw in (lambda g: g.integers(0, 2 ** 32, size=5, dtype=np.uint32),
                     lambda g: g.standard_normal(7), lambda g: g.permutation(9)):
            assert draw(back).tobytes() == draw(rng).tobytes()

    @pytest.mark.parametrize("word", [0.5, -1.0, 2.0 ** 32, np.nan])
    def test_rng_record_word_not_32_bit_raises(self, word):
        words = P._training_blob({}, AdamState({}, lr=1e-3), 0,
                                 np.random.default_rng(0))["opt.rng"]
        words[3] = word
        with pytest.raises(CheckpointError,
                           match=rf"p\.bdif: record 'opt\.rng' holds {word}, not a 32-bit"):
            P._rng_from_record("p.bdif", words)

    def test_prepare_data_triples(self, tiny_dataset):
        """Both stages' data are train_step triples over the same buildings:
        the base stage has no fixed rows, and the upsampler's fixed rows
        are the K-point FPS subset of its x0."""
        cfg = tiny_train_config()
        ae = init_ae_params(cfg.d, 16, seed=0)
        training = P._training_silhouettes(tiny_dataset)
        base = P.prepare_base_data(training, cfg, ae)
        up = P.prepare_upsampler_data(training, cfg, ae)
        assert len(base) == len(up) == 4
        for (xb, fb, eb), (xu, fu, eu) in zip(base, up):
            assert xb.shape == (cfg.K, 3) and fb.shape == (0, 3)
            assert xu.shape == (cfg.N, 3)
            fps = farthest_point_sample(PointCloud(xu), cfg.K, seed=cfg.seed + 1)
            np.testing.assert_array_equal(fu, fps.points)
            np.testing.assert_array_equal(eb, eu)

    def test_cloud_smaller_than_stage_draw(self, tiny_dataset):
        """A stage that draws more rows than a cloud has names the cloud
        file and both counts (the tiny clouds have 96 points)."""
        cfg = dataclasses.replace(tiny_train_config(), K=100, N=200)
        ae = init_ae_params(cfg.d, 16, seed=0)
        training = P._training_silhouettes(tiny_dataset)
        with pytest.raises(ValueError, match=r"\.bpc has 96 points, fewer than the 100 "):
            P.prepare_base_data(training, cfg, ae)
        with pytest.raises(ValueError, match=r"\.bpc has 96 points, fewer than the 200 "):
            P.prepare_upsampler_data(training, cfg, ae)

    def test_base_stage_reads_each_silhouette_once(self, tiny_dataset, tmp_path,
                                                   monkeypatch):
        """The silhouettes checked before a stage starts are the ones its
        data is encoded from: each training PGM is read once per run."""
        cfg = dataclasses.replace(tiny_train_config(), epochs_ae=1, epochs_base=1)
        run_training(tiny_dataset, cfg, "autoencoder", tmp_path)
        reads = []

        def counted(path):
            reads.append(str(path))
            return load_pgm(path)
        monkeypatch.setattr(P, "load_pgm", counted)
        run_training(tiny_dataset, cfg, "base", tmp_path)
        assert len(reads) == 4 and len(set(reads)) == 4

    def test_lock_prevents_concurrent_runs(self, tiny_dataset, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").touch()
        with pytest.raises(FileExistsError, match="locked"):
            run_training(tiny_dataset, tiny_train_config(), "autoencoder", out)

    @pytest.mark.parametrize("owner", ["running", "exited", "no-pid"])
    def test_lock_names_its_owner_and_stays(self, tiny_dataset, tmp_path, owner):
        """A locked directory is refused with the owner's pid and whether it
        still runs; the lock is never deleted, even a dead owner's."""
        if owner == "running":
            pid, want = os.getpid(), f"pid {os.getpid()}, which is still running"
        elif owner == "exited":
            done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                                  capture_output=True, text=True, check=True)
            pid = int(done.stdout)
            want = f"pid {pid}, which no longer runs"
        else:
            pid, want = "", "a run that wrote no pid"
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").write_text(f"{pid}\n")
        with pytest.raises(FileExistsError) as exc:
            run_training(tiny_dataset, tiny_train_config(), "autoencoder", out)
        assert str(exc.value).startswith(f"{out / '.lock'}: checkpoint directory "
                                         f"is locked by {want}")
        assert (out / ".lock").read_text() == f"{pid}\n"
        assert list(out.iterdir()) == [out / ".lock"]

    def test_lock_holds_owner_pid(self, tiny_dataset, tmp_path):
        out = tmp_path / "ok"
        seen = []
        run_training(tiny_dataset, tiny_train_config(), "autoencoder", out,
                     log_fn=lambda *_: seen.append((out / ".lock").read_text()))
        assert seen and set(seen) == {f"{os.getpid()}\n"}

    def test_lock_released_after_success(self, tiny_dataset, tmp_path):
        out = tmp_path / "ok"
        run_training(tiny_dataset, tiny_train_config(), "autoencoder", out)
        assert not (out / ".lock").exists()
