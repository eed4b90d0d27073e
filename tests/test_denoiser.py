import numpy as np
import pytest

from buildiff import tensor as T
from buildiff import denoiser
from buildiff.denoiser import (DenoiserConfig, denoise_graph,
                               fuse_conditions, init_denoiser_params, join_max,
                               make_model, time_features)
from buildiff.diffusion import sample_base, sample_upsampled
from buildiff.geometry import PointCloud
from buildiff.schedule import linear_beta_schedule
from oracles import (finite_diff_grad, init_denoiser_params_reference,
                     leaky_relu_reference)

SMALL = DenoiserConfig(d=8, w1=6, w2=10, wd=12)


def small_params(seed=0):
    return init_denoiser_params(SMALL, seed=seed)


class TestInit:
    def test_decoder_output_layer_zero(self):
        p = small_params()
        assert np.all(p["dec.out_w"] == 0.0)
        assert np.all(p["dec.out_b"] == 0.0)

    def test_fresh_network_predicts_zero(self):
        p = small_params()
        rng = np.random.default_rng(1)
        out = denoise_graph(p, rng.normal(size=(5, 3)), 3, rng.normal(size=8))
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_deterministic_init(self):
        a = small_params(seed=7)
        b = small_params(seed=7)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_decoder_blocks_split_one_kaiming_draw(self):
        """dec.w1h, dec.w1c and dec.w1f are the row blocks of one
        (2 w2 + d, wd) Kaiming draw at fan_in 2 w2 + d, taken where a
        single first decoder layer is drawn; every other draw is as it
        was, in the same order."""
        d, w1, w2, wd = SMALL.d, SMALL.w1, SMALL.w2, SMALL.wd
        p = init_denoiser_params(SMALL, seed=4)
        rng = np.random.default_rng(4)

        def kaiming(rows, cols):
            bound = np.sqrt(6.0 / rows)
            return rng.uniform(-bound, bound, size=(rows, cols))

        want = {"time.w1": kaiming(d, d), "time.w2": kaiming(d, d),
                "fuse.w1": kaiming(2 * d, d), "fuse.w2": kaiming(d, d),
                "point.w1": kaiming(3, w1), "point.w2": kaiming(w1, w2),
                "dec.w1": kaiming(2 * w2 + d, wd), "dec.w2": kaiming(wd, wd),
                "null_embed": rng.uniform(-0.1, 0.1, size=d)}
        blocks = [p["dec.w1h"], p["dec.w1c"], p["dec.w1f"]]
        assert [b.shape for b in blocks] == [(w2, wd), (w2, wd), (d, wd)]
        assert all(b.flags.c_contiguous and b.base is None for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), want.pop("dec.w1"))
        for name, w in want.items():
            np.testing.assert_array_equal(p[name], w, err_msg=name)
        assert list(p) == [
            "time.w1", "time.b1", "time.w2", "time.b2", "fuse.w1", "fuse.b1",
            "fuse.w2", "fuse.b2", "point.w1", "point.b1", "point.w2", "point.b2",
            "dec.w1h", "dec.w1c", "dec.w1f", "dec.b1", "dec.w2", "dec.b2",
            "dec.out_w", "dec.out_b", "null_embed"]
        for name in set(p) - set(want) - {"dec.w1h", "dec.w1c", "dec.w1f"}:
            assert not p[name].any(), name

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("cfg", [DenoiserConfig(), SMALL],
                             ids=["default", "small"])
    def test_matches_joint_draw_reference(self, cfg, seed):
        """Drawing the three first-decoder-layer blocks one after another
        is bitwise the old joint draw of the whole layer, split; the
        records come in the same order."""
        got = init_denoiser_params(cfg, seed)
        want = init_denoiser_params_reference(cfg, seed)
        assert list(got) == list(want)
        for name, w in want.items():
            assert got[name].shape == w.shape, name
            assert got[name].tobytes() == w.tobytes(), name

    def test_default_parameter_count_under_budget(self):
        p = init_denoiser_params(DenoiserConfig(), seed=0)
        n = sum(v.size for v in p.values())
        assert 0 < n < 2_000_000


def randomize_output_layer(p, seed=0):
    """Fresh nets predict exactly zero; perturb the final layer so the
    forward pass actually exercises every branch."""
    rng = np.random.default_rng(seed)
    p["dec.out_w"][...] = rng.normal(size=p["dec.out_w"].shape) * 0.1
    p["dec.out_b"][...] = rng.normal(size=3) * 0.1
    return p


class TestForward:
    def test_output_shape(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(2)
        for k in (1, 4, 17):
            out = denoise_graph(p, rng.normal(size=(k, 3)), 2, rng.normal(size=8))
            assert out.shape == (k, 3)

    def test_permutation_equivariance(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(3)
        xt = rng.normal(size=(12, 3))
        z = rng.normal(size=8)
        perm = rng.permutation(12)
        out = denoise_graph(p, xt, 5, z)
        out_perm = denoise_graph(p, xt[perm], 5, z)
        assert np.abs(out[perm] - out_perm).max() < 1e-9

    def test_null_branch_differs_from_conditional(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(4)
        xt = rng.normal(size=(6, 3))
        z = rng.normal(size=8)
        cond = denoise_graph(p, xt, 5, z)
        uncond = denoise_graph(p, xt, 5, None)
        assert np.abs(cond - uncond).max() > 0.0

    def test_null_branch_matches_explicit_null_values(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(5)
        xt = rng.normal(size=(6, 3))
        uncond = denoise_graph(p, xt, 5, None)
        via_values = denoise_graph(p, xt, 5, p["null_embed"].copy())
        np.testing.assert_allclose(uncond, via_values, atol=1e-12)

    def test_time_step_changes_output(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(6)
        xt = rng.normal(size=(6, 3))
        z = rng.normal(size=8)
        assert np.abs(denoise_graph(p, xt, 1, z) - denoise_graph(p, xt, 50, z)).max() > 0.0

    def test_wrong_condition_dim_rejected(self):
        p = small_params()
        with pytest.raises(ValueError):
            denoise_graph(p, np.zeros((4, 3)), 1, np.zeros(9))

    def test_wrong_xt_shape_rejected(self):
        p = small_params()
        with pytest.raises(ValueError):
            denoise_graph(p, np.zeros((4, 2)), 1, None)

    def test_denoise_records_nothing(self, recorded_ops):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(8)
        xt = rng.normal(size=(9, 3))
        z = rng.normal(size=8)
        denoise_graph(p, xt, 3, z, guided=True)
        denoise_graph(p, xt, 3, z)
        denoise_graph(p, xt, 3, None)
        assert recorded_ops() == 0
        with T.Tape():  # the counter does see a training forward
            denoise_graph(p, xt, 3, z)
        assert recorded_ops() > 0

    @pytest.mark.parametrize("K", [1, 4, 9])
    def test_decodes_rows_from_k(self, K):
        """With K fixed rows the context still reads all N rows, and the
        decoder returns the rows K: of the full-decode output."""
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(17)
        xt = rng.normal(size=(10, 3))
        z = rng.normal(size=8)
        for cond in (z, None):
            got = denoise_graph(p, xt, 5, cond, K=K)
            assert got.shape == (10 - K, 3)
            np.testing.assert_allclose(got, denoise_graph(p, xt, 5, cond)[K:],
                                       rtol=0, atol=1e-12)
        got_c, got_u = denoise_graph(p, xt, 5, z, guided=True, K=K)
        want_c, want_u = denoise_graph(p, xt, 5, z, guided=True)
        np.testing.assert_allclose(got_c, want_c[K:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_u, want_u[K:], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("K", [-1, 4, 5])
    def test_rejects_k_outside_rows(self, K):
        p = small_params()
        with pytest.raises(ValueError, match=f"got K={K}"):
            denoise_graph(p, np.zeros((4, 3)), 1, None, K=K)

    def test_make_model_binds_k(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(18)
        xt = rng.normal(size=(6, 3))
        z = rng.normal(size=8)
        model = make_model(p, 2)
        np.testing.assert_array_equal(model(xt, 3, z),
                                      denoise_graph(p, xt, 3, z, K=2))
        for got, want in zip(model(xt, 3, z, guided=True),
                             denoise_graph(p, xt, 3, z, guided=True, K=2)):
            np.testing.assert_array_equal(got, want)

    def test_make_model_adapter(self):
        p = randomize_output_layer(small_params())
        model = make_model(p)
        rng = np.random.default_rng(7)
        xt = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(model(xt, 3, None),
                                      denoise_graph(p, xt, 3, None))

    def test_make_model_looks_up_denoise_graph_per_call(self, monkeypatch):
        """A wrapper patched into the module after make_model sees the
        sampling calls, as the benchmark's tracer patches it."""
        model = make_model(randomize_output_layer(small_params()))
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("guided"))
            return denoise_graph(*args, **kwargs)

        monkeypatch.setattr(denoiser, "denoise_graph", spy)
        xt = np.zeros((4, 3))
        model(xt, 3, None)
        model(xt, 3, np.zeros(8), guided=True)
        assert seen == [False, True]


def concat_w1(params):
    """The first decoder layer as one (2 w2 + d, wd) matrix."""
    return np.concatenate([params["dec.w1h"], params["dec.w1c"],
                           params["dec.w1f"]])


def concat_forward(params, xt, t, z_I, w1=None):
    """Reference forward: the row-constant features broadcast to (K, .),
    concatenated as [h | ctx | fused] and multiplied through the first
    decoder layer's three blocks, concatenated (or through w1)."""
    w1 = concat_w1(params) if w1 is None else w1
    rows = np.zeros(xt.shape[0], dtype=np.int64)  # repeat a (1, .) row K times
    h = leaky_relu_reference(T.linear(xt, params["point.w1"], params["point.b1"]))
    h = leaky_relu_reference(T.linear(h, params["point.w2"], params["point.b2"]))
    ctx = T.reshape(T.reduce_max_over_points(h), (1, h.shape[1]))
    ctx = T.gather_rows(ctx, rows)
    fused = T.gather_rows(fuse_conditions(params, z_I, time_features(params, t)),
                          rows)
    feat = T.concat_last_axis([h, ctx, fused])
    out = leaky_relu_reference(T.linear(feat, w1, params["dec.b1"]))
    out = leaky_relu_reference(T.linear(out, params["dec.w2"], params["dec.b2"]))
    return T.linear(out, params["dec.out_w"], params["dec.out_b"])


def reference_model(params):
    def model(xt, t, z_I, guided=False):
        with T.Tape():
            if guided:
                return (concat_forward(params, xt, t, z_I),
                        concat_forward(params, xt, t, None))
            return concat_forward(params, xt, t, z_I)
    return model


class TestFactoredForward:
    @pytest.mark.parametrize("cfg,K", [(SMALL, 9), (DenoiserConfig(), 1024)])
    def test_matches_concatenated_reference(self, cfg, K):
        p = randomize_output_layer(init_denoiser_params(cfg, seed=3))
        rng = np.random.default_rng(11)
        xt = rng.normal(size=(K, 3))
        z = rng.normal(size=cfg.d)
        for cond in (z, None):
            with T.Tape():
                want = concat_forward(p, xt, 17, cond)
            np.testing.assert_allclose(denoise_graph(p, xt, 17, cond), want,
                                       rtol=0, atol=1e-12)

    def test_gradients_match_concatenated_reference(self):
        """Each block's gradient is its rows of the concatenated layer's."""
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(12)
        xt = rng.normal(size=(7, 3))
        target = rng.normal(size=(7, 3))
        z = rng.normal(size=8)
        w1 = concat_w1(p)
        with T.Tape() as tape:
            g_w1, *g = tape.backward(T.mse(concat_forward(p, xt, 4, z, w1), target),
                                     [w1] + list(p.values()))
        want = dict(zip(p, g))
        want.update(zip(("dec.w1h", "dec.w1c", "dec.w1f"),
                        np.split(g_w1, [SMALL.w2, 2 * SMALL.w2])))
        with T.Tape() as tape:
            got = dict(zip(p, tape.backward(T.mse(denoise_graph(p, xt, 4, z), target),
                                            list(p.values()))))
        for k in p:
            np.testing.assert_allclose(got[k], want[k], rtol=0, atol=1e-12,
                                       err_msg=k)

    @staticmethod
    def _assert_guided_equals_two_calls(cfg, N, K):
        """The shared h[K:]@W_h plus each branch's bias row is bitwise the
        plain call's linear."""
        p = randomize_output_layer(init_denoiser_params(cfg, seed=5))
        model = make_model(p, K)
        rng = np.random.default_rng(13)
        xt = rng.normal(size=(N, 3))
        z = rng.normal(size=cfg.d)
        eps_c, eps_u = model(xt, 6, z, guided=True)
        np.testing.assert_array_equal(eps_c, model(xt, 6, z))
        np.testing.assert_array_equal(eps_u, model(xt, 6, None))

    def test_guided_equals_two_calls(self):
        self._assert_guided_equals_two_calls(SMALL, 10, 0)
        self._assert_guided_equals_two_calls(SMALL, 10, 4)

    def test_guided_equals_two_calls_at_paper_size(self):
        self._assert_guided_equals_two_calls(DenoiserConfig(), 4096, 1024)

    @pytest.mark.parametrize("K", [0, 300])
    def test_guided_equals_two_calls_over_several_blocks(self, K):
        """The decoder rows span three whole blocks of bias_leaky_relu and a
        partial fourth, in the guided branches and in dense alike."""
        cfg = DenoiserConfig()
        rows = T.BLOCK_ELEMENTS // cfg.wd
        self._assert_guided_equals_two_calls(cfg, K + 3 * rows + rows // 3, K)

    def test_guided_call_runs_point_trunk_once(self, monkeypatch):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(14)
        xt = rng.normal(size=(10, 3))
        z = rng.normal(size=8)
        calls = []
        for name in ("point_features", "time_features", "fuse_conditions"):
            def counting(*args, _name=name, _run=getattr(denoiser, name)):
                calls.append(_name)
                return _run(*args)
            monkeypatch.setattr(denoiser, name, counting)
        # the point MLP, the max-pool context and the time MLP are shared;
        # each branch fuses its own condition
        for K in (0, 4):
            denoise_graph(p, xt, 6, z, guided=True, K=K)
            assert calls == ["point_features", "time_features",
                             "fuse_conditions", "fuse_conditions"], K
            calls.clear()
        monkeypatch.undo()
        # the decoder reads its weights whole and no call gathers rows: the
        # cut h[K:] of an upsampler call is one rows_from view of h
        with T.Tape() as single:
            denoise_graph(p, xt, 6, z)
        with T.Tape() as cut:
            denoise_graph(p, xt, 6, z, K=4)

        def ops(tape, name):
            return [e for e in tape.entries
                    if e.backward_fn.__qualname__.startswith(name + ".")]

        assert not any(ops(tape, "gather_rows") for tape in (single, cut))
        assert not ops(single, "rows_from")
        (view,) = ops(cut, "rows_from")
        assert view.output.base is view.inputs[0]
        assert view.output.shape == (6, SMALL.w2)

    def test_tape_entries_per_call(self, recorded_ops):
        """One op per layer, its activation included, and no gather of
        weight rows: at the toy config (K=256, d=32) a plain call records
        14 tape entries. A guided call, which only sampling makes, raises
        inside a Tape and records nothing."""
        p = init_denoiser_params(DenoiserConfig(d=32), seed=0)
        rng = np.random.default_rng(16)
        xt = rng.normal(size=(256, 3))
        z = rng.normal(size=32)
        with T.Tape():
            denoise_graph(p, xt, 7, z)
        assert recorded_ops() == 14
        with T.Tape(), pytest.raises(ValueError, match="guided"):
            denoise_graph(p, xt, 7, z, guided=True)
        assert recorded_ops() == 14

    def test_guided_sampling_matches_reference(self):
        p = randomize_output_layer(small_params())
        z = np.random.default_rng(15).normal(size=8)
        sch = linear_beta_schedule(50)
        got = sample_base(make_model(p), z, 16, 4.0, seed=2, schedule=sch)
        want = sample_base(reference_model(p), z, 16, 4.0, seed=2, schedule=sch)
        np.testing.assert_allclose(got.points, want.points, rtol=0, atol=1e-12)


def bits(a):
    return np.asarray(a).tobytes()


@pytest.fixture
def point_mlp_rows(monkeypatch):
    """The row count of each point-MLP run, in order."""
    rows = []
    run = denoiser.point_features

    def counting(params, x):
        rows.append(x.shape[0])
        return run(params, x)

    monkeypatch.setattr(denoiser, "point_features", counting)
    return rows


class TestFixedRows:
    def test_model_equals_full_graph_at_paper_size(self):
        """make_model's split point MLP, rows :K once and rows K: per
        call, gives the bits of the all-row graph, guided and plain, on a
        fresh and on a cached fixed block: this pins the BLAS row split."""
        K, N = 1024, 4096
        p = randomize_output_layer(init_denoiser_params(DenoiserConfig(), seed=5))
        model = make_model(p, K)
        rng = np.random.default_rng(19)
        xt = rng.normal(size=(N, 3))
        z = rng.normal(size=128)
        for t in (6, 5):
            for got, want in zip(model(xt, t, z, guided=True),
                                 denoise_graph(p, xt, t, z, guided=True, K=K)):
                assert bits(got) == bits(want), t
            for cond in (z, None):
                assert bits(model(xt, t, cond)) == bits(
                    denoise_graph(p, xt, t, cond, K=K)), t
            xt[K:] = rng.normal(size=(N - K, 3))

    def test_join_max_is_the_all_row_rule(self):
        """Every pair of two-row blocks from numbers, both zeros and NaNs
        of three bit patterns: the joined maxima of rows :2 and rows 2:
        are bitwise reduce_max_over_points over all four rows."""
        neg_nan = np.copysign(np.nan, -1.0)
        payload_nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0]
        pool = [-1.0, -0.0, 0.0, 1.0, np.nan, neg_nan, payload_nan]
        blocks = [(a, b) for a in pool for b in pool]
        cols = [[*f, *r] for f in blocks for r in blocks]
        a = np.array(cols).T.copy()
        got = join_max(T.reduce_max_over_points(a[:2]),
                       T.reduce_max_over_points(a[2:]))
        want = T.reduce_max_over_points(a)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_chain_runs_point_mlp_on_fixed_rows_once(self, point_mlp_rows,
                                                     monkeypatch):
        """Over a 5-step guided upsampler chain the point MLP sees the K
        fixed rows once and the N - K noisy rows once per step, each step
        joins the two maxima with join_max, and the cloud is bitwise that
        of a model that runs every call on all N rows."""
        K, N = 16, 40
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(20)
        lowres = PointCloud(rng.normal(size=(K, 3)))
        z = rng.normal(size=8)
        sch = linear_beta_schedule(5)
        joins = []

        def counting_join(first, second):
            joins.append(first.shape)
            return join_max(first, second)

        monkeypatch.setattr(denoiser, "join_max", counting_join)
        got = sample_upsampled(make_model(p, K), z, lowres, N, 4.0, seed=3,
                               schedule=sch)
        assert point_mlp_rows == [K] + [N - K] * 5
        assert joins == [(SMALL.w2,)] * 5
        point_mlp_rows.clear()

        def full(xt, t, z_I, guided=False):
            return denoise_graph(p, xt, t, z_I, guided=guided, K=K)

        want = sample_upsampled(full, z, lowres, N, 4.0, seed=3, schedule=sch)
        assert point_mlp_rows == [N] * 5
        assert bits(got.points) == bits(want.points)

    def test_changed_fixed_bits_recompute(self, point_mlp_rows):
        """A call whose rows :K differ in any bit from the last call's,
        a -0.0 for a +0.0 included, runs the point MLP on them again; a
        change in rows K: only does not."""
        K = 4
        p = randomize_output_layer(small_params())
        model = make_model(p, K)
        rng = np.random.default_rng(21)
        xt = rng.normal(size=(10, 3))
        xt[1, 2] = 0.0
        z = rng.normal(size=8)
        flipped = xt.copy()
        flipped[1, 2] = -0.0
        moved = xt.copy()
        moved[K:] += 1.0
        nudged = xt.copy()
        nudged[K - 1, 0] = np.nextafter(nudged[K - 1, 0], np.inf)
        calls = [xt, xt, moved, flipped, xt, nudged, nudged]
        for x in calls:
            assert bits(model(x, 3, z)) == bits(denoise_graph(p, x, 3, z, K=K))
        fixed_runs = [r for r in point_mlp_rows if r == K]
        assert len(fixed_runs) == 4  # xt, flipped, xt, nudged
        assert point_mlp_rows.count(10 - K) == len(calls)
        assert bits(model(xt.astype(np.float32), 3, z)) == bits(
            denoise_graph(p, xt.astype(np.float32), 3, z, K=K))
        assert point_mlp_rows.count(K) == 5

    def test_fixed_max_needs_k_and_no_tape(self):
        p = small_params()
        xt = np.random.default_rng(22).normal(size=(6, 3))
        with pytest.raises(ValueError, match="fixed_max"):
            denoise_graph(p, xt, 3, None, fixed_max=np.zeros(SMALL.w2))
        with T.Tape(), pytest.raises(ValueError, match="fixed_max"):
            denoise_graph(p, xt, 3, None, K=2, fixed_max=np.zeros(SMALL.w2))

    def test_model_on_a_tape_records_the_all_row_graph(self, point_mlp_rows):
        p = randomize_output_layer(small_params())
        xt = np.random.default_rng(23).normal(size=(6, 3))
        with T.Tape() as tape:
            out = make_model(p, 2)(xt, 3, None)
        assert point_mlp_rows == [6]
        assert tape.entries
        assert bits(out) == bits(denoise_graph(p, xt, 3, None, K=2))


class TestFuseConditions:
    def test_shape(self):
        p = small_params()
        with T.Tape():
            out = fuse_conditions(p, np.zeros(8), time_features(p, 4))
        assert tuple(out.shape) == (1, 8)


class TestGradients:
    def test_backward_matches_finite_differences(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(9)
        xt = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 3))
        z = rng.normal(size=8)
        names = sorted(p)

        def loss_fn(values):
            override = dict(zip(names, values))
            with T.Tape():
                out = denoise_graph(override, xt, 3, z)
                return T.mse(out, target).item()

        with T.Tape() as tape:
            out = denoise_graph(p, xt, 3, z)
            ad = tape.backward(T.mse(out, target), [p[n] for n in names])
        fd = finite_diff_grad(loss_fn, [p[n] for n in names], 1e-6)
        # null_embed is unused when a condition is given: zeros on both sides
        for name, got, g in zip(names, ad, fd):
            scale = max(np.abs(g).max(), 1e-8)
            assert np.abs(got - g).max() / scale < 1e-5, name

    def test_null_embed_gets_gradient_when_dropped(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(10)
        xt = rng.normal(size=(5, 3))
        with T.Tape() as tape:
            out = denoise_graph(p, xt, 3, None)
            (g_null,) = tape.backward(T.mse(out, rng.normal(size=(5, 3))),
                                      [p["null_embed"]])
        assert np.abs(g_null).max() > 0.0
