import numpy as np
import pytest

from buildiff import tensor as T
from buildiff.denoiser import (DenoiserConfig, denoise_graph,
                               fuse_conditions, init_denoiser_params,
                               make_model)
from buildiff.diffusion import sample_base
from buildiff.schedule import linear_beta_schedule
from oracles import finite_diff_grad, init_denoiser_params_reference

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
            denoise_graph(p, xt, 3, z, guided=True)
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
        from buildiff import denoiser
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
    h = T.leaky_relu(T.linear(xt, params["point.w1"], params["point.b1"]))
    h = T.leaky_relu(T.linear(h, params["point.w2"], params["point.b2"]))
    ctx = T.reshape(T.reduce_max_over_points(h), (1, h.shape[1]))
    ctx = T.gather_rows(ctx, rows)
    fused = T.gather_rows(fuse_conditions(params, z_I, t), rows)
    feat = T.concat_last_axis([h, ctx, fused])
    out = T.leaky_relu(T.linear(feat, w1, params["dec.b1"]))
    out = T.leaky_relu(T.linear(out, params["dec.w2"], params["dec.b2"]))
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

    def test_guided_call_runs_point_trunk_once(self):
        p = randomize_output_layer(small_params())
        rng = np.random.default_rng(14)
        xt = rng.normal(size=(10, 3))
        z = rng.normal(size=8)

        def uses(tape, name):
            a = p[name] if isinstance(name, str) else name
            return sum(any(x is a for x in e.inputs) for e in tape.entries)

        with T.Tape() as guided:
            denoise_graph(p, xt, 6, z, guided=True)
        with T.Tape() as single:
            denoise_graph(p, xt, 6, z)
        for name in ("point.w1", "point.w2", "dec.w1h", "dec.w1c"):
            assert uses(guided, name) == uses(single, name) == 1, name
        # the point MLP, the max-pool context, ctx@W_ctx and the product
        # hw = h@W_h are shared; each branch adds its bias row to hw and
        # runs the rest of the decoder
        hw = next(e.output for e in guided.entries
                  if any(x is p["dec.w1h"] for x in e.inputs))
        assert uses(guided, hw) == 2
        for name in ("dec.w1f", "dec.w2"):
            assert uses(guided, name) == 2 * uses(single, name) == 2, name
        # the decoder reads its weights whole and no call gathers rows: the
        # cut h[K:] of an upsampler call is one rows_from view of h
        with T.Tape() as cut:
            denoise_graph(p, xt, 6, z, guided=True, K=4)

        def ops(tape, name):
            return [e for e in tape.entries
                    if e.backward_fn.__qualname__.startswith(name + ".")]

        assert not any(ops(tape, "gather_rows") for tape in (guided, single, cut))
        assert not ops(guided, "rows_from") and not ops(single, "rows_from")
        (view,) = ops(cut, "rows_from")
        assert view.output.base is view.inputs[0]
        assert view.output.shape == (6, SMALL.w2)

    def test_tape_entries_per_call(self, recorded_ops):
        """One op per layer, its activation included, and no gather of
        weight rows: at the toy config (K=256, d=32) a plain call records
        14 tape entries and a guided call 27: one shared h@W_h product, then
        one bias-row add and its leaky ReLU per branch."""
        p = init_denoiser_params(DenoiserConfig(d=32), seed=0)
        rng = np.random.default_rng(16)
        xt = rng.normal(size=(256, 3))
        z = rng.normal(size=32)
        with T.Tape():
            denoise_graph(p, xt, 7, z)
        assert recorded_ops() == 14
        with T.Tape():
            denoise_graph(p, xt, 7, z, guided=True)
        assert recorded_ops() == 14 + 27

    def test_guided_sampling_matches_reference(self):
        p = randomize_output_layer(small_params())
        z = np.random.default_rng(15).normal(size=8)
        sch = linear_beta_schedule(50)
        got, _ = sample_base(make_model(p), z, 16, 4.0, seed=2, schedule=sch)
        want, _ = sample_base(reference_model(p), z, 16, 4.0, seed=2, schedule=sch)
        np.testing.assert_allclose(got.points, want.points, rtol=0, atol=1e-12)


class TestFuseConditions:
    def test_shape(self):
        p = small_params()
        with T.Tape():
            out = fuse_conditions(p, np.zeros(8), 4)
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
