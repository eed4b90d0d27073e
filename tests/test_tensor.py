import ast
import inspect
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from buildiff import conditioner as C, tensor as T
from buildiff.optim import BETA1, BETA2, EPS, AdamState, adam_step
from oracles import (finite_diff_grad, gather_rows_reference, leaky_relu_reference,
                     plan_indices)


def test_mse_identity_is_zero():
    with T.Tape():
        out = T.mse(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert out.item() == 0.0


def test_leaky_relu_definition():
    with T.Tape():
        out = leaky_relu_reference(np.array([-1.0, 2.0]), slope=0.01)
    np.testing.assert_allclose(out, [-0.01, 2.0])


def test_leaky_relu_bitwise_equal_to_coefficient_formula():
    """The forward and backward equal a*coef and g*coef with
    coef = 1 where a >= 0 else slope, bit for bit, signed zeros included."""
    rng = np.random.default_rng(0)
    a = np.concatenate([[0.0, -0.0, 1e-310, -1e-310, 5e-324, -5e-324, -1.0, 2.0],
                        rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, 200)])
    g = np.concatenate([[2.0, -3.0, -0.0, 0.0, 1.5, -2.5, 4.0, -1.0],
                        rng.normal(size=200)])
    for slope in (0.01, 0.2, 0.5):
        coef = np.where(a >= 0, 1.0, slope)
        with T.Tape() as tape:
            out = leaky_relu_reference(a, slope=slope)
            (gin,) = tape.entries[-1].backward_fn(g)
        want_out, want_g = a * coef, g * coef
        assert np.array_equal(out, want_out)
        assert np.array_equal(np.signbit(out), np.signbit(want_out))
        assert np.array_equal(gin, want_g)
        assert np.array_equal(np.signbit(gin), np.signbit(want_g))
        for i in range(8):  # 0-d inputs, signed zeros and subnormals included
            with T.Tape() as tape:
                out = leaky_relu_reference(a[i].reshape(()), slope=slope)
                (gin,) = tape.entries[-1].backward_fn(g[i].reshape(()))
            assert isinstance(out, np.ndarray) and out.shape == ()
            assert out.tobytes() == want_out[i].tobytes()
            assert np.float64(gin).tobytes() == want_g[i].tobytes()


def _sum_all(a):
    """Scalar sum of every element: a flattened row times a column of ones."""
    n = a.size
    return T.reshape(T.linear(T.reshape(a, (1, n)), np.ones((n, 1)),
                              np.zeros(1)), ())


def _linear_case(rng):
    """x with a +0.0 row and a -0.0 row, W, and a bias with signed zeros."""
    x = rng.normal(size=(6, 5))
    x[0] = 0.0
    x[1] = -0.0
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    b[:2] = [-0.0, 0.0]
    return x, w, b


@pytest.mark.parametrize("bias_shape", [(4,), (1, 4)], ids=["vector", "row"])
def test_linear_forward_bitwise_equal_to_matmul_plus_bias(bias_shape):
    x, w, b = _linear_case(np.random.default_rng(0))
    b = b.reshape(bias_shape)
    want = x @ w + b
    with T.Tape():
        out = T.linear(x, w, b)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))


@pytest.mark.parametrize("bias_shape", [(4,), (1, 4)], ids=["vector", "row"])
def test_linear_backward_triple(bias_shape):
    rng = np.random.default_rng(1)
    x, w, b = _linear_case(rng)
    g = rng.normal(size=(6, 4))
    with T.Tape() as tape:
        T.linear(x, w, b.reshape(bias_shape))
        gx, gw, gb = tape.entries[-1].backward_fn(g)
    assert np.array_equal(gx, g @ w.T)
    assert np.array_equal(gw, x.T @ g)
    assert gb.shape == bias_shape
    assert np.array_equal(gb.reshape(-1), g.sum(0))


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((2, 3), (3, 4), (3,)),
    ((2, 3), (3, 4), (2, 4)),
    ((2, 3), (2, 4), (4,)),
    ((3,), (3, 4), (4,)),
], ids=["bias-width", "full-bias", "inner-dims", "x-not-2d"])
def test_linear_bad_shapes_name_all_three(x_shape, w_shape, b_shape):
    with pytest.raises(T.ShapeError) as err:
        T.linear(np.ones(x_shape), np.ones(w_shape), np.ones(b_shape))
    for s in (x_shape, w_shape, b_shape):
        assert str(s) in str(err.value)


def test_linear_needs_a_bias():
    with pytest.raises(TypeError):
        T.linear(np.ones((2, 3)), np.ones((3, 4)))


def test_backward_square():
    w = np.array([3.0])
    with T.Tape() as tape:
        loss = T.mse(w, np.array([0.0]))
        (gw,) = tape.backward(loss, [w])
    np.testing.assert_allclose(gw, [6.0])


def test_backward_product_rule():
    a = np.array([2.0])
    b = np.array([5.0])
    with T.Tape() as tape:
        loss = _sum_all(T.mul(a, b))
        ga, gb = tape.backward(loss, [a, b])
    np.testing.assert_allclose(ga, [5.0])
    np.testing.assert_allclose(gb, [2.0])


def test_backward_returns_gradients_in_wrt_order():
    """One array per wrt tensor, in wrt's order; a tensor the loss does not
    reach, or one that no op touched, gets zeros of its own shape."""
    a = np.array([2.0])
    b = np.array([5.0])
    unreached = np.ones((2, 3))
    untouched = np.array([7.0, 8.0])
    with T.Tape() as tape:
        T.scale(unreached, 4.0)
        loss = _sum_all(T.mul(a, T.scale(b, 3.0)))
        grads = tape.backward(loss, [b, unreached, a, untouched])
    assert len(grads) == 4
    np.testing.assert_allclose(grads[0], [6.0])
    assert np.array_equal(grads[1], np.zeros((2, 3)))
    np.testing.assert_allclose(grads[2], [15.0])
    assert np.array_equal(grads[3], [0.0, 0.0])
    with T.Tape() as tape:
        loss = _sum_all(T.mul(a, b))
    assert tape.backward(loss, []) == []


def test_walk_frees_each_entry_and_runs_once():
    """The walk drops an entry before it walks the ones recorded earlier:
    an activation that only the tape holds is freed before the backward of
    the entry that made its input runs. A walked tape is empty, and a
    second walk raises."""
    rng = np.random.default_rng(5)
    x, target = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=4)
    w2, b2 = rng.normal(size=(4, 2)), rng.normal(size=2)
    with T.Tape() as tape:
        h = T.dense(T.dense(x, w1, b1), w2, b2)
        loss = T.mse(h, target)
    first = tape.entries[0]
    assert any(i is x for i in first.inputs)
    h_ref = weakref.ref(h)
    del h
    assert h_ref() is not None
    seen = []
    backward_fn = first.backward_fn

    def spy(g):
        seen.append(h_ref())
        return backward_fn(g)

    first.backward_fn = spy
    del first
    grads = tape.backward(loss, [w1, b1])
    assert seen == [None]
    assert tape.entries == [] and all(np.abs(g).max() > 0 for g in grads)
    with pytest.raises(RuntimeError, match="already walked"):
        tape.backward(loss, [w1, b1])


def test_backward_rejects_nonscalar():
    a = np.array([1.0, 2.0])
    with T.Tape() as tape:
        out = T.scale(a, 2.0)
        with pytest.raises(T.ShapeError):
            tape.backward(out, [a])


def test_backward_overwrites_grads():
    w = np.array([3.0])
    for _ in range(2):
        with T.Tape() as tape:
            (gw,) = tape.backward(T.mse(w, np.array([0.0])), [w])
    np.testing.assert_allclose(gw, [6.0])  # not accumulated to 12


@pytest.mark.parametrize("seed", range(5))
def test_carried_sums_equal_one_walk_over_both_tapes(seed):
    """Walking tape b, then tape a with the sums carried, gives bit for bit
    the gradients of one tape recording a then b, walked from a + b: w and
    c are read twice per graph, so carrying the sums differs from adding two
    finished gradients. n is reached only from b, with a gradient of -0.0,
    which walk a must not turn into +0.0."""
    rng = np.random.default_rng(seed)
    w, c = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
    n = np.array([2.0])
    xs = [rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-3, 4) for _ in range(4)]

    def loss(x1, x2):
        h = T.dense(x1, w, c)
        return T.mse(h, T.linear(x2, w, c))

    def loss_b():
        return T.add(loss(xs[2], xs[3]),
                     T.reshape(T.mul(n, np.array([-0.0])), ()))

    with T.Tape() as tape:
        la = loss(xs[0], xs[1])
        want = tape.backward(T.add(la, loss_b()), [w, c, n])
    sums = {}
    with T.Tape() as tape:
        tape.backward(loss_b(), [w, c, n], sums)
    with T.Tape() as tape:
        got = tape.backward(loss(xs[0], xs[1]), [w, c, n], sums)
    for g, h in zip(got, want):
        assert g.tobytes() == h.tobytes()
    assert np.signbit(got[2][0])
    assert [sums[id(p)].tobytes() for p in (w, c, n)] == [g.tobytes() for g in got]


def test_finite_diff_simple():
    w = np.array([3.0])

    def f(params):
        with T.Tape():
            return T.mse(params[0], np.array([0.0])).item()

    (g,) = finite_diff_grad(f, [w], step=1e-6)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_sin():
    w = np.array([0.0])

    def f(params):
        return float(np.sin(params[0][0]))

    (g,) = finite_diff_grad(f, [w], step=1e-5)
    assert abs(g[0] - 1.0) < 1e-9


def test_finite_diff_non_contiguous_param():
    """A param whose reshape(-1) would be a copy is still perturbed in
    place: the transposed view's gradient is the weight at each element."""
    p = np.arange(6.0).reshape(2, 3).T
    wts = np.array([[1.0, -2.0], [3.0, 0.5], [-1.5, 4.0]])

    def f(params):
        return float((params[0] * wts).sum())

    (g,) = finite_diff_grad(f, [p], step=1e-3)
    np.testing.assert_allclose(g, wts, rtol=1e-9)
    assert np.array_equal(p, np.arange(6.0).reshape(2, 3).T)


def test_finite_diff_rejects_nonfinite():
    w = np.array([0.0])
    with pytest.raises(ValueError):
        finite_diff_grad(lambda p: float("nan"), [w])


def test_reduce_max_tie_goes_to_first_index():
    a = np.array([[1.0], [1.0], [0.5]])
    with T.Tape() as tape:
        (ga,) = tape.backward(_sum_all(T.reduce_max_over_points(a)), [a])
    np.testing.assert_allclose(ga, [[1.0], [0.0], [0.0]])


def test_reduce_max_bitwise_equal_to_argmax_formula():
    """Index, value and backward equal the np.argmax(a, axis=0) formula bit
    for bit: random data, ties, 0.0 against -0.0 and NaN columns."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4096, 128))
    a[:, 0] = 0.0
    a[1::3, 0] = -0.0
    a[-1, 0] = -0.0  # a.max(axis=0) returns the last of equal zeros
    a[:, 1] = -0.0
    a[7::5, 1] = 0.0
    a[:, 2] = rng.integers(-2, 3, size=4096)
    a[[10, 20], 3] = 1e300
    a[[30, 40], 4] = np.nan
    a[:, 5] = rng.integers(0, 2, size=4096) * -0.0
    a[:, 6] = -np.inf
    a[::2, 7] = a[1::2, 7]
    g = rng.normal(size=128)
    g[:4] = [0.0, -0.0, -1.5, 2.0]
    want_idx = np.argmax(a, axis=0)
    cols = np.arange(128)
    want_val = a[want_idx, cols]
    want_g = np.zeros_like(a)
    want_g[want_idx, cols] = g
    with T.Tape() as tape:
        out = T.reduce_max_over_points(a)
        (gin,) = tape.entries[-1].backward_fn(g)
        (hits,) = tape.entries[-1].backward_fn(np.ones(128))
    assert np.array_equal(hits.sum(axis=0), np.ones(128))
    assert np.array_equal(hits.argmax(axis=0), want_idx)
    assert np.array_equal(out, want_val, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(want_val))
    assert np.array_equal(gin, want_g)
    assert np.array_equal(np.signbit(gin), np.signbit(want_g))


def _argmax_reference(a):
    """np.argmax(a, axis=0) and the element it picks per column: the first
    maximum, or the first NaN."""
    idx = np.argmax(a, axis=0)
    return idx, a[idx, np.arange(a.shape[1])]


def _column_kinds(rng, k):
    """A (k, 8) array: random, +0.0 before -0.0, -0.0 before +0.0, a
    ±0.0 column whose zeros lead, all negative, a NaN column with two
    payloads, a NaN with zeros, and +inf ties."""
    a = np.empty((k, 8))
    a[:, 0] = rng.normal(size=k)
    a[:, 1] = -rng.uniform(1, 2, size=k)
    a[k // 3, 1], a[k // 2, 1] = 0.0, -0.0
    a[:, 2] = -rng.uniform(1, 2, size=k)
    a[k // 3, 2], a[k // 2, 2] = -0.0, 0.0
    a[:, 3] = rng.integers(0, 2, size=k) * -0.0
    a[:, 4] = -rng.uniform(1, 2, size=k)
    a[:, 5] = rng.normal(size=k)
    a[k // 2:, 5] = [np.nan] * (k - k // 2)
    nan2 = np.array(np.nan).view(np.int64) | 7
    a[k - 1, 5] = nan2.view(np.float64)  # a later NaN with another payload
    a[:, 6] = -0.0
    a[k // 4, 6] = np.nan
    a[:, 7] = rng.normal(size=k)
    a[[1, k - 2], 7] = np.inf
    return a


@pytest.mark.parametrize("k", [2, 7, 300])
def test_reduce_max_value_and_index_bitwise_by_column_kind(k):
    """The value is bit for bit the first maximal element (NaN payloads and
    signs of zero included), and the backward routes g to its row."""
    rng = np.random.default_rng(k)
    a = _column_kinds(rng, k)
    a = np.ascontiguousarray(np.concatenate([a, a[::-1]], axis=1))
    want_idx, want_val = _argmax_reference(a)
    g = rng.normal(size=a.shape[1])
    with T.Tape() as tape:
        out = T.reduce_max_over_points(a)
        (gin,) = tape.entries[-1].backward_fn(g)
    assert np.array_equal(out.view(np.int64), want_val.view(np.int64))
    want_g = np.zeros_like(a)
    want_g[want_idx, np.arange(a.shape[1])] = g
    assert np.array_equal(gin.view(np.int64), want_g.view(np.int64))


def _fd_check(loss_of, params):
    with T.Tape() as tape:
        ads = tape.backward(loss_of(params), params)
    fd = finite_diff_grad(lambda ps: loss_of(ps).item(), params, step=1e-6)
    for ad, g in zip(ads, fd, strict=True):
        assert np.abs(ad - g).max() / max(np.abs(g).max(), 1.0) < 1e-6


@pytest.mark.parametrize("b_shape", [(2, 4), (4,), (1, 3), (1, 1, 4), (1, 4)])
def test_add_rejects_any_unequal_shape(b_shape):
    with pytest.raises(T.ShapeError, match=re.escape(str(b_shape))):
        T.add(np.ones((3, 4)), np.ones(b_shape))


def _dense_case(rng, n=40):
    """x, W, b whose pre-activations x@W + b include +0.0, -0.0, NaN, the
    infinities, tiny negatives that slope * a rounds to -0.0 and tiny
    positives, with a gradient holding -0.0, NaN and infinities."""
    x = rng.normal(size=(n, 5))
    w = rng.normal(size=(5, 12))
    b = rng.normal(size=(1, 12))
    x[:8] = 0.0  # rows whose pre-activation is the bias row
    b[0, :9] = [0.0, -0.0, np.nan, np.inf, -np.inf, -5e-324, -2e-322,
                5e-324, -1e-310]
    g = rng.normal(size=(n, 12))
    g[rng.random(g.shape) < 0.2] = -0.0
    g[8, :3] = [np.nan, np.inf, -np.inf]
    return x, w, b, g


@pytest.mark.parametrize("seed", range(3))
def test_dense_bitwise_equal_to_leaky_relu_of_linear(seed):
    """Forward and backward equal the leaky ReLU of linear(x, W, b) bit
    for bit (leaky_relu_reference, at dense's slope):
    signed zeros, NaN and infinite pre-activations, pre-activations whose
    slope * a underflows to -0.0 and -0.0 gradients included."""
    x, w, b, g = _dense_case(np.random.default_rng(seed))
    for bias in (b, b.reshape(-1)):
        with np.errstate(invalid="ignore"), T.Tape() as tape:
            want = leaky_relu_reference(T.linear(x, w, bias), T.LEAKY_SLOPE)
            (g_pre,) = tape.entries[-1].backward_fn(g)
            want_grads = tape.entries[-2].backward_fn(g_pre)
            got = T.dense(x, w, bias)
            got_grads = tape.entries[-1].backward_fn(g)
        assert [id(i) for i in tape.entries[-1].inputs] == [id(x), id(w), id(bias)]
        assert got.tobytes() == want.tobytes()
        for have, ref in zip(got_grads, want_grads, strict=True):
            assert have.shape == ref.shape
            assert have.tobytes() == ref.tobytes()


SPECIAL_ROWS = [0.0, -0.0, np.nan, np.inf, -np.inf, -5e-324, -2e-322, 5e-324,
                -1e-310]  # _dense_case's pre-activations, one row each


def _multi_block_case(rng, c):
    """x, W, b, g for dense at width c whose rows span three whole blocks
    of bias_leaky_relu and a partial fourth. Rows holding SPECIAL_ROWS
    straddle the end of the first block (the last two in the second) and
    sit inside the third block and at the end of the last: x is (SPECIAL_ROWS[i], 0, ...) on such a
    row and W's first row is ones, so x@W is that value on all of it
    (and, with a -0.0 bias, so is the pre-activation). g is never -0.0,
    NaN or infinite on those rows, so each underflow's coefficient shows
    in the gradient of x."""
    rows = max(1, T.BLOCK_ELEMENTS // c)
    n = 3 * rows + rows // 2 + 1
    x = rng.normal(size=(n, 5))
    w = rng.normal(size=(5, c))
    w[0] = 1.0
    k = len(SPECIAL_ROWS)
    starts = [rows - k + 2, 2 * rows + rows // 2 - k // 2, n - k]
    special = np.concatenate([np.arange(s, s + k) for s in starts])
    x[special] = 0.0
    x[special, 0] = np.tile(SPECIAL_ROWS, len(starts))
    g = rng.normal(size=(n, c))
    g[rng.random(g.shape) < 0.2] = -0.0
    g[special] = rng.normal(size=(len(special), c))
    g[rows // 2, :1] = np.nan
    g[rows // 2 + 1, :1] = np.inf
    return x, w, g


@pytest.mark.parametrize("c", [1, 3, 64, 128])
def test_dense_over_several_blocks_bitwise_equal_to_reference(c):
    """Over three blocks of rows and a partial fourth, with signed zeros,
    NaN, infinities and underflowing tiny negatives in the first, the
    third and the last block: dense's output, untaped and taped, and its
    gradients equal leaky_relu_reference(linear(x, W, b)) bit for bit.
    Each block's underflow indices must be offset by the block's first
    row, or the gradient of x differs."""
    rng = np.random.default_rng(c)
    x, w, g = _multi_block_case(rng, c)
    rows = max(1, T.BLOCK_ELEMENTS // c)
    assert len(x) > 3 * rows and len(x) % rows
    for bias in (np.full((1, c), -0.0), rng.normal(size=c)):
        with np.errstate(invalid="ignore"):
            untaped = T.dense(x, w, bias)
            with T.Tape() as tape:
                want = leaky_relu_reference(T.linear(x, w, bias), T.LEAKY_SLOPE)
                (g_pre,) = tape.entries[-1].backward_fn(g)
                want_grads = tape.entries[-2].backward_fn(g_pre)
                got = T.dense(x, w, bias)
                got_grads = tape.entries[-1].backward_fn(g)
        assert untaped.tobytes() == want.tobytes()
        assert got.tobytes() == want.tobytes()
        for have, ref in zip(got_grads, want_grads, strict=True):
            assert have.shape == ref.shape
            assert have.tobytes() == ref.tobytes()


def test_dense_bad_shapes():
    msg = "dense: shapes (2, 3) @ (3, 4) + (2, 4)"
    with pytest.raises(T.ShapeError, match=re.escape(msg)):
        T.dense(np.ones((2, 3)), np.ones((3, 4)), np.zeros((2, 4)))


@pytest.mark.parametrize("n,k", [(7, 3), (7, 0), (7, 7), (1024, 256)])
def test_rows_from_bitwise_equal_to_gather_rows(n, k):
    """The view and its gradient equal gather_rows(a, arange(k, n)) bit for
    bit, -0.0 (which both turn into +0.0) and NaN gradients included."""
    rng = np.random.default_rng(n + k)
    a = rng.normal(size=(n, 4))
    a[:2, 0] = [-0.0, np.nan]
    g = _with_negative_zeros(rng, rng.normal(size=(n - k, 4)))
    g[:1, 1:3] = [np.nan, -np.inf]
    with T.Tape() as tape:
        want = T.gather_rows(a, np.arange(k, n))
        (want_g,) = tape.entries[-1].backward_fn(g)
        got = T.rows_from(a, k)
        (got_g,) = tape.entries[-1].backward_fn(g)
    assert got.base is a and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert got_g.tobytes() == want_g.tobytes()


@pytest.mark.parametrize("shape,k", [((4,), 1), ((4, 2), -1), ((4, 2), 5)])
def test_rows_from_bad_arguments(shape, k):
    with pytest.raises(T.ShapeError):
        T.rows_from(np.ones(shape), k)


def test_dense_matches_finite_differences():
    rng = np.random.default_rng(24)
    x, w, b = rng.normal(size=(6, 3)), rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
    target = rng.normal(size=(6, 4))
    _fd_check(lambda ps: T.mse(T.dense(ps[0], ps[1], ps[2]), target), [x, w, b])


def test_rows_from_matches_finite_differences():
    rng = np.random.default_rng(25)
    a, w, target = rng.normal(size=(7, 3)), rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    _fd_check(lambda ps: T.mse(T.linear(T.rows_from(ps[0], 3), ps[1], np.zeros(2)),
                               target),
              [a, w])


def test_gather_rows_negative_index_is_zero_row():
    a = np.arange(6.0).reshape(3, 2)
    with T.Tape() as tape:
        out = T.gather_rows(a, [0, -1, 2])
        np.testing.assert_allclose(out[1], [0.0, 0.0])
        (ga,) = tape.backward(_sum_all(out), [a])
    np.testing.assert_allclose(ga, [[1, 1], [0, 0], [1, 1]])


def _add_at_scatter(a, idx, g):
    """The reference gather_rows gradient: np.add.at into zeros, skipping
    padding (-1) rows."""
    idx = np.asarray(idx, dtype=np.int64)
    ga = np.zeros_like(a)
    np.add.at(ga, idx[idx >= 0], g[idx >= 0])
    return ga


def _assert_scatter_bitwise(a, idx, g):
    with T.Tape() as tape:
        T.gather_rows(a, idx)
        (ga,) = tape.entries[-1].backward_fn(g)
    want = _add_at_scatter(a, idx, g)
    assert ga.shape == want.shape
    assert np.array_equal(ga.view(np.int64), want.view(np.int64))


def _with_negative_zeros(rng, g):
    g = g.copy()
    g[rng.random(g.shape) < 0.25] = -0.0
    return g


def test_gather_rows_scatter_bitwise_on_ae_indices(monkeypatch):
    """On every index array of the 32 px auto-encoder (7 convolutions, 3
    upsamplings) the gradient is np.add.at's bit for bit, -0.0 included."""
    calls = []
    gather = T.gather_rows

    def recording(a, rows):
        calls.append((a, plan_indices(rows)))
        return gather(a, rows)

    monkeypatch.setattr(T, "gather_rows", recording)
    params = C.init_ae_params(8, 32, seed=0)
    pixels = np.random.default_rng(0).random((32, 32))
    C._decode_graph(params, C._encode_graph(params, pixels), 32)
    monkeypatch.undo()
    assert len(calls) == 10
    rng = np.random.default_rng(0)
    for a, idx in calls:
        g = rng.normal(size=(len(idx), a.shape[1]))
        _assert_scatter_bitwise(a, idx, _with_negative_zeros(rng, g))


@pytest.mark.parametrize("n,m,c", [(1024, 1024, 3), (256, 256, 32),
                                   (5, 40, 4), (1, 7, 2)])
def test_gather_rows_scatter_bitwise_on_random_indices(n, m, c):
    """Repeated random indices, with and without -1 padding, and a gradient
    whose terms for some rows are all -0.0."""
    rng = np.random.default_rng(n + m + c)
    a = rng.normal(size=(n, c))
    g = _with_negative_zeros(rng, rng.normal(size=(m, c)))
    for low in (0, -1):
        idx = rng.integers(low, n, size=m)
        _assert_scatter_bitwise(a, idx, g)
        _assert_scatter_bitwise(a, idx, np.full((m, c), -0.0))


def test_gather_rows_scatter_empty_indices():
    a = np.ones((4, 3))
    _assert_scatter_bitwise(a, np.array([], dtype=np.int64), np.zeros((0, 3)))
    _assert_scatter_bitwise(a, [-1, -1], np.ones((2, 3)))


def test_gather_rows_scatter_non_contiguous_gradient():
    """The gradient a concat_last_axis split hands back is a strided view;
    the scatter reads it in row order all the same."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 3))
    idx = np.array([5, -1, 0, 5, 2, 5, -1, 0])
    g = _with_negative_zeros(rng, rng.normal(size=(8, 5)))
    with T.Tape() as tape:
        out = T.gather_rows(a, idx)
        T.concat_last_axis([out, rng.normal(size=(8, 2))])
        g_out, _ = tape.entries[-1].backward_fn(g)
        (ga,) = tape.entries[-2].backward_fn(g_out)
    assert not g_out.flags.c_contiguous
    want = _add_at_scatter(a, idx, g[:, :3])
    assert np.array_equal(ga.view(np.int64), want.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), c=st.integers(1, 9), m=st.integers(0, 80),
       pad=st.floats(0.0, 0.6), zeros=st.floats(0.0, 0.6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_gather_plan_bitwise_equal_to_reference(n, c, m, pad, zeros, seed):
    """A plan's output and gradient equal the reference gather's bit for
    bit: indices with -1 padding and repeats, a source holding -0.0 and
    NaN, gradients holding +0.0 and -0.0. One plan serves two channel
    counts and a second call, whose bins it reuses."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=m)
    idx[rng.random(m) < pad] = -1
    plan = T.GatherPlan(idx, n)
    for width in (c, c + 3, c):
        a = rng.normal(size=(n, width))
        a[rng.random(a.shape) < 0.1] = -0.0
        a[rng.random(a.shape) < 0.05] = np.nan
        g = rng.normal(size=(m, width))
        g[rng.random(g.shape) < zeros] = 0.0
        g[rng.random(g.shape) < zeros] = -0.0
        with T.Tape() as tape:
            got = T.gather_rows(a, plan)
            (got_g,) = tape.entries[-1].backward_fn(g)
            want = gather_rows_reference(a, idx)
            (want_g,) = tape.entries[-1].backward_fn(g)
        assert got.shape == want.shape and got_g.shape == want_g.shape
        assert got.tobytes() == want.tobytes()
        assert got_g.tobytes() == want_g.tobytes()
    assert plan.bins(c) is plan.bins(c)


def test_gather_plan_maps_padding_to_row_n_and_is_read_only():
    plan = T.GatherPlan([2, -1, 0, -5, 2], 3)
    assert plan.src.tolist() == [2, 3, 0, 3, 2]
    assert plan.bins(2).tolist() == [4, 5, 6, 7, 0, 1, 6, 7, 4, 5]
    for arr in (plan.src, plan.bins(2)):
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("rows,n,err", [
    ([0, 3], 3, IndexError),            # past the last row
    ([[0, 1]], 3, T.ShapeError),        # not 1-D
])
def test_gather_plan_bad_indices(rows, n, err):
    with pytest.raises(err):
        T.GatherPlan(rows, n)
    with pytest.raises(err):
        T.gather_rows(np.ones((n, 2)), rows)


def test_gather_rows_plan_for_another_row_count():
    plan = T.GatherPlan([0, -1], 3)
    with pytest.raises(T.ShapeError, match="plan for 3 rows, got shape"):
        T.gather_rows(np.ones((4, 2)), plan)


def test_no_silent_broadcast():
    with T.Tape():
        with pytest.raises(T.ShapeError):
            T.add(np.ones((2, 2)), np.ones(2))


OP_CASES = {
    "add": lambda a, b: T.add(a, b),
    "mul": lambda a, b: T.mul(a, b),
    "scale": lambda a, b: T.scale(a, -0.3),
    "linear": lambda a, b: T.linear(a, T.reshape(b, (4, 3)),
                                    np.array([[-0.0, 0.5, -2.0]])),
    "concat_last_axis": lambda a, b: T.concat_last_axis([a, b, a]),
    "dense": lambda a, b: T.dense(a, T.reshape(b, (4, 3)),
                                  np.array([[-0.0, 0.5, -2.0]])),
    "sigmoid": lambda a, b: T.sigmoid(a),
    "reduce_max_over_points": lambda a, b: T.reduce_max_over_points(a),
    "mse": lambda a, b: T.mse(a, b),
    "gather_rows": lambda a, b: T.gather_rows(a, [2, -1, 0, 0]),
    "reshape": lambda a, b: T.reshape(a, (4, 3)),
    "rows_from": lambda a, b: T.rows_from(a, 1),
}


def _assert_same_outside_tape(op, a, b):
    with T.Tape() as tape:
        inside = op(a, b)
    assert tape.entries and tape.entries[-1].output is inside
    outside = op(a, b)
    assert type(inside) is np.ndarray and type(outside) is np.ndarray
    assert outside.shape == inside.shape
    assert np.array_equal(outside, inside)
    assert np.array_equal(np.signbit(outside), np.signbit(inside))
    return inside


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_outside_tape_equals_recorded(name):
    """Outside a Tape an op returns the bits it returns inside one, signed
    zeros included, as a plain ndarray both times."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4))
    a[0, :2] = [0.0, -0.0]
    b = rng.normal(size=(3, 4))
    _assert_same_outside_tape(OP_CASES[name], a, b)


@pytest.mark.parametrize("name", ["add", "mul", "scale"])
def test_op_on_0d_inputs_returns_array(name):
    """numpy returns the 0-d result of these ops as an np.float64 scalar;
    the op hands back a 0-d ndarray, the object the tape recorded."""
    a, b = np.array(-0.0), np.array(1.5)
    inside = _assert_same_outside_tape(OP_CASES[name], a, b)
    assert inside.shape == ()


def test_ops_outside_tape_record_nothing(recorded_ops):
    a = np.ones((3, 4))
    for op in OP_CASES.values():
        op(a, a)
    assert recorded_ops() == 0


def test_op_set_is_closed():
    """Every public function of buildiff.tensor that records through _make
    is an op, and every op has a case in OP_CASES, so none escapes the
    outside-tape bitwise test."""
    tree = ast.parse(inspect.getsource(T))
    ops = {fn.name for fn in tree.body
           if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
           and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_make"
                   for n in ast.walk(fn))}
    assert ops == set(OP_CASES)


def _random_graph_loss(params):
    a, b, w, c = params
    with T.Tape() as tape:
        h = T.dense(a, w, c)
        h = T.concat_last_axis([h, T.mul(h, h)])
        pooled = T.reshape(T.reduce_max_over_points(h), (1, h.shape[1]))
        expanded = T.gather_rows(pooled, np.zeros(b.shape[0], dtype=np.int64))
        picked = T.gather_rows(expanded, [0, 1, 0])
        loss = T.add(T.mse(picked, b), T.scale(_sum_all(h), 1.0 / h.size))
    return loss, tape


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 2))
    w = rng.normal(size=(2, 4))
    b = rng.normal(size=(3, 8))
    c = rng.normal(size=4)
    params = [a, b, w, c]
    loss, tape = _random_graph_loss(params)
    ads = tape.backward(loss, params)
    fd = finite_diff_grad(lambda ps: _random_graph_loss(ps)[0].item(),
                            params, step=1e-6)
    for ad, g in zip(ads, fd, strict=True):
        denom = max(np.abs(g).max(), 1.0)
        assert np.abs(ad - g).max() / denom < 1e-6


def test_tape_determinism():
    def run():
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 4))
        with T.Tape() as tape:
            loss = T.mse(T.linear(a, a, np.zeros(4)), np.eye(4))
            (ga,) = tape.backward(loss, [a])
        return loss.item(), ga.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


class TestAdam:
    def test_zero_grad_no_move(self):
        p = np.array([1.0, -2.0])
        state = AdamState({"p": p}, lr=0.1)
        adam_step(state, {"p": p}, [np.zeros(2)])
        np.testing.assert_allclose(p, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        p = np.array([1.0])
        state = AdamState({"p": p}, lr=0.1)
        adam_step(state, {"p": p}, [np.array([0.37])])
        # bias-corrected first step moves by ~lr in the -sign(g) direction
        assert abs((1.0 - p[0]) - 0.1) < 1e-6
        assert state.step_count == 1

    def test_gradient_count_must_match_params(self):
        """A gradient list of the wrong length raises before anything
        moves: parameters, moments and the step count stay as they were."""
        params = {"a": np.array([1.0]), "b": np.array([2.0])}
        state = AdamState(params, lr=0.1)
        adam_step(state, params, [np.array([0.5]), np.array([-0.5])])
        snapshot = [{k: d[k].copy() for k in params}
                    for d in (params, state.m, state.v)]
        for grads in ([np.array([0.5])], []):
            with pytest.raises(ValueError):
                adam_step(state, params, grads)
            for before, now in zip(snapshot, (params, state.m, state.v)):
                for k in params:
                    assert np.array_equal(now[k], before[k]), k
            assert state.step_count == 1

    def test_unreached_parameter_steps_on_zero_gradient(self):
        """A parameter the loss does not reach steps on a zero gradient,
        not on the one a previous step used: its moments only decay."""
        w = np.array([3.0])
        unreached = np.array([1.0])
        params = {"w": w, "unreached": unreached}
        state = AdamState(params, lr=0.1)
        with T.Tape() as tape:
            loss = T.add(T.mse(w, np.array([0.0])), T.mse(unreached, np.array([0.0])))
        adam_step(state, params, tape.backward(loss, list(params.values())))
        m1, v1 = state.m["unreached"].copy(), state.v["unreached"].copy()
        assert m1[0] != 0.0 and v1[0] != 0.0
        data1 = unreached.copy()
        with T.Tape() as tape:
            loss = T.mse(w, np.array([0.0]))
        adam_step(state, params, tape.backward(loss, list(params.values())))
        m2, v2 = state.m["unreached"], state.v["unreached"]
        assert np.array_equal(m2, m1 * BETA1)
        assert np.array_equal(v2, v1 * BETA2)
        step = 0.1 * (m2 / (1 - BETA1 ** 2)) / (np.sqrt(v2 / (1 - BETA2 ** 2)) + EPS)
        assert np.array_equal(unreached, data1 - step)
        assert state.step_count == 2

    def test_shared_gradient_array_is_read_only(self):
        """add's backward hands one gradient array to both inputs, so two
        parameters can share it: adam_step leaves it as it was, and each
        parameter moves by the closed-form update of that gradient."""
        g = np.array([0.37, -1.5, -0.0, 2e-3, 1e-12])
        g_bytes = g.tobytes()
        a = np.array([1.0, -2.0, 0.5, 3.0, -4.0])
        b = np.array([-1.0, 0.25, 4.0, 0.0, 7.0])
        want = {"a": a.copy(), "b": b.copy()}
        params = {"a": a, "b": b}
        state = AdamState(params, lr=0.1)
        m = v = np.zeros_like(g)
        for t in (1, 2, 3):
            adam_step(state, params, [g, g])
            assert g.tobytes() == g_bytes
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * (g * g)
            step = 0.1 * (m / (1 - BETA1 ** t)) / (np.sqrt(v / (1 - BETA2 ** t)) + EPS)
            for k in params:
                want[k] = want[k] - step
                assert np.array_equal(params[k], want[k]), (k, t)
                assert np.array_equal(state.m[k], m)
                assert np.array_equal(state.v[k], v)

    def test_converges_on_quadratic(self):
        w = np.array([3.0])
        state = AdamState({"w": w}, lr=0.1)
        for _ in range(100):
            with T.Tape() as tape:
                grads = tape.backward(T.mse(w, np.array([2.0])), [w])
            adam_step(state, {"w": w}, grads)
        assert abs(w[0] - 2.0) < 0.05
