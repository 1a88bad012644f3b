import numpy as np
import pytest

from dicap.nn import (Adam, Dense, GradientError, LstmCell, ParamBlock, Rng,
                      grad_check)


def test_rng_streams_are_independent_and_reproducible():
    rng = Rng(7)
    a1 = rng.stream("channel").standard_normal(5)
    a2 = rng.stream("channel").standard_normal(5)
    b = rng.stream("ndt").standard_normal(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    c = Rng(8).stream("channel").standard_normal(5)
    assert not np.array_equal(a1, c)


def test_dense_identity():
    layer = Dense(2, 2, "linear", np.random.default_rng(0))
    layer.W.value[:] = np.eye(2)
    layer.b.value[:] = 0.0
    x = np.array([[1.5], [-2.0]])
    out, _ = layer.forward(x)
    assert np.array_equal(out, x)


def test_dense_constant_bias():
    layer = Dense(3, 2, "linear", np.random.default_rng(0))
    layer.W.value[:] = 0.0
    layer.b.value[:] = [4.0, -1.0]
    out, _ = layer.forward(np.random.default_rng(0).standard_normal((3, 6)))
    assert np.allclose(out, [[4.0], [-1.0]])


def test_dense_shape_mismatch():
    layer = Dense(3, 2, "tanh", np.random.default_rng(0))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((4, 5)))


def test_dense_gradient_matches_finite_differences():
    gen = np.random.default_rng(3)
    layer = Dense(3, 4, "linear", gen)
    x = gen.standard_normal((5, 3)).T

    def loss():
        for p in layer.params():
            p.zero_grad()
        out, cache = layer.forward(x)
        layer.backward(cache, np.ones_like(out))
        return float(out.sum())

    report = grad_check(loss, layer.params(), step=1e-5)
    assert max(report.values()) < 1e-6


def test_lstm_zero_fixed_point():
    cell = LstmCell(2, 3, np.random.default_rng(0))
    for p in cell.params():
        p.value[:] = 0.0
    h, c = cell.zero_state(4)
    h2, c2, _ = cell.step(np.zeros((4, 2)), h, c)
    assert np.all(h2 == 0.0)
    assert np.all(c2 == 0.0)


def test_lstm_gate_saturation_preserves_cell():
    # forget gate saturated open, input gate saturated closed: c' ~ c
    cell = LstmCell(1, 3, np.random.default_rng(0))
    H = 3
    cell.W.value[:] = 0.0
    cell.W.value[-1, :H] = -50.0        # input gate bias: gate ~ 0
    cell.W.value[-1, H:2 * H] = 50.0    # forget gate bias: gate ~ 1
    c = np.array([[0.3, -1.2, 0.8]]).T
    h = np.zeros((3, 1))
    _, c2, _ = cell.step(np.array([[2.0]]), h, c)
    assert np.allclose(c2, c, atol=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_lstm_extreme_preactivations_give_exact_gates(sign):
    # bias rows of +-800 drive the sigmoid gates to exactly 0 or 1 without
    # an overflow or underflow reaching the caller
    H = 3
    cell = LstmCell(1, H, np.random.default_rng(0))
    cell.W.value[:-1] = 0.0
    cell.W.value[-1, :3 * H] = [-800.0] * H + [800.0] * H + [sign * 800.0] * H
    cell.W.value[-1, 3 * H:] = [0.5, -0.25, 1.0]
    c = np.array([[0.3, -1.2, 0.8]]).T
    with np.errstate(all="raise"):
        h2, c2, _ = cell.step(np.array([[2.0]]), np.zeros((H, 1)), c)
    assert np.array_equal(c2, c)                # input gate 0, forget gate 1
    expect = np.tanh(c) if sign > 0 else np.zeros_like(c)   # output gate 1/0
    assert np.array_equal(h2, expect)
    cell.W.value[-1, :2 * H] *= -1.0
    with np.errstate(all="raise"):
        _, c2, _ = cell.step(np.array([[2.0]]), np.zeros((H, 1)), c)
    assert np.array_equal(c2, np.tanh([[0.5], [-0.25], [1.0]]))


def _unfused(W, in_dim):
    """A fused (in_dim + H + 1, 4H) matrix, gates [i, f, o, g], as the
    textbook Wx, Wh and b with gates [i, f, g, o]."""
    i, f, o, g = np.split(W, 4, axis=1)
    w = np.concatenate([i, f, g, o], axis=1)
    return w[:in_dim], w[in_dim:-1], w[-1]


def _tanh_sigmoid(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


class _ReferenceCell:
    """Textbook batch-major LSTM: z = x Wx + h Wh + b, gates [i, f, g, o],
    sigmoid via tanh."""

    def __init__(self, Wx, Wh, b):
        self.Wx, self.Wh, self.b = Wx, Wh, b
        self.dWx, self.dWh, self.db = (np.zeros_like(Wx), np.zeros_like(Wh),
                                       np.zeros_like(b))

    def step(self, x, h, c):
        H = h.shape[1]
        z = x @ self.Wx + h @ self.Wh + self.b
        i, f = _tanh_sigmoid(z[:, :H]), _tanh_sigmoid(z[:, H:2 * H])
        g, o = np.tanh(z[:, 2 * H:3 * H]), _tanh_sigmoid(z[:, 3 * H:])
        c2 = f * c + i * g
        tc2 = np.tanh(c2)
        return o * tc2, c2, (x, h, c, i, f, g, o, tc2)

    def backward_step(self, cache, dh2, dc2):
        x, h, c, i, f, g, o, tc2 = cache
        dc_tot = dc2 + dh2 * o * (1.0 - tc2 * tc2)
        dz = np.concatenate([dc_tot * g * i * (1.0 - i),
                             dc_tot * c * f * (1.0 - f),
                             dc_tot * i * (1.0 - g * g),
                             dh2 * tc2 * o * (1.0 - o)], axis=1)
        self.dWx += x.T @ dz
        self.dWh += h.T @ dz
        self.db += dz.sum(axis=0)
        return dz @ self.Wx.T, dz @ self.Wh.T, dc_tot * f


def test_lstm_matches_textbook_reference_cell():
    gen = np.random.default_rng(8)
    cell = LstmCell(2, 4, gen)
    ref = _ReferenceCell(*_unfused(cell.W.value, 2))
    steps, B = 5, 3
    xs = gen.standard_normal((steps, B, 2))
    w = gen.standard_normal((steps, B, 4))
    h, c = cell.zero_state(B)
    rh, rc = np.zeros((B, 4)), np.zeros((B, 4))
    caches, rcaches = [], []
    for t in range(steps):
        h, c, cache = cell.step(xs[t], h, c)
        rh, rc, rcache = ref.step(xs[t], rh, rc)
        caches.append(cache)
        rcaches.append(rcache)
        assert np.allclose(h.T, rh, rtol=0, atol=1e-12)
        assert np.allclose(c.T, rc, rtol=0, atol=1e-12)
    dh, dc = np.zeros((4, B)), np.zeros((4, B))
    rdh, rdc = np.zeros((B, 4)), np.zeros((B, 4))
    for t in reversed(range(steps)):
        dx, dh, dc = cell.backward_step(caches[t], dh + w[t].T, dc)
        rdx, rdh, rdc = ref.backward_step(rcaches[t], rdh + w[t], rdc)
        assert np.allclose(dx, rdx, rtol=1e-9, atol=0)
    for got, want in zip(_unfused(cell.W.grad, 2), (ref.dWx, ref.dWh, ref.db)):
        assert np.allclose(got, want, rtol=1e-9, atol=0)


def test_lstm_two_branches_match_two_single_steps():
    # a k = 2 step from one state is two k = 1 steps from that state; its
    # backward sums their h and c gradients and accumulates their W grads
    gen = np.random.default_rng(12)
    cell = LstmCell(2, 4, gen)
    one = LstmCell(2, 4, np.random.default_rng(12))
    B = 3
    x = gen.standard_normal((2 * B, 2))
    h, c = gen.standard_normal((4, B)), gen.standard_normal((4, B))
    h2, c2, cache = cell.step(x, h, c)
    ha, ca, cache_a = one.step(x[:B], h, c)
    hb, cb, cache_b = one.step(x[B:], h, c)
    assert h2.shape == c2.shape == (4, 2 * B)
    assert np.allclose(h2, np.hstack([ha, hb]), rtol=0, atol=1e-15)
    assert np.allclose(c2, np.hstack([ca, cb]), rtol=0, atol=1e-15)

    dh2 = gen.standard_normal((4, 2 * B))
    dc2 = gen.standard_normal((4, B))
    dx, dh, dc = cell.backward_step(cache, dh2, dc2)
    dxa, dha, dca = one.backward_step(cache_a, dh2[:, :B], dc2)
    dxb, dhb, dcb = one.backward_step(cache_b, dh2[:, B:], np.zeros((4, B)))
    assert dh.shape == dc.shape == (4, B)
    assert np.allclose(dh, dha + dhb, rtol=0, atol=1e-15)
    assert np.allclose(dc, dca + dcb, rtol=0, atol=1e-15)
    assert np.allclose(dx, np.vstack([dxa, dxb]), rtol=0, atol=1e-15)
    assert np.allclose(cell.W.grad, one.W.grad, rtol=1e-12, atol=0)


def test_lstm_step_rejects_rows_that_are_not_branches():
    cell = LstmCell(2, 3, np.random.default_rng(0))
    h, c = cell.zero_state(4)
    with pytest.raises(ValueError):
        cell.step(np.zeros((6, 2)), h, c)


def test_lstm_init_reproduces_separate_draws():
    # W holds the values that separate Wx, Wh and b drew before the fused
    # layout, and the generator is left in the same state
    used = np.random.default_rng(4)
    cell = LstmCell(2, 3, used)
    gen = np.random.default_rng(4)
    k = 1.0 / np.sqrt(5)
    Wx = gen.uniform(-k, k, size=(2, 12))
    Wh = gen.uniform(-k, k, size=(3, 12))
    b = np.zeros(12)
    b[3:6] = 1.0
    for got, want in zip(_unfused(cell.W.value, 2), (Wx, Wh, b)):
        assert np.array_equal(got, want)
    assert cell.W.value.flags.c_contiguous
    assert used.uniform() == gen.uniform()


def test_lstm_bptt_matches_finite_differences():
    gen = np.random.default_rng(11)
    cell = LstmCell(2, 4, gen)
    xs = gen.standard_normal((5, 3, 2))

    def loss():
        for p in cell.params():
            p.zero_grad()
        h, c = cell.zero_state(3)
        caches = []
        for i in range(5):
            h, c, cache = cell.step(xs[i], h, c)
            caches.append(cache)
        total = float(h.sum())
        dh = np.ones_like(h)
        dc = np.zeros_like(c)
        for i in reversed(range(5)):
            _, dh, dc = cell.backward_step(caches[i], dh, dc)
        return total

    report = grad_check(loss, cell.params(), step=1e-5)
    assert max(report.values()) < 1e-5


def test_lstm_step_does_not_mutate_inputs():
    gen = np.random.default_rng(2)
    cell = LstmCell(2, 3, gen)
    x = gen.standard_normal((4, 2))
    h, c = cell.zero_state(4)
    x0, h0, c0 = x.copy(), h.copy(), c.copy()
    cell.step(x, h, c)
    assert np.array_equal(x, x0)
    assert np.array_equal(h, h0)
    assert np.array_equal(c, c0)


def test_grad_check_on_permuted_columns():
    # a fancy-indexed value is not C-contiguous; the block must hold a copy
    # that grad_check's reshape(-1) perturbs in place
    a = np.random.default_rng(1).standard_normal((3, 4))
    p = ParamBlock("w", a[:, [0, 2, 1, 3]])

    def loss():
        p.zero_grad()
        p.grad += 2.0 * p.value
        return float(np.sum(p.value * p.value))

    assert max(grad_check(loss, [p]).values()) < 1e-6


def test_adam_zero_gradient_leaves_params():
    p = ParamBlock("w", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1)
    opt.step()
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adam_ascends_along_gradient_sign():
    p = ParamBlock("w", np.zeros(3))
    opt = Adam([p], lr=0.01)
    for _ in range(50):
        p.grad[:] = [1.0, -2.0, 0.5]
        opt.step()
    assert np.all(np.sign(p.value) == [1.0, -1.0, 1.0])


def test_adam_maximizes_concave_quadratic():
    # objective -(w - 3)^2, gradient -2(w - 3); ascent converges to w = 3
    p = ParamBlock("w", np.array([0.0]))
    opt = Adam([p], lr=1e-2)
    for _ in range(2000):
        p.zero_grad()
        p.grad[:] = -2.0 * (p.value - 3.0)
        opt.step()
    assert abs(p.value[0] - 3.0) < 1e-3


@pytest.mark.parametrize("scale, factor", [(1.0, 0.2), (0.1, 1.0)])
def test_adam_clips_at_global_norm_one_across_blocks(scale, factor):
    # blocks of gradient norm 3 and 4 (together 5) are scaled by 1/5 as
    # one vector; at a global norm of 0.5 nothing is clipped
    a, b = ParamBlock("a", np.zeros(2)), ParamBlock("b", np.zeros(1))
    opt = Adam([a, b], lr=0.1)
    ga, gb = scale * np.array([3.0, 0.0]), scale * np.array([-4.0])
    a.grad[:], b.grad[:] = ga, gb
    opt.step()
    np.testing.assert_allclose(opt.m["a"], 0.1 * ga * factor, rtol=1e-15)
    np.testing.assert_allclose(opt.m["b"], 0.1 * gb * factor, rtol=1e-15)


def test_adam_rejects_nonfinite_gradient():
    p = ParamBlock("bad_block", np.zeros(2))
    opt = Adam([p])
    p.grad[:] = [np.nan, 0.0]
    with pytest.raises(GradientError, match="bad_block"):
        opt.step()


def test_adam_rejects_duplicate_names():
    a = ParamBlock("w", np.zeros(1))
    b = ParamBlock("w", np.zeros(1))
    with pytest.raises(ValueError):
        Adam([a, b])


def test_forward_determinism():
    gen = np.random.default_rng(5)
    cell = LstmCell(2, 4, gen)
    x = gen.standard_normal((3, 2))
    h, c = cell.zero_state(3)
    h1, c1, _ = cell.step(x, h, c)
    h2, c2, _ = cell.step(x, h, c)
    assert np.array_equal(h1, h2)
    assert np.array_equal(c1, c2)
