import numpy as np
import pytest

from dicap.channels import ChannelSpec, rollout
from dicap.ndt import NdtModel, power_normalize, power_normalize_backward
from dicap.nn import Rng


def test_zero_weights_give_zero_output():
    ndt = NdtModel(1, 1, hidden=4, dense_hidden=3)
    for p in ndt.params():
        p.value[:] = 0.0
    h, c = ndt.zero_state(3)
    raw, _, _, _ = ndt.step(np.random.default_rng(0).standard_normal((3, 1)),
                            None, h, c)
    assert np.all(raw == 0.0)


def test_feedforward_model_rejects_feedback_input():
    ndt = NdtModel(1, 1, hidden=4, dense_hidden=3)
    h, c = ndt.zero_state(2)
    with pytest.raises(ValueError):
        ndt.step(np.zeros((2, 1)), np.zeros((2, 1)), h, c)
    fb_ndt = NdtModel(1, 1, hidden=4, dense_hidden=3, feedback=True)
    with pytest.raises(ValueError):
        fb_ndt.step(np.zeros((2, 1)), None, *fb_ndt.zero_state(2))


def test_causality_without_feedback():
    # open-loop trajectories are a function of the generator noise only:
    # a different channel noise stream must leave x unchanged
    rng = Rng(1)
    ndt = NdtModel(1, 1, hidden=6, dense_hidden=4, gen=rng.stream("init"))
    spec = ChannelSpec("awgn")
    r1 = rollout(ndt, spec, 4, 10, rng.stream("n"), rng.stream("c1"),
                 need_cache=False)
    r2 = rollout(ndt, spec, 4, 10, rng.stream("n"), rng.stream("c2"),
                 need_cache=False)
    assert np.array_equal(r1.x, r2.x)
    assert not np.array_equal(r1.y, r2.y)


def test_causality_with_feedback():
    # x_i may depend on y_{<i} only: editing the noise that forms y at step k
    # must leave x_1..x_k unchanged
    rng = Rng(2)
    ndt = NdtModel(1, 1, hidden=6, dense_hidden=4, feedback=True,
                   gen=rng.stream("init"))
    spec = ChannelSpec("awgn")
    base = rollout(ndt, spec, 3, 8, rng.stream("n"), rng.stream("c"),
                   need_cache=False)

    from dicap.channels import draw_noise

    k = 4
    z = draw_noise(spec, 3, 8, rng.stream("c"))
    z2 = z.copy()
    z2[:, k] += 10.0

    def manual(zmat):
        gen_n = rng.stream("n")
        n = gen_n.standard_normal((3, 8, 1))
        h, c = ndt.zero_state(3)
        fb = np.zeros((3, 1))
        m = ndt.power
        xs = []
        for i in range(8):
            raw, h, c, _ = ndt.step(n[:, i], fb, h, c, need_cache=False)
            m = float(np.mean(raw * raw))
            x = raw * np.sqrt(ndt.power / (m + 1e-12))
            fb = x + zmat[:, i]
            xs.append(x)
        return np.stack(xs, axis=1)

    x1 = manual(z)
    x2 = manual(z2)
    assert np.array_equal(x1, base.x)
    assert np.array_equal(x1[:, :k + 1], x2[:, :k + 1])
    assert not np.array_equal(x1[:, k + 1:], x2[:, k + 1:])


def test_power_normalize_unit_scale_when_already_at_budget():
    gen = np.random.default_rng(3)
    raw = gen.standard_normal((4, 10, 1))
    raw *= np.sqrt(2.0 / np.mean(raw ** 2))
    out, _ = power_normalize(raw, 2.0)
    assert np.allclose(out, raw, rtol=1e-7)


def test_power_normalize_scale_invariance():
    gen = np.random.default_rng(4)
    raw = gen.standard_normal((3, 7, 1))
    a, _ = power_normalize(raw, 1.0)
    b, _ = power_normalize(raw * 10.0, 1.0)
    assert np.allclose(a, b, rtol=1e-7)


def test_power_normalize_hits_budget():
    gen = np.random.default_rng(5)
    raw = 2.0 * gen.standard_normal((8, 100, 1))
    out, _ = power_normalize(raw, 1.0)
    assert np.mean(out ** 2) == pytest.approx(1.0, rel=1e-6)


def test_power_normalize_zero_batch():
    out, _ = power_normalize(np.zeros((2, 3, 1)), 1.0)
    assert np.all(out == 0.0)


def test_power_normalize_backward_matches_finite_differences():
    gen = np.random.default_rng(6)
    raw = gen.standard_normal((2, 5, 1))
    w = gen.standard_normal((2, 5, 1))

    def f(r):
        out, _ = power_normalize(r, 1.5)
        return float(np.sum(out * w))

    out, cache = power_normalize(raw, 1.5)
    dr = power_normalize_backward(cache, w)
    num = np.zeros_like(raw)
    eps = 1e-6
    flat = raw.reshape(-1)
    nflat = num.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(raw)
        flat[i] = orig - eps
        dn = f(raw)
        flat[i] = orig
        nflat[i] = (up - dn) / (2 * eps)
    assert np.allclose(dr, num, atol=1e-5)


def test_rollout_power_constraint_every_batch():
    rng = Rng(7)
    ndt = NdtModel(1, 1, hidden=6, dense_hidden=4, power=2.5,
                   gen=rng.stream("init"))
    for i in range(5):
        ro = rollout(ndt, ChannelSpec("awgn"), 8, 16, rng.stream(f"n{i}"),
                     rng.stream(f"c{i}"), need_cache=False)
        assert ro.realized_power == pytest.approx(2.5, rel=1e-6)


def test_rollout_determinism():
    rng = Rng(8)
    ndt = NdtModel(1, 1, hidden=5, dense_hidden=4, gen=rng.stream("init"))
    a = rollout(ndt, ChannelSpec("ma1", alpha=0.3), 3, 9, rng.stream("n"),
                rng.stream("c"), need_cache=False)
    b = rollout(ndt, ChannelSpec("ma1", alpha=0.3), 3, 9, rng.stream("n"),
                rng.stream("c"), need_cache=False)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_zero_learning_rate_leaves_params():
    from dicap.nn import Adam
    rng = Rng(11)
    ndt = NdtModel(1, 1, hidden=4, dense_hidden=3, gen=rng.stream("init"))
    before = [p.value.copy() for p in ndt.params()]
    opt = Adam(ndt.params(), lr=0.0)
    for p in ndt.params():
        p.grad[:] = 1.0
    opt.step()
    for p, b in zip(ndt.params(), before):
        assert np.array_equal(p.value, b)
