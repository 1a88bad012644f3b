import numpy as np
import pytest

from dicap.channels import ChannelSpec, rollout
from dicap.ndt import NdtModel, power_normalize, power_normalize_backward
from dicap.nn import Rng


def test_zero_weights_give_zero_output():
    ndt = NdtModel(hidden=4, gen=np.random.default_rng(0))
    for p in ndt.params():
        p.value[:] = 0.0
    h, c = ndt.zero_state(3)
    raw, _, _, _ = ndt.step(np.random.default_rng(0).standard_normal((3, 1)),
                            None, h, c)
    assert np.all(raw == 0.0)


def test_feedforward_model_rejects_feedback_input():
    ndt = NdtModel(hidden=4, gen=np.random.default_rng(0))
    h, c = ndt.zero_state(2)
    with pytest.raises(ValueError, match="lstm input dim"):
        ndt.step(np.zeros((2, 1)), np.zeros((2, 1)), h, c)
    fb_ndt = NdtModel(hidden=4, feedback=True,
                      gen=np.random.default_rng(0))
    with pytest.raises(ValueError, match="lstm input dim"):
        fb_ndt.step(np.zeros((2, 1)), None, *fb_ndt.zero_state(2))


def test_causality_without_feedback():
    # open-loop trajectories are a function of the generator noise only:
    # a different channel noise stream must leave x unchanged
    rng = Rng(1)
    ndt = NdtModel(hidden=6, gen=rng.stream("init"))
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
    ndt = NdtModel(hidden=6, feedback=True, gen=rng.stream("init"))
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
            raw, h, c, _ = ndt.step(n[:, i], fb, h, c)
            m = float(np.mean(raw * raw))
            x = raw * np.sqrt(ndt.power / m)
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


def test_power_normalize_zero_batch_backward():
    raw = np.zeros((2, 3, 1))
    with np.errstate(all="raise"):
        out, cache = power_normalize(raw, 1.0)
        d = power_normalize_backward(cache, np.ones_like(raw))
    assert np.all(d == 0.0)


@pytest.mark.parametrize("mean_square", [1e-4, 1e-9])
def test_power_normalize_exact_for_small_outputs(mean_square):
    raw = np.random.default_rng(9).standard_normal((64, 20, 1))
    raw *= np.sqrt(mean_square / np.mean(raw * raw))
    out, _ = power_normalize(raw, 1.0)
    assert abs(np.mean(out * out) - 1.0) < 1e-14


def _raw_mean_square(ndt, rng, batch, steps):
    """Mean square of the raw generator outputs of ``rollout`` with the
    streams ``n`` and ``c`` of ``rng``."""
    from dicap.channels import draw_noise
    z = draw_noise(ChannelSpec("awgn"), batch, steps, rng.stream("c"))
    n = rng.stream("n").standard_normal((batch, steps, 1))
    h, c = ndt.zero_state(batch)
    fb = np.zeros((batch, 1)) if ndt.feedback else None
    total = 0.0
    for i in range(steps):
        raw, h, c, _ = ndt.step(n[:, i], fb, h, c)
        ms = float(np.mean(raw * raw))
        if ndt.feedback:
            fb = raw * np.sqrt(ndt.power / ms) + z[:, i]
        total += ms
    return total / steps


@pytest.mark.parametrize("feedback", [False, True])
@pytest.mark.parametrize("mean_square", [1e-4, 1e-9])
def test_rollout_power_exact_for_small_raw_outputs(feedback, mean_square):
    # dense2 is linear, so scaling it scales the raw outputs; the normalized
    # outputs, and so the fed-back ones, do not depend on that scale
    rng = Rng(13)
    ndt = NdtModel(hidden=6, feedback=feedback, gen=rng.stream("init"))
    ndt.dense2.W.value *= np.sqrt(
        mean_square / _raw_mean_square(ndt, rng, 16, 12))
    assert _raw_mean_square(ndt, rng, 16, 12) == pytest.approx(mean_square)
    ro = rollout(ndt, ChannelSpec("awgn"), 16, 12, rng.stream("n"),
                 rng.stream("c"), need_cache=False)
    assert abs(ro.realized_power - 1.0) < 1e-14


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
    ndt = NdtModel(hidden=6, power=2.5, gen=rng.stream("init"))
    for i in range(5):
        ro = rollout(ndt, ChannelSpec("awgn"), 8, 16, rng.stream(f"n{i}"),
                     rng.stream(f"c{i}"), need_cache=False)
        assert ro.realized_power == pytest.approx(2.5, rel=1e-6)


def test_feedback_rollout_power_constraint_every_step():
    # with feedback each step is normalized by its own batch mean square
    rng = Rng(7)
    ndt = NdtModel(hidden=6, power=2.5, feedback=True, gen=rng.stream("init"))
    ro = rollout(ndt, ChannelSpec("awgn"), 8, 16, rng.stream("n"),
                 rng.stream("c"), need_cache=False)
    for i in range(16):
        assert abs(np.mean(ro.x[:, i] ** 2) - 2.5) < 1e-12


def test_rollout_determinism():
    rng = Rng(8)
    ndt = NdtModel(hidden=5, gen=rng.stream("init"))
    a = rollout(ndt, ChannelSpec("ma1", alpha=0.3), 3, 9, rng.stream("n"),
                rng.stream("c"), need_cache=False)
    b = rollout(ndt, ChannelSpec("ma1", alpha=0.3), 3, 9, rng.stream("n"),
                rng.stream("c"), need_cache=False)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_zero_learning_rate_leaves_params():
    from dicap.nn import Adam
    rng = Rng(11)
    ndt = NdtModel(hidden=4, gen=rng.stream("init"))
    before = [p.value.copy() for p in ndt.params()]
    opt = Adam(ndt.params(), lr=0.0)
    for p in ndt.params():
        p.grad[:] = 1.0
    opt.step()
    for p, b in zip(ndt.params(), before):
        assert np.array_equal(p.value, b)
