import numpy as np
import pytest

from dicap.channels import ChannelSpec, draw_noise, rollout
from dicap.ndt import NdtModel
from dicap.nn import Rng


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("laplace")
    with pytest.raises(ValueError):
        ChannelSpec("awgn", sigma2=0.0)
    with pytest.raises(ValueError):
        ChannelSpec("ma1", sigma2=2.0)
    for alpha in (3.0, -0.5):
        with pytest.raises(ValueError):
            ChannelSpec("awgn", alpha=alpha)
    for kwargs in (dict(alpha=np.nan), dict(alpha=np.inf),
                   dict(alpha=-np.inf)):
        with pytest.raises(ValueError):
            ChannelSpec("ma1", **kwargs)
    for sigma2 in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ChannelSpec("awgn", sigma2=sigma2)


def test_ma1_alpha_zero_matches_awgn_bit_exact():
    rng = Rng(0)
    za = draw_noise(ChannelSpec("awgn", sigma2=1.0), 4, 100, rng.stream("z"))
    zm = draw_noise(ChannelSpec("ma1", alpha=0.0), 4, 100, rng.stream("z"))
    assert np.array_equal(za, zm)


def test_awgn_noise_passthrough_variance():
    gen = Rng(1).stream("z")
    z = draw_noise(ChannelSpec("awgn", sigma2=2.0), 10, 10000, gen)
    assert np.var(z) == pytest.approx(2.0, rel=0.05)


def test_ma1_autocovariance():
    # x = 0: y = z; var 1 + a^2, lag-1 autocovariance a
    alpha = 0.5
    gen = Rng(2).stream("z")
    z = draw_noise(ChannelSpec("ma1", alpha=alpha), 1, 10 ** 6, gen)[0, :, 0]
    n = z.size
    var = np.var(z)
    lag1 = np.mean(z[1:] * z[:-1])
    # 3 sigma bands from the MA(1) estimator variance (order of 1/sqrt(n))
    assert abs(var - (1 + alpha ** 2)) < 3 * 2.0 / np.sqrt(n)
    assert abs(lag1 - alpha) < 3 * 2.0 / np.sqrt(n)


def test_channel_step_contract():
    # each MA(1) channel use carries the previous innovation: replaying the
    # same stream by hand gives z_0 = u_0 and z_1 = alpha * u_0 + u_1
    spec = ChannelSpec("ma1", alpha=0.5)
    z = draw_noise(spec, 3, 2, Rng(3).stream("z"))
    assert z.shape == (3, 2, 1)
    u = Rng(3).stream("z").standard_normal((3, 2, 1))
    assert np.array_equal(z[:, 0], u[:, 0])
    assert np.allclose(z[:, 1], 0.5 * u[:, 0] + u[:, 1])
    # the per-step feedback rollout applies y_i = x_i + z_i at every use
    rng = Rng(3)
    ndt = NdtModel(hidden=4, feedback=True, gen=rng.stream("init"))
    ro = rollout(ndt, spec, 3, 6, rng.stream("n"), rng.stream("c"),
                 need_cache=False)
    z = draw_noise(spec, 3, 6, rng.stream("c"))
    assert np.array_equal(ro.y, ro.x + z)


def test_channel_step_awgn_stateless():
    # AWGN has no memory: one (B, T, 1) draw, scaled by the noise std
    z = draw_noise(ChannelSpec("awgn", sigma2=4.0), 2, 5, Rng(4).stream("z"))
    assert z.shape == (2, 5, 1)
    u = Rng(4).stream("z").standard_normal((2, 5, 1))
    assert np.array_equal(z, 2.0 * u)


def test_rollout_zero_generator_gives_pure_noise():
    rng = Rng(5)
    ndt = NdtModel(hidden=4, gen=rng.stream("init"))
    for p in ndt.params():
        p.value[:] = 0.0
    spec = ChannelSpec("awgn")
    ro = rollout(ndt, spec, 3, 12, rng.stream("n"), rng.stream("c"),
                 need_cache=False)
    z = draw_noise(spec, 3, 12, rng.stream("c"))
    assert np.all(ro.x == 0.0)
    assert np.array_equal(ro.y, z)


def test_feedback_with_zeroed_feedback_weights_matches_open_loop():
    # silencing the fed-back input columns must reproduce the feedforward
    # trajectories under identical seeds
    rng = Rng(6)
    ff = NdtModel(hidden=5, gen=rng.stream("init"))
    fb = NdtModel(hidden=5, feedback=True, gen=rng.stream("other"))
    # copy shared weights; the row of W on the fed-back input is zeroed
    # (W's rows are [noise, fed-back output, h, bias])
    fb.cell.W.value[:1] = ff.cell.W.value[:1]
    fb.cell.W.value[1] = 0.0
    fb.cell.W.value[2:] = ff.cell.W.value[1:]
    for a, b in ((fb.dense1, ff.dense1), (fb.dense2, ff.dense2)):
        a.W.value[:] = b.W.value
        a.b.value[:] = b.b.value
    spec = ChannelSpec("ma1", alpha=0.5)
    r_ff = rollout(ff, spec, 4, 10, rng.stream("n"), rng.stream("c"),
                   need_cache=False)
    r_fb = rollout(fb, spec, 4, 10, rng.stream("n"), rng.stream("c"),
                   need_cache=False)
    # feedback mode normalizes per step, open loop over the whole batch;
    # compare the un-normalized structure via the noise realization
    z = draw_noise(spec, 4, 10, rng.stream("c"))
    assert np.array_equal(r_ff.y, r_ff.x + z)
    assert np.array_equal(r_fb.y, r_fb.x + z)
    # per-step power vs batch power differ; direction must match
    assert np.allclose(np.sign(r_ff.x), np.sign(r_fb.x))


def test_channel_noise_paired_across_generators():
    # same seed, different generator: identical noise realization
    rng = Rng(7)
    spec = ChannelSpec("ma1", alpha=0.5)
    ndt1 = NdtModel(hidden=4, gen=rng.stream("a"))
    ndt2 = NdtModel(hidden=4, gen=rng.stream("b"))
    r1 = rollout(ndt1, spec, 3, 8, rng.stream("n"), rng.stream("c"),
                 need_cache=False)
    r2 = rollout(ndt2, spec, 3, 8, rng.stream("n"), rng.stream("c"),
                 need_cache=False)
    z = draw_noise(spec, 3, 8, rng.stream("c"))
    assert np.array_equal(r1.y, r1.x + z)
    assert np.array_equal(r2.y, r2.x + z)
    assert not np.array_equal(r1.x, r2.x)


def test_stationarity_of_windowed_moments():
    rng = Rng(8)
    ndt = NdtModel(hidden=6, gen=rng.stream("init"))
    ro = rollout(ndt, ChannelSpec("ma1", alpha=0.5), 200, 400,
                 rng.stream("n"), rng.stream("c"), need_cache=False)
    # drop the initial transient, then compare window moments
    y = ro.y[:, 100:, 0]
    w1, w2 = y[:, :150], y[:, 150:]
    se = 3.0 / np.sqrt(w1.size)
    assert abs(w1.mean() - w2.mean()) < 4 * se
    assert abs(w1.var() - w2.var()) < 8 * se


def test_pathwise_derivative_is_identity():
    # finite difference of y w.r.t. x at fixed noise is exactly 1
    rng = Rng(9)
    spec = ChannelSpec("ma1", alpha=0.5)
    z = draw_noise(spec, 2, 5, rng.stream("c"))
    x = rng.stream("x").standard_normal((2, 5, 1))
    y1 = x + z
    dx = np.zeros_like(x)
    dx[0, 2, 0] = 1e-3
    y2 = (x + dx) + z
    assert np.allclose((y2 - y1) / 1e-3, dx / 1e-3 * 1.0)
