import warnings

import numpy as np
import pytest

from dicap import baselines as bl

LN2 = np.log(2.0)


def test_awgn_zero_power():
    assert bl.awgn_capacity(0.0) == 0.0


def test_awgn_known_values():
    assert bl.awgn_capacity(1.0, 1.0) == pytest.approx(0.5 * np.log(2.0))
    assert bl.awgn_capacity(3.0, 1.0) == pytest.approx(np.log(2.0))


def test_awgn_invalid_params():
    with pytest.raises(ValueError):
        bl.awgn_capacity(-1.0)
    with pytest.raises(ValueError):
        bl.awgn_capacity(1.0, 0.0)


def test_waterfilling_flat_spectrum_reduces_to_awgn():
    for p in (0.25, 1.0, 4.0):
        got = bl.ma1_ff_capacity(p, 0.0).capacity_nats
        assert got == pytest.approx(bl.awgn_capacity(p, 1.0), abs=1e-8)


def test_waterfilling_zero_power():
    assert bl.ma1_ff_capacity(0.0, 0.5).capacity_nats == 0.0


def test_waterfilling_against_dense_grid_oracle():
    # independent brute force: rectangle rule on a 1e6-point grid, scanning
    # the water level by bisection on the same dense grid
    p, alpha = 1.0, 0.5
    omega = (np.arange(10 ** 6) + 0.5) * np.pi / 10 ** 6
    sz = bl.ma1_noise_psd(omega, alpha)

    def allocated(nu):
        return np.mean(np.maximum(nu - sz, 0.0))

    lo, hi = float(sz.min()), float(sz.max()) + p + 1.0
    for _ in range(80):
        nu = 0.5 * (lo + hi)
        if allocated(nu) > p:
            hi = nu
        else:
            lo = nu
    nu = 0.5 * (lo + hi)
    brute = 0.5 * np.mean(np.log(np.maximum(nu, sz) / sz))
    simpson = bl.ma1_ff_capacity(p, alpha).capacity_nats
    assert simpson == pytest.approx(brute, abs=1e-6)


def test_waterfilling_power_allocation_integral():
    sol = bl.ma1_ff_capacity(2.0, 0.5)
    assert abs(sol.power_gap) < 1e-8


def test_waterfilling_sign_symmetry():
    for p in (0.5, 1.0, 2.0):
        for a in (0.1, 0.5, 0.9, 1.0):
            pos = bl.ma1_ff_capacity(p, a).capacity_nats
            neg = bl.ma1_ff_capacity(p, -a).capacity_nats
            assert pos == pytest.approx(neg, abs=1e-8)


def test_fb_alpha_zero_reduces_to_awgn():
    for p in (0.25, 1.0, 4.0):
        sol = bl.ma1_fb_capacity(p, 0.0)
        assert sol.capacity_nats == pytest.approx(bl.awgn_capacity(p), abs=1e-9)
        assert sol.root == pytest.approx(1.0 / np.sqrt(1.0 + p), abs=1e-9)


def test_fb_dominates_ff():
    for a in (0.5, 1.0, -1.0):
        fb = bl.ma1_fb_capacity(1.0, a).capacity_nats
        ff = bl.ma1_ff_capacity(1.0, a).capacity_nats
        assert np.isfinite(ff)
        assert fb > ff
    # the spectral null of |alpha| = 1 is integrated in closed form
    assert bl.ma1_ff_capacity(1.0, 1.0).capacity_nats == pytest.approx(
        0.5430377587, abs=1e-9)


def test_fb_large_alpha_maps_to_equivalent_channel():
    # S_Z for alpha is alpha^2 times S_Z for 1/alpha, so the channel with
    # (P, alpha) has the capacity of the one with (P / alpha^2, 1 / alpha)
    for a in (2.0, -2.0, 3.0):
        for p in (0.5, 1.0, 2.0):
            fb = bl.ma1_fb_capacity(p, a).capacity_nats
            mapped = bl.ma1_fb_capacity(p / (a * a), 1.0 / a).capacity_nats
            assert fb == mapped
            assert fb >= bl.ma1_ff_capacity(p, a).capacity_nats
    assert bl.ma1_fb_capacity(1.0, 2.0).capacity_nats == pytest.approx(
        0.25524, abs=1e-5)


def test_fb_vanishes_with_power():
    assert bl.ma1_fb_capacity(1e-9, 0.5).capacity_nats < 1e-4


def test_fb_requires_positive_power():
    with pytest.raises(ValueError):
        bl.ma1_fb_capacity(0.0, 0.5)


def test_fb_validation_gate():
    # the quartic form against the closed forms: alpha = 0 reduces to the
    # memoryless capacity, and feedback never loses to feedforward
    failures = []
    for p in (0.25, 0.5, 1.0, 2.0, 4.0):
        got = bl.ma1_fb_capacity(p, 0.0).capacity_nats
        want = bl.awgn_capacity(p, 1.0)
        if abs(got - want) > 1e-9:
            failures.append(f"alpha=0 reduction at P={p}: {got} vs {want}")
        for a in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0, 1.5, -1.5,
                  2.0, -2.0, 3.0, -3.0):
            fb = bl.ma1_fb_capacity(p, a).capacity_nats
            ff = bl.ma1_ff_capacity(p, a).capacity_nats
            if fb < ff - 1e-9:
                failures.append(f"FB < FF at P={p}, alpha={a}: {fb} vs {ff}")
    assert not failures, failures


def test_capacities_nondecreasing_in_power():
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    for fn in (lambda p: bl.awgn_capacity(p),
               lambda p: bl.ma1_ff_capacity(p, 0.5).capacity_nats,
               lambda p: bl.ma1_fb_capacity(p, 0.5).capacity_nats):
        vals = [fn(p) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gaussian_oracle_memoryless_is_exact_and_n_independent():
    for n in (4, 64, 256):
        got = bl.gaussian_di_oracle(1.0, 0.0, n)
        assert got["rate_nats"] == pytest.approx(0.5 * LN2, abs=1e-12)
        assert got["rate_nats_2n"] == pytest.approx(0.5 * LN2, abs=1e-12)


def test_gaussian_oracle_zero_power():
    assert bl.gaussian_di_oracle(0.0, 0.5, 64)["rate_nats"] == pytest.approx(0.0)


def test_gaussian_oracle_converges_to_spectral_integral():
    got = bl.gaussian_di_oracle(1.0, 0.5, 1024)
    spectral = bl.gaussian_di_spectral(1.0, 0.5)
    assert got["rate_nats"] == pytest.approx(spectral, abs=2e-4)
    # the 2n value must be closer to the limit than the n value
    assert abs(got["rate_nats_2n"] - spectral) < abs(got["rate_nats"] - spectral)


def test_gaussian_spectral_finite_at_unit_alpha():
    # the noise spectrum's null falls on a quadrature node at |alpha| = 1.
    # There S_Z + 1 = 3 + 2 cos w and the rate is log of the golden ratio
    # (int_0^2pi log(a + b cos w) dw = 2 pi log((a + sqrt(a^2 - b^2)) / 2));
    # a midpoint rule of the original integrand, whose nodes miss the null,
    # approaches it with an O(h) error from the log singularity
    exact = np.log((1.0 + np.sqrt(5.0)) / 2.0)
    omega = (np.arange(10 ** 6) + 0.5) * np.pi / 10 ** 6
    for alpha in (1.0, -1.0):
        midpoint = 0.5 * np.mean(np.log1p(1.0 / bl.ma1_noise_psd(omega, alpha)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bl.gaussian_di_spectral(1.0, alpha)
        assert got == pytest.approx(exact, abs=1e-12)
        assert got == pytest.approx(midpoint, abs=2e-6)


def test_gaussian_spectral_unchanged_off_the_null():
    # Simpson's rule on log1p(P / S_Z), the form used before Jensen's formula
    omega = np.linspace(0.0, np.pi, 2 ** 16 + 1)
    for alpha in (0.0, 0.5, 0.99, -0.9, 2.0):
        direct = bl._simpson(np.log1p(1.0 / bl.ma1_noise_psd(omega, alpha)),
                             omega[1]) / (2.0 * np.pi)
        assert abs(bl.gaussian_di_spectral(1.0, alpha) - direct) <= 1e-12


def test_gaussian_spectral_power_domain():
    assert bl.gaussian_di_spectral(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        bl.gaussian_di_spectral(-1.0, 0.5)
