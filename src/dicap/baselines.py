"""Analytic ground truths for the Gaussian channels used in validation.

All values are in nats per channel use. Covers the memoryless additive
Gaussian channel, the MA(1) colored-noise channel without feedback
(water-filling over the noise spectrum) and with feedback (root of a
quartic), plus a covariance-determinant oracle for directed-information
rates of jointly Gaussian open-loop systems.
"""

from dataclasses import dataclass

import numpy as np


def awgn_capacity(power, sigma2=1.0):
    """Capacity of Y = X + N(0, sigma2) under E[X^2] <= power."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    return 0.5 * np.log1p(power / sigma2)


def ma1_noise_psd(omega, alpha):
    """Power spectral density of Z_i = alpha*U_{i-1} + U_i, U ~ N(0,1)."""
    return 1.0 + alpha * alpha + 2.0 * alpha * np.cos(omega)


def _simpson(y, dx):
    n = y.size
    if n < 3 or n % 2 == 0:
        raise ValueError("simpson needs an odd number of points >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, y)) * dx / 3.0


@dataclass
class WaterFillSolution:
    water_level: float
    capacity_nats: float
    power_gap: float


def ma1_ff_capacity(power, alpha):
    """Feedforward capacity of the MA(1) channel by water-filling.

    Allocates input power max(nu - S_Z(w), 0) over the noise spectrum and
    bisects the water level nu until the allocated power matches ``power``.
    Jensen's formula gives int_0^pi log S_Z = pi log max(1, alpha^2), so only
    log max(nu, S_Z), finite at the null of |alpha| = 1, needs quadrature.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    omega = np.linspace(0.0, np.pi, 2 ** 14 + 1)
    dx = omega[1] - omega[0]
    sz = ma1_noise_psd(omega, alpha)

    def allocated(nu):
        return _simpson(np.maximum(nu - sz, 0.0), dx) / np.pi

    if power == 0.0:
        return WaterFillSolution(float(sz.min()), 0.0, 0.0)
    lo = float(sz.min())
    hi = float(sz.max()) + power + 1.0
    while allocated(hi) < power:
        hi *= 2.0
    for _ in range(200):
        nu = 0.5 * (lo + hi)
        gap = allocated(nu) - power
        if gap > 0:
            hi = nu
        else:
            lo = nu
        if abs(gap) < 1e-9 and hi - lo < 1e-12 * max(1.0, hi):
            break
    nu = 0.5 * (lo + hi)
    cap = (_simpson(np.log(np.maximum(nu, sz)), dx) / (2.0 * np.pi)
           - 0.5 * np.log(max(1.0, alpha * alpha)))
    return WaterFillSolution(nu, cap, allocated(nu) - power)


@dataclass
class Ma1FbSolution:
    root: float
    capacity_nats: float


def _fb_quartic(x, power, alpha):
    # P x^2 - (1 - x^2)(1 - |alpha| x)^2; unique root in (0, 1)
    a = abs(alpha)
    return power * x * x - (1.0 - x * x) * (1.0 - a * x) ** 2


def ma1_fb_capacity(power, alpha):
    """Feedback capacity of the MA(1) channel: -log(x0) for the quartic root.

    The quartic form holds for |alpha| <= 1. The noise spectrum for alpha is
    alpha^2 times the one for 1/alpha, so a channel with |alpha| > 1 is
    solved as the equivalent one with (power / alpha^2, 1 / alpha). The
    tests check the form on a grid: alpha = 0 reduces to the memoryless
    capacity and feedback capacity is never below feedforward capacity.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    if abs(alpha) > 1.0:
        power, alpha = power / (alpha * alpha), 1.0 / alpha
    lo, hi = 0.0, 1.0
    flo = _fb_quartic(lo, power, alpha)
    fhi = _fb_quartic(hi, power, alpha)
    if flo * fhi > 0:
        raise RuntimeError("no sign change in (0,1): quartic form mismatch")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _fb_quartic(mid, power, alpha) * flo <= 0:
            hi = mid
        else:
            lo = mid
    x0 = 0.5 * (lo + hi)
    return Ma1FbSolution(x0, -np.log(x0))


def ma1_noise_covariance(n, alpha):
    """Toeplitz covariance of the MA(1) noise: diag 1+alpha^2, off-diag alpha."""
    cov = np.zeros((n, n))
    idx = np.arange(n)
    cov[idx, idx] = 1.0 + alpha * alpha
    cov[idx[:-1], idx[:-1] + 1] = alpha
    cov[idx[:-1] + 1, idx[:-1]] = alpha
    return cov


def gaussian_di_oracle(power, alpha, n=1024):
    """Directed-information rate for i.i.d. N(0, power) input through MA(1).

    Open loop only (input independent of the noise). Returns the n-block
    value (1/2n) log det(Sigma_Y)/det(Sigma_Z) as ``rate_nats``, and the 2n
    value as ``rate_nats_2n`` to expose convergence.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")

    def rate(m):
        sz = ma1_noise_covariance(m, alpha)
        sy = sz + power * np.eye(m)
        sign_y, logdet_y = np.linalg.slogdet(sy)
        sign_z, logdet_z = np.linalg.slogdet(sz)
        if sign_y <= 0 or sign_z <= 0:
            raise RuntimeError("covariance not positive definite")
        return (logdet_y - logdet_z) / (2.0 * m)

    return {"n": n, "rate_nats": rate(n), "rate_nats_2n": rate(2 * n)}


def gaussian_di_spectral(power, alpha):
    """Spectral cross-check: (1/4pi) int log(1 + power/S_Z(w)) dw.

    As in :func:`ma1_ff_capacity`, Jensen's formula gives the log S_Z part,
    so only log(S_Z + power) needs quadrature and |alpha| = 1 is finite.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    if power == 0.0:
        return 0.0
    omega = np.linspace(0.0, np.pi, 2 ** 16 + 1)
    dx = omega[1] - omega[0]
    integ = np.log(ma1_noise_psd(omega, alpha) + power)
    return (_simpson(integ, dx) / (2.0 * np.pi)
            - 0.5 * np.log(max(1.0, alpha * alpha)))
