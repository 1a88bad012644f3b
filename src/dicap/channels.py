"""Differentiable channel simulators and the generator-to-channel rollout.

Ships the memoryless additive Gaussian channel and the MA(1) colored-noise
channel. Both are additive, so the pathwise derivative of the output with
respect to the input is exactly 1 per step, which is what lets estimator
gradients flow back into the generator.
"""

from dataclasses import dataclass, field

import numpy as np

from .ndt import power_normalize, power_normalize_backward

FAMILIES = ("awgn", "ma1")


@dataclass
class ChannelSpec:
    family: str
    sigma2: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown channel family {self.family!r}")
        if not (np.isfinite(self.sigma2) and np.isfinite(self.alpha)):
            raise ValueError("sigma2 and alpha must be finite")
        if self.sigma2 <= 0:
            raise ValueError("noise variance must be positive")
        if self.family == "ma1" and self.sigma2 != 1.0:
            raise ValueError("ma1 innovation variance is fixed at 1")


def draw_noise(spec, batch, steps, gen):
    """Pre-draw the full (B, T, 1) additive-noise realization.

    Drawing from the channel's own stream means the realization is identical
    for any generator under the same seed (paired comparisons).
    """
    if spec.family == "awgn":
        return np.sqrt(spec.sigma2) * gen.standard_normal((batch, steps, 1))
    u = gen.standard_normal((batch, steps, 1))
    u_prev = np.concatenate([np.zeros((batch, 1, 1)), u[:, :-1]], axis=1)
    return spec.alpha * u_prev + u


@dataclass
class Rollout:
    """One generated batch of trajectories plus what backward needs."""

    x: np.ndarray
    y: np.ndarray
    noise: np.ndarray
    feedback: bool
    _ndt: object = field(repr=False)
    _caches: object = field(repr=False)

    @property
    def realized_power(self):
        return float(np.mean(self.x * self.x))

    def backward(self, dx, dy):
        """Accumulate generator parameter grads for adjoints (dx, dy).

        ``dx`` is the direct gradient w.r.t. the channel inputs, ``dy`` the
        gradient w.r.t. the channel outputs; the additive channel contributes
        dy to the input adjoint one-for-one.
        """
        if self.feedback:
            _feedback_backward(self._ndt, self._caches, dx, dy)
        else:
            _open_loop_backward(self._ndt, self._caches, dx, dy)


def rollout(ndt, spec, batch, steps, noise_gen, channel_gen, need_cache=True,
            fb_norm_decay=0.0):
    """Generate a batch of (x, y) trajectories through generator and channel.

    Without feedback the generator runs open loop and the power constraint is
    applied to the whole batch at once. With feedback, noise and the previous
    output are interleaved per step and normalization uses causal per-step
    batch statistics (optionally blended with an exponential running estimate
    via ``fb_norm_decay``).
    """
    z = draw_noise(spec, batch, steps, channel_gen)
    n = noise_gen.standard_normal((batch, steps, ndt.x_dim))
    if ndt.feedback:
        return _feedback_forward(ndt, n, z, need_cache, fb_norm_decay)
    return _open_loop_forward(ndt, n, z, need_cache)


def _open_loop_forward(ndt, n, z, need_cache):
    batch, steps, _ = n.shape
    h, c = ndt.zero_state(batch)
    raw = np.empty((batch, steps, ndt.x_dim))
    caches = []
    for i in range(steps):
        raw[:, i], h, c, cache = ndt.step(n[:, i], None, h, c, need_cache)
        if need_cache:
            caches.append(cache)
    # without a backward pass the raw outputs are normalized in place
    x, pcache = power_normalize(raw, ndt.power,
                                out=np.empty_like(raw) if need_cache else raw)
    return Rollout(x, x + z, z, False, ndt, (caches, pcache))


def _open_loop_backward(ndt, caches, dx, dy):
    step_caches, pcache = caches
    draw = power_normalize_backward(pcache, dx + dy)
    batch, steps, _ = draw.shape
    dh = np.zeros((ndt.cell.hidden, batch))
    dc = np.zeros_like(dh)
    for i in reversed(range(steps)):
        _, dh, dc = ndt.backward_step(step_caches[i], draw[:, i], dh, dc)


def _feedback_forward(ndt, n, z, need_cache, decay):
    batch, steps, _ = n.shape
    h, c = ndt.zero_state(batch)
    fb = np.zeros((batch, ndt.y_dim))
    m = ndt.power
    eps = 1e-12
    x = np.empty((batch, steps, ndt.x_dim))
    y = np.empty((batch, steps, ndt.y_dim))
    raws, scales, ms = [], [], []
    caches = []
    for i in range(steps):
        raw, h, c, cache = ndt.step(n[:, i], fb, h, c, need_cache)
        m = decay * m + (1.0 - decay) * float(np.mean(raw * raw))
        scale = np.sqrt(ndt.power / (m + eps))
        np.multiply(raw, scale, out=x[:, i])
        fb = np.add(x[:, i], z[:, i], out=y[:, i])
        if need_cache:
            raws.append(raw)
            scales.append(scale)
            ms.append(m)
            caches.append(cache)
    internals = (caches, raws, scales, ms, decay, eps)
    return Rollout(x, y, z, True, ndt, internals)


def _feedback_backward(ndt, internals, dx, dy):
    caches, raws, scales, ms, decay, eps = internals
    batch, steps, _ = dx.shape
    dh = np.zeros((ndt.cell.hidden, batch))
    dc = np.zeros_like(dh)
    dfb_next = None  # gradient of the output fed into the next step
    dm_carry = 0.0
    for i in reversed(range(steps)):
        dyi = dy[:, i].copy()
        if dfb_next is not None:
            dyi += dfb_next
        dxi = dx[:, i] + dyi  # additive channel: dy/dx = 1
        raw = raws[i]
        scale = scales[i]
        dscale = float(np.sum(dxi * raw))
        dm = dscale * (-0.5) * scale / (ms[i] + eps) + decay * dm_carry
        draw = dxi * scale + dm * (1.0 - decay) * 2.0 * raw / raw.size
        dfb_next, dh, dc = ndt.backward_step(caches[i], draw, dh, dc)
        dm_carry = dm
    # dm and dfb for step -1 hit constants (m0 = P, y0 = 0)
