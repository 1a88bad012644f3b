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
        if self.family == "awgn" and self.alpha != 0.0:
            raise ValueError("awgn has no memory: alpha must be 0")


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
        if self._ndt.feedback:
            _feedback_backward(self._ndt, self._caches, dx, dy)
        else:
            _open_loop_backward(self._ndt, self._caches, dx, dy)


def rollout(ndt, spec, batch, steps, noise_gen, channel_gen, need_cache=True):
    """Generate a batch of (x, y) trajectories through generator and channel.

    Without feedback the generator runs open loop and the power constraint is
    applied to the whole batch at once. With feedback, noise and the previous
    output are interleaved per step, and each step's samples are normalized
    by that step's batch mean square.
    """
    z = draw_noise(spec, batch, steps, channel_gen)
    n = noise_gen.standard_normal((batch, steps, 1))
    if ndt.feedback:
        return _feedback_forward(ndt, n, z, need_cache)
    return _open_loop_forward(ndt, n, z, need_cache)


def _open_loop_forward(ndt, n, z, need_cache):
    batch, steps, _ = n.shape
    h, c = ndt.zero_state(batch)
    raw = np.empty((batch, steps, 1))
    caches = []
    for i in range(steps):
        raw[:, i], h, c, cache = ndt.step(n[:, i], None, h, c)
        if need_cache:
            caches.append(cache)
    # without a backward pass the raw outputs are normalized in place
    x, pcache = power_normalize(raw, ndt.power,
                                out=np.empty_like(raw) if need_cache else raw)
    return Rollout(x, x + z, ndt, (caches, pcache))


def _open_loop_backward(ndt, caches, dx, dy):
    step_caches, pcache = caches
    draw = power_normalize_backward(pcache, dx + dy)
    batch, steps, _ = draw.shape
    dh = np.zeros((ndt.cell.hidden, batch))
    dc = np.zeros_like(dh)
    for i in reversed(range(steps)):
        _, dh, dc = ndt.backward_step(step_caches[i], draw[:, i], dh, dc)


def _feedback_forward(ndt, n, z, need_cache):
    batch, steps, _ = n.shape
    h, c = ndt.zero_state(batch)
    fb = np.zeros((batch, 1))
    x = np.empty((batch, steps, 1))
    y = np.empty_like(x)
    caches = []
    for i in range(steps):
        raw, h, c, cache = ndt.step(n[:, i], fb, h, c)
        _, pcache = power_normalize(raw, ndt.power, out=x[:, i])
        fb = np.add(x[:, i], z[:, i], out=y[:, i])
        if need_cache:
            caches.append((cache, pcache))
    return Rollout(x, y, ndt, caches)


def _feedback_backward(ndt, caches, dx, dy):
    batch, steps, _ = dx.shape
    dh = np.zeros((ndt.cell.hidden, batch))
    dc = np.zeros_like(dh)
    dfb = np.zeros((batch, 1))  # gradient of the output fed into the next step
    for i in reversed(range(steps)):
        step_cache, pcache = caches[i]
        # additive channel: dy/dx = 1
        draw = power_normalize_backward(pcache, dx[:, i] + (dy[:, i] + dfb))
        dfb, dh, dc = ndt.backward_step(step_cache, draw, dh, dc)
    # the fed-back output before step 0 is the constant y0 = 0
