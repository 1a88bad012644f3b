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

    ``batch`` may also be a list of segment sizes, with ``noise_gen`` and
    ``channel_gen`` lists of one generator per segment. The segments are
    stacked and stepped as one batch, but each draws from its own generators
    and is normalized over its own rows, so its trajectories are those of a
    rollout of that segment alone, up to how the BLAS rounds a row at
    another position in a matrix product (bit for bit for segments of
    multiples of 8 sequences with the OpenBLAS kernels measured).
    """
    if not isinstance(batch, list):
        batch, noise_gen, channel_gen = [batch], [noise_gen], [channel_gen]
    segments, rows = [], 0
    for size in batch:
        segments.append(slice(rows, rows + size))
        rows += size
    z = np.empty((rows, steps, 1))
    n = np.empty((rows, steps, ndt.x_dim))
    for seg, size, n_gen, z_gen in zip(segments, batch, noise_gen,
                                       channel_gen):
        z[seg] = draw_noise(spec, size, steps, z_gen)
        n_gen.standard_normal(out=n[seg])
    if ndt.feedback:
        return _feedback_forward(ndt, n, z, segments, need_cache,
                                 fb_norm_decay)
    return _open_loop_forward(ndt, n, z, segments, need_cache)


def _open_loop_forward(ndt, n, z, segments, need_cache):
    batch, steps, _ = n.shape
    h, c = ndt.zero_state(batch)
    raw = np.empty((batch, steps, ndt.x_dim))
    caches = []
    for i in range(steps):
        raw[:, i], h, c, cache = ndt.step(n[:, i], None, h, c, need_cache)
        if need_cache:
            caches.append(cache)
    # without a backward pass the raw outputs are normalized in place
    x = np.empty_like(raw) if need_cache else raw
    pcaches = [power_normalize(raw[seg], ndt.power, out=x[seg])[1]
               for seg in segments]
    return Rollout(x, x + z, z, False, ndt, (caches, pcaches, segments))


def _open_loop_backward(ndt, caches, dx, dy):
    step_caches, pcaches, segments = caches
    d = dx + dy
    draw = np.concatenate([power_normalize_backward(pcache, d[seg])
                           for pcache, seg in zip(pcaches, segments)])
    batch, steps, _ = draw.shape
    dh = np.zeros((ndt.cell.hidden, batch))
    dc = np.zeros_like(dh)
    for i in reversed(range(steps)):
        _, dh, dc = ndt.backward_step(step_caches[i], draw[:, i], dh, dc)


def _feedback_forward(ndt, n, z, segments, need_cache, decay):
    batch, steps, _ = n.shape
    h, c = ndt.zero_state(batch)
    fb = np.zeros((batch, ndt.y_dim))
    m = [ndt.power] * len(segments)     # running mean square per segment
    eps = 1e-12
    x = np.empty((batch, steps, ndt.x_dim))
    y = np.empty((batch, steps, ndt.y_dim))
    raws, scales, ms = [], [], []
    caches = []
    for i in range(steps):
        raw, h, c, cache = ndt.step(n[:, i], fb, h, c, need_cache)
        step_scales = []
        for j, seg in enumerate(segments):
            r = raw[seg]
            m[j] = decay * m[j] + (1.0 - decay) * float(np.mean(r * r))
            scale = np.sqrt(ndt.power / (m[j] + eps))
            np.multiply(r, scale, out=x[seg, i])
            step_scales.append(scale)
        fb = np.add(x[:, i], z[:, i], out=y[:, i])
        if need_cache:
            raws.append(raw)
            scales.append(step_scales)
            ms.append(list(m))
            caches.append(cache)
    internals = (caches, raws, scales, ms, decay, eps, segments)
    return Rollout(x, y, z, True, ndt, internals)


def _feedback_backward(ndt, internals, dx, dy):
    caches, raws, scales, ms, decay, eps, segments = internals
    batch, steps, _ = dx.shape
    dh = np.zeros((ndt.cell.hidden, batch))
    dc = np.zeros_like(dh)
    dfb_next = None  # gradient of the output fed into the next step
    dm_carry = [0.0] * len(segments)
    for i in reversed(range(steps)):
        dyi = dy[:, i].copy()
        if dfb_next is not None:
            dyi += dfb_next
        dxi = dx[:, i] + dyi  # additive channel: dy/dx = 1
        draw = np.empty_like(raws[i])
        for j, seg in enumerate(segments):
            raw, d, scale = raws[i][seg], dxi[seg], scales[i][j]
            dscale = float(np.sum(d * raw))
            dm = (dscale * (-0.5) * scale / (ms[i][j] + eps)
                  + decay * dm_carry[j])
            draw[seg] = d * scale + dm * (1.0 - decay) * 2.0 * raw / raw.size
            dm_carry[j] = dm
        dfb_next, dh, dc = ndt.backward_step(caches[i], draw, dh, dc)
    # dm and dfb for step -1 hit constants (m0 = P, y0 = 0)
