"""Trainable input-distribution generator.

Maps i.i.d. Gaussian noise (plus the fed-back channel output, when feedback
is enabled) through an LSTM and two dense layers to raw channel inputs; a
differentiable normalization then enforces the average power constraint.
"""

import numpy as np

from .nn import Dense, LstmCell


class NdtModel:
    """Generator network with parameters mu for a scalar channel.

    Input per step is one noise sample, concatenated with the previous
    channel output when ``feedback`` is set.
    """

    def __init__(self, hidden=64, power=1.0, feedback=False, *, gen,
                 name="ndt"):
        if power <= 0:
            raise ValueError("power budget must be positive")
        self.power = power
        self.feedback = feedback
        self.cell = LstmCell(2 if feedback else 1, hidden, gen,
                             name=f"{name}.lstm")
        self.dense1 = Dense(hidden, hidden, "tanh", gen, name=f"{name}.dense1")
        self.dense2 = Dense(hidden, 1, "linear", gen, name=f"{name}.dense2")

    def params(self):
        return self.cell.params() + self.dense1.params() + self.dense2.params()

    def zero_state(self, batch):
        return self.cell.zero_state(batch)

    def step(self, noise, fb, h, c):
        """One generator step; returns the raw (un-normalized) input sample.

        ``fb`` is the fed-back output, None without feedback; the cell
        rejects an input whose width does not match ``feedback``."""
        inp = noise if fb is None else np.concatenate([noise, fb], axis=-1)
        h2, c2, lc = self.cell.step(inp, h, c)
        mid, d1c = self.dense1.forward(h2)
        raw, d2c = self.dense2.forward(mid)
        return raw.T, h2, c2, (lc, d1c, d2c)

    def backward_step(self, cache, draw, dh_carry, dc_carry):
        """Reverse one step; returns (dfb, dh_prev, dc_prev)."""
        lc, d1c, d2c = cache
        dh = self.dense1.backward(d1c, self.dense2.backward(d2c, draw.T))
        dh += dh_carry
        dinp, dh_prev, dc_prev = self.cell.backward_step(lc, dh, dc_carry)
        dfb = dinp[:, 1:] if self.feedback else None
        return dfb, dh_prev, dc_prev


def power_normalize(raw, power, out=None):
    """Scale a batch so its empirical mean square equals power: a whole
    (B, T, d) rollout without feedback, one (B, d) step with feedback.

    Differentiable; gradient flows through both the samples and the batch
    statistic. An all-zero batch maps to zero output and zero gradient. The
    result is written to ``out`` if given, which may be ``raw`` itself when
    no backward pass follows.
    """
    if power <= 0:
        raise ValueError("power budget must be positive")
    raw = np.asarray(raw, dtype=np.float64)
    ms = float(np.mean(raw * raw))
    scale = np.sqrt(power / ms) if ms > 0 else 0.0
    return np.multiply(raw, scale, out=out), (raw, ms, scale)


def power_normalize_backward(cache, dx):
    raw, ms, scale = cache
    dscale = float(np.sum(dx * raw))
    dms = -0.5 * dscale * scale / ms if ms > 0 else 0.0
    return dx * scale + dms * 2.0 * raw / raw.size
