"""Trainable input-distribution generator.

Maps i.i.d. Gaussian noise (plus the fed-back channel output, when feedback
is enabled) through an LSTM and two dense layers to raw channel inputs; a
differentiable normalization then enforces the average power constraint.
"""

import numpy as np

from .nn import Dense, LstmCell


class NdtModel:
    """Generator network with parameters mu.

    Input per step is the noise sample (``x_dim`` values), concatenated with
    the previous channel output when ``feedback`` is set.
    """

    def __init__(self, x_dim=1, y_dim=1, hidden=64, dense_hidden=64, power=1.0,
                 feedback=False, gen=None, name="ndt"):
        if power <= 0:
            raise ValueError("power budget must be positive")
        gen = gen if gen is not None else np.random.default_rng(0)
        self.x_dim = x_dim
        self.y_dim = y_dim
        self.power = power
        self.feedback = feedback
        in_dim = x_dim + (y_dim if feedback else 0)
        self.cell = LstmCell(in_dim, hidden, gen, name=f"{name}.lstm")
        self.dense1 = Dense(hidden, dense_hidden, "tanh", gen, name=f"{name}.dense1")
        self.dense2 = Dense(dense_hidden, x_dim, "linear", gen, name=f"{name}.dense2")

    def params(self):
        return self.cell.params() + self.dense1.params() + self.dense2.params()

    def zero_state(self, batch):
        return self.cell.zero_state(batch)

    def step(self, noise, fb, h, c, need_cache=True):
        """One generator step; returns the raw (un-normalized) input sample."""
        if self.feedback:
            if fb is None:
                raise ValueError("feedback model requires a fed-back output")
            inp = np.concatenate([noise, fb], axis=-1)
        else:
            if fb is not None:
                raise ValueError("feedback input passed to a feedforward model")
            inp = noise
        h2, c2, lc = self.cell.step(inp, h, c)
        mid, d1c = self.dense1.forward(h2.T)
        raw, d2c = self.dense2.forward(mid)
        cache = (lc, d1c, d2c) if need_cache else None
        return raw, h2, c2, cache

    def backward_step(self, cache, draw, dh_carry, dc_carry):
        """Reverse one step; returns (dfb, dh_prev, dc_prev)."""
        lc, d1c, d2c = cache
        dh = self.dense1.backward(d1c, self.dense2.backward(d2c, draw)).T
        dh = dh + dh_carry
        dinp, dh_prev, dc_prev = self.cell.backward_step(lc, dh, dc_carry)
        dfb = dinp[:, self.x_dim:] if self.feedback else None
        return dfb, dh_prev, dc_prev


def power_normalize(raw, power, eps=1e-12, out=None):
    """Scale a whole (B, T, d) batch so its empirical mean square equals power.

    Differentiable; gradient flows through both the samples and the batch
    statistic. An all-zero batch maps to zero output. The result is written
    to ``out`` if given, which may be ``raw`` itself when no backward pass
    follows.
    """
    if power <= 0:
        raise ValueError("power budget must be positive")
    raw = np.asarray(raw, dtype=np.float64)
    ms = float(np.mean(raw * raw))
    scale = np.sqrt(power / (ms + eps))
    return np.multiply(raw, scale, out=out), (raw, ms, scale, power, eps)


def power_normalize_backward(cache, dx):
    raw, ms, scale, power, eps = cache
    dscale = float(np.sum(dx * raw))
    dms = -0.5 * dscale * scale / (ms + eps)
    return dx * scale + dms * 2.0 * raw / raw.size
