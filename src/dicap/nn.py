"""Minimal numeric substrate: seeded RNG streams, dense and LSTM layers with
exact reverse-mode gradients, Adam (ascent), and finite-difference checking.

Everything is float64. Forward passes cache what the matching backward pass
needs; backward passes accumulate into ``ParamBlock.grad`` and return input
gradients so composite models can stitch adjoints together.
"""

import zlib

import numpy as np


class GradientError(RuntimeError):
    """Raised when a non-finite gradient or activation is encountered."""


class Rng:
    """Seedable RNG with split-by-label semantics.

    Each label yields an independent, reproducible ``numpy.random.Generator``
    stream, so e.g. channel noise and generator noise never interact.
    """

    def __init__(self, seed):
        self.seed = int(seed)

    def stream(self, label):
        # crc32 is stable across runs/platforms, unlike hash()
        tag = zlib.crc32(label.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence([self.seed, tag]))


class ParamBlock:
    """A named parameter tensor and its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        # C order: grad_check perturbs the view that reshape(-1) gives
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


def uniform_init(rng, shape, fan_in):
    """Uniform in [-k, k] with k = 1/sqrt(fan_in)."""
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


class Dense:
    """Affine layer with an optional tanh activation.

    Accepts inputs of shape (..., in_dim); the leading axes are flattened
    internally and restored on output.
    """

    def __init__(self, in_dim, out_dim, activation="tanh", rng=None, name="dense"):
        if activation not in ("linear", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        rng = rng if rng is not None else np.random.default_rng(0)
        self.W = ParamBlock(f"{name}.W", uniform_init(rng, (in_dim, out_dim), in_dim))
        self.b = ParamBlock(f"{name}.b", np.zeros(out_dim))

    def params(self):
        return [self.W, self.b]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"dense input dim {x.shape[-1]} != expected {self.in_dim}")
        lead = x.shape[:-1]
        xf = x.reshape(-1, self.in_dim)
        z = xf @ self.W.value + self.b.value
        if self.activation == "tanh":
            out = np.tanh(z)
        else:
            out = z
        cache = (xf, out)
        return out.reshape(*lead, self.out_dim), cache

    def backward(self, cache, dout):
        xf, out = cache
        df = np.asarray(dout, dtype=np.float64).reshape(-1, self.out_dim)
        if self.activation == "tanh":
            dz = df * (1.0 - out * out)
        else:
            dz = df
        self.W.grad += xf.T @ dz
        self.b.grad += dz.sum(axis=0)
        dx = dz @ self.W.value.T
        return dx.reshape(*dout.shape[:-1], self.in_dim)


class LstmCell:
    """Single LSTM cell, stepped manually so unrolls can be customized.

    One weight matrix ``W`` of shape (in_dim + hidden + 1, 4 * hidden) acts on
    the stacked column [x; h; 1], so its last row is the bias. Gate columns
    are ordered [input, forget, output, candidate]: the three sigmoid gates
    form one block. The state h, c is feature-major, (hidden, batch), so each
    gate is a contiguous block of rows. Forget-gate bias starts at 1.0.
    """

    def __init__(self, in_dim, hidden, rng=None, name="lstm"):
        if hidden <= 0:
            raise ValueError("hidden size must be positive")
        self.in_dim = in_dim
        self.hidden = hidden
        rng = rng if rng is not None else np.random.default_rng(0)
        H, fan = hidden, in_dim + hidden
        # drawn as [Wx; Wh] with gates [i, f, g, o], then permuted
        w = np.vstack([uniform_init(rng, (in_dim, 4 * H), fan),
                       uniform_init(rng, (H, 4 * H), fan), np.zeros(4 * H)])
        w[-1, H:2 * H] = 1.0
        self.W = ParamBlock(f"{name}.W", np.concatenate(
            [w[:, :2 * H], w[:, 3 * H:], w[:, 2 * H:3 * H]], axis=1))

    def params(self):
        return [self.W]

    def zero_state(self, batch):
        return (np.zeros((self.hidden, batch)), np.zeros((self.hidden, batch)))

    def step(self, x, h, c):
        """One step on a batch: x (B, in_dim), h/c (hidden, B)."""
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"lstm input dim {x.shape[-1]} != expected {self.in_dim}")
        if h.shape[0] != self.hidden or c.shape[0] != self.hidden:
            raise ValueError("lstm state dim mismatch")
        n, H = self.in_dim, self.hidden
        s = np.empty((n + H + 1, x.shape[0]))
        s[:n] = x.T
        s[n:-1] = h
        s[-1] = 1.0
        z = self.W.value.T @ s
        sig = z[:3 * H]
        np.negative(sig, out=sig)
        # exp(800) = inf and exp(-800) = 0 give exact 0 and 1 gates
        with np.errstate(over="ignore", under="ignore"):
            np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        np.tanh(z[3 * H:], out=z[3 * H:])
        i, f, o, g = z[:H], z[H:2 * H], z[2 * H:3 * H], z[3 * H:]
        c2 = f * c + i * g
        tc2 = np.tanh(c2)
        h2 = o * tc2
        return h2, c2, (s, c, z, tc2)

    def backward_step(self, cache, dh2, dc2):
        """Reverse one step; returns (dx, dh, dc) and accumulates param grads.

        dx is (B, in_dim); dh and dc are (hidden, B)."""
        s, c, z, tc2 = cache
        H = self.hidden
        i, f, o, g = z[:H], z[H:2 * H], z[2 * H:3 * H], z[3 * H:]
        dc_tot = dc2 + dh2 * o * (1.0 - tc2 * tc2)
        dz = np.empty_like(z)
        np.multiply(dc_tot, g, out=dz[:H])
        np.multiply(dc_tot, c, out=dz[H:2 * H])
        np.multiply(dh2, tc2, out=dz[2 * H:3 * H])
        sig = z[:3 * H]
        dz[:3 * H] *= sig * (1.0 - sig)
        np.multiply(dc_tot, i, out=dz[3 * H:])
        dz[3 * H:] *= 1.0 - g * g
        self.W.grad += s @ dz.T
        dxh = self.W.value[:-1] @ dz
        return dxh[:self.in_dim].T, dxh[self.in_dim:], dc_tot * f


def global_norm(params):
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    return np.sqrt(total)


class Adam:
    """Adam with bias correction, performing gradient ASCENT on its params.

    ``clip_norm`` applies global gradient-norm clipping across all managed
    blocks before the update (None disables it).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3, clip_norm=1.0):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ParamBlock names")
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}

    def step(self):
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise GradientError(f"non-finite gradient in {p.name}")
        scale = 1.0
        if self.clip_norm is not None:
            norm = global_norm(self.params)
            if norm > self.clip_norm:
                scale = self.clip_norm / norm
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.grad * scale
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.value += self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grads(self):
        for p in self.params:
            p.zero_grad()


def grad_check(loss_and_grad, params, step=1e-5):
    """Compare analytic gradients against central finite differences.

    ``loss_and_grad()`` must zero the grads, run a deterministic
    forward/backward, and return the scalar loss with grads populated.
    Returns {param name: max relative error}.
    """
    loss_and_grad()
    analytic = {p.name: p.grad.copy() for p in params}
    report = {}
    for p in params:
        flat = p.value.reshape(-1)
        ga = analytic[p.name].reshape(-1)
        worst = 0.0
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lp = loss_and_grad()
            flat[idx] = orig - step
            lm = loss_and_grad()
            flat[idx] = orig
            gn = (lp - lm) / (2.0 * step)
            denom = max(abs(gn) + abs(ga[idx]), 1e-6)
            worst = max(worst, abs(gn - ga[idx]) / denom)
        report[p.name] = worst
    # restore grads to the analytic state
    loss_and_grad()
    return report
