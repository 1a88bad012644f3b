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
    """Affine layer with an optional tanh activation, feature-major like the
    LSTM state: inputs are (in_dim, N) and outputs (out_dim, N)."""

    def __init__(self, in_dim, out_dim, activation, rng, name="dense"):
        if activation not in ("linear", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.W = ParamBlock(f"{name}.W", uniform_init(rng, (in_dim, out_dim), in_dim))
        self.b = ParamBlock(f"{name}.b", np.zeros(out_dim))

    def params(self):
        return [self.W, self.b]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.in_dim:
            raise ValueError(
                f"dense input dim {x.shape[0]} != expected {self.in_dim}")
        out = self.W.value.T @ x
        out += self.b.value[:, None]
        if self.activation == "tanh":
            np.tanh(out, out=out)
        return out, (x, out)

    def backward(self, cache, dout):
        x, out = cache
        dz = dout
        if self.activation == "tanh":
            dz = out * out
            np.subtract(1.0, dz, out=dz)
            dz *= dout
        self.W.grad += x @ dz.T
        self.b.grad += dz.sum(axis=1)
        # an outer product (out_dim 1) is faster by broadcasting than by BLAS
        return self.W.value * dz if self.out_dim == 1 else self.W.value @ dz


class LstmCell:
    """Single LSTM cell, stepped manually so unrolls can be customized.

    One weight matrix ``W`` of shape (in_dim + hidden + 1, 4 * hidden) acts on
    the stacked column [x; h; 1], so its last row is the bias. Gate columns
    are ordered [input, forget, output, candidate]: the three sigmoid gates
    form one block. The state h, c is feature-major, (hidden, batch), so each
    gate is a contiguous block of rows. A step may run k branches from one
    state in one product; their h and c gradients are summed in backward.
    Forget-gate bias starts at 1.0.
    """

    def __init__(self, in_dim, hidden, rng, name="lstm"):
        if hidden <= 0:
            raise ValueError("hidden size must be positive")
        self.in_dim = in_dim
        self.hidden = hidden
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
        """One step of k branches from one state: x (k * B, in_dim), branch
        after branch, and h, c (hidden, B). Returns h2, c2 (hidden, k * B)."""
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"lstm input dim {x.shape[-1]} != expected {self.in_dim}")
        if h.shape[0] != self.hidden or c.shape != h.shape:
            raise ValueError("lstm state dim mismatch")
        n, H, B = self.in_dim, self.hidden, h.shape[1]
        k, rest = divmod(x.shape[0], B)
        if rest or not k:
            raise ValueError(f"{x.shape[0]} input rows are not branches of {B}")
        s = np.empty((n + H + 1, k * B))
        s[:n] = x.T
        s[n:-1].reshape(H, k, B)[:] = h[:, None]
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
        c2 = (f.reshape(H, k, B) * c[:, None]).reshape(H, k * B)
        c2 += i * g
        tc2 = np.tanh(c2)
        h2 = o * tc2
        return h2, c2, (s, c, z, tc2)

    def backward_step(self, cache, dh2, dc2):
        """Reverse one step; returns (dx, dh, dc) and accumulates param grads.

        dh2 is (hidden, k * B); dc2 is (hidden, B), the gradient of the first
        branch's c2, the only one a recursion carries. dx is (k * B, in_dim);
        dh and dc are (hidden, B), summed over the branches."""
        s, c, z, tc2 = cache
        n, H, B = self.in_dim, self.hidden, c.shape[1]
        k = z.shape[1] // B
        i, f, o, g = z[:H], z[H:2 * H], z[2 * H:3 * H], z[3 * H:]
        dc_tot = dh2 * o
        d = tc2 * tc2
        np.subtract(1.0, d, out=d)
        dc_tot *= d
        dc_tot[:, :B] += dc2
        dz = np.empty_like(z)
        np.multiply(dc_tot, g, out=dz[:H])
        np.multiply(dc_tot.reshape(H, k, B), c[:, None],
                    out=dz[H:2 * H].reshape(H, k, B))
        np.multiply(dh2, tc2, out=dz[2 * H:3 * H])
        sig = z[:3 * H]
        d = 1.0 - sig
        d *= sig
        dz[:3 * H] *= d
        np.multiply(dc_tot, i, out=dz[3 * H:])
        d = g * g
        np.subtract(1.0, d, out=d)
        dz[3 * H:] *= d
        dc_tot *= f
        # h, the bias and c are shared: their rows see the branch sum
        dzs = np.einsum("rkb->rb", dz.reshape(4 * H, k, B)) if k > 1 else dz
        dc = np.einsum("rkb->rb", dc_tot.reshape(H, k, B)) if k > 1 else dc_tot
        W, dW = self.W.value, self.W.grad
        dW[:n] += s[:n] @ dz.T
        dW[n:] += s[n:, :B] @ dzs.T
        return (W[:n] @ dz).T, W[n:-1] @ dzs, dc


def global_norm(params):
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    return np.sqrt(total)


class Adam:
    """Adam with bias correction, performing gradient ASCENT on its params.

    Gradients are clipped to global norm ``clip_norm`` across all managed
    blocks before the update.
    """

    beta1, beta2, eps, clip_norm = 0.9, 0.999, 1e-8, 1.0

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ParamBlock names")
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}

    def step(self):
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise GradientError(f"non-finite gradient in {p.name}")
        norm = global_norm(self.params)
        scale = self.clip_norm / norm if norm > self.clip_norm else 1.0
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
