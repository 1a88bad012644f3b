"""Finite-difference gradient suites for every differentiable component.

Each suite builds a tiny deterministic configuration, compares analytic
gradients against central differences, and reports the per-parameter maximum
relative error. Used by the CLI ``grad-check`` subcommand and the acceptance
tests.
"""

import numpy as np

from .channels import ChannelSpec, rollout
from .dine import DinePotential, DineModel, ReferenceBox, dv_value
from .ndt import NdtModel
from .nn import Dense, LstmCell, Rng, grad_check

COMPONENTS = ("nn", "dine", "ndt", "rollout")


def _zero(params):
    for p in params:
        p.zero_grad()


def check_dense(seed=0):
    gen = np.random.default_rng(seed)
    layer = Dense(3, 4, "tanh", gen, name="gc.dense")
    x = gen.standard_normal((5, 3)).T
    w = gen.standard_normal((5, 4)).T

    def loss():
        _zero(layer.params())
        out, cache = layer.forward(x)
        layer.backward(cache, w)
        return float(np.sum(out * w))

    return grad_check(loss, layer.params())


def check_lstm(seed=0):
    """Five steps of one branch, then five of two branches that start from
    the first branch's state, as in DINE's unroll."""
    gen = np.random.default_rng(seed)
    cell = LstmCell(2, 4, gen, name="gc.lstm")
    B, report = 3, {}
    for k in (1, 2):
        xs = gen.standard_normal((5, k * B, 2))
        w = gen.standard_normal((5, k * B, 4)).transpose(0, 2, 1)

        def loss():
            _zero(cell.params())
            h, c = cell.zero_state(B)
            caches, total = [], 0.0
            for x, wi in zip(xs, w):
                h2, c2, cache = cell.step(x, h, c)
                caches.append(cache)
                total += float(np.sum(h2 * wi))
                h, c = h2[:, :B], c2[:, :B]
            dh, dc = np.zeros_like(h), np.zeros_like(c)
            for cache, dh2 in zip(caches[::-1], w[::-1].copy()):
                dh2[:, :B] += dh
                _, dh, dc = cell.backward_step(cache, dh2, dc)
            return total

        report.update({f"{name}[k={k}]": err for name, err
                       in grad_check(loss, cell.params()).items()})
    return report


def check_dine(seed=0):
    """Modified unroll plus DV objective, parameters and input gradients."""
    gen = np.random.default_rng(seed)
    pot = DinePotential(2, hidden=5, head_hidden=4, gen=gen, name="gc.pot")
    B, T = 2, 5
    true_in = gen.standard_normal((B, T, 2))
    ref_in = gen.standard_normal((B, T, 2))

    def loss():
        _zero(pot.params())
        t, tr, caches = pot.forward(true_in, ref_in)
        v, dt, dtr = dv_value(t, tr)
        pot.backward(caches, dt, dtr)
        return v

    report = dict(grad_check(loss, pot.params()))

    # gradient w.r.t. the driving sequences, via a wrapper parameter
    from .nn import ParamBlock
    seq = ParamBlock("gc.pot.true_in", true_in.copy())
    seq_r = ParamBlock("gc.pot.ref_in", ref_in.copy())

    def loss_inputs():
        _zero(pot.params())
        seq.zero_grad()
        seq_r.zero_grad()
        t, tr, caches = pot.forward(seq.value, seq_r.value)
        v, dt, dtr = dv_value(t, tr)
        d_true, d_ref = pot.backward(caches, dt, dtr)
        seq.grad += d_true
        seq_r.grad += d_ref
        return v

    report.update(grad_check(loss_inputs, [seq, seq_r]))
    return report


def check_ndt(seed=0):
    """Open-loop generator with batch power normalization."""
    gen = np.random.default_rng(seed)
    ndt = NdtModel(hidden=4, power=1.0, feedback=False, gen=gen,
                   name="gc.ndt")
    spec = ChannelSpec("awgn", sigma2=1.0)
    B, T = 2, 4
    w = gen.standard_normal((B, T, 1))
    seed_rng = Rng(seed + 17)

    def loss():
        _zero(ndt.params())
        ro = rollout(ndt, spec, B, T, seed_rng.stream("gc-noise"),
                     seed_rng.stream("gc-chan"))
        val = float(np.sum(ro.x * w))
        ro.backward(w, np.zeros_like(w))
        return val

    return grad_check(loss, ndt.params())


def check_rollout(seed=0, feedback=True):
    """End-to-end generator objective through channel and frozen estimator."""
    rng = Rng(seed)
    dine = DineModel(1, 1, hidden=5, head_hidden=4, rng=rng)
    ndt = NdtModel(hidden=4, power=1.0, feedback=feedback,
                   gen=rng.stream("gc-ndt-init"))
    spec = ChannelSpec("ma1", alpha=0.5) if feedback else ChannelSpec("awgn")
    B, T = 2, 4
    box = ReferenceBox([-6.0], [6.0])
    y_ref = box.sample(rng.stream("gc-ref"), B, T)

    def loss():
        _zero(ndt.params())
        ro = rollout(ndt, spec, B, T, rng.stream("gc-noise"),
                     rng.stream("gc-chan"))
        obj, dx, dy = dine.input_gradients(ro.x, ro.y, y_ref)
        ro.backward(dx, dy)
        return obj

    return grad_check(loss, ndt.params())


def run_suite(component, seed=0, tol=1e-4):
    """Run the finite-difference suite for one component; returns (every
    error below ``tol``, {parameter name: max relative error})."""
    if component == "nn":
        report = dict(check_dense(seed))
        report.update(check_lstm(seed))
    elif component == "dine":
        report = check_dine(seed)
    elif component == "ndt":
        report = check_ndt(seed)
    elif component == "rollout":
        report = dict(check_rollout(seed, feedback=False))
        report.update({f"fb.{k}": v
                       for k, v in check_rollout(seed, feedback=True).items()})
    else:
        raise ValueError(
            f"unknown component {component!r}; pick from {COMPONENTS}")
    return max(report.values()) < tol, report
