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
    x = gen.standard_normal((5, 3))
    w = gen.standard_normal((5, 4))

    def loss():
        _zero(layer.params())
        out, cache = layer.forward(x)
        layer.backward(cache, w)
        return float(np.sum(out * w))

    return grad_check(loss, layer.params())


def check_lstm(seed=0):
    gen = np.random.default_rng(seed)
    cell = LstmCell(2, 4, gen, name="gc.lstm")
    steps = 5
    xs = gen.standard_normal((steps, 3, 2))
    w = gen.standard_normal((steps, 3, 4))

    def loss():
        _zero(cell.params())
        h, c = cell.zero_state(3)
        caches = []
        total = 0.0
        hs = []
        for i in range(steps):
            h, c, cache = cell.step(xs[i], h, c)
            caches.append(cache)
            hs.append(h)
            total += float(np.sum(h * w[i].T))
        dh = np.zeros_like(h)
        dc = np.zeros_like(c)
        for i in reversed(range(steps)):
            _, dh, dc = cell.backward_step(caches[i], dh + w[i].T, dc)
        return total

    return grad_check(loss, cell.params())


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
    ndt = NdtModel(1, 1, hidden=4, dense_hidden=3, power=1.0, feedback=False,
                   gen=gen, name="gc.ndt")
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
    ndt = NdtModel(1, 1, hidden=4, dense_hidden=3, power=1.0,
                   feedback=feedback, gen=rng.stream("gc-ndt-init"))
    spec = ChannelSpec("ma1", alpha=0.5) if feedback else ChannelSpec("awgn")
    B, T = 2, 4
    box = ReferenceBox([-6.0], [6.0])
    y_ref = box.sample(rng.stream("gc-ref"), B, T)

    def loss():
        _zero(ndt.params())
        ro = rollout(ndt, spec, B, T, rng.stream("gc-noise"),
                     rng.stream("gc-chan"), fb_norm_decay=0.9)
        obj, dx, dy = dine.input_gradients(ro.x, ro.y, y_ref)
        ro.backward(dx, dy)
        return obj

    return grad_check(loss, ndt.params())


def suite(component, seed=0):
    """Run the finite-difference suite for one component."""
    if component == "nn":
        report = dict(check_dense(seed))
        report.update(check_lstm(seed))
        return report
    if component == "dine":
        return check_dine(seed)
    if component == "ndt":
        return check_ndt(seed)
    if component == "rollout":
        report = dict(check_rollout(seed, feedback=False))
        report.update({f"fb.{k}": v
                       for k, v in check_rollout(seed, feedback=True).items()})
        return report
    raise ValueError(f"unknown component {component!r}; pick from {COMPONENTS}")


def run_suite(component, seed=0, tol=1e-4):
    report = suite(component, seed)
    return max(report.values()) < tol, report
