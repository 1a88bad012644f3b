"""End-to-end acceptance checks against analytic baselines.

Each test prints a one-line PASS/FAIL verdict, visible with ``pytest -s``
(pytest's capture holds it otherwise). The training runs are shared through
module-scoped fixtures; the full suite takes roughly half an hour on a single
core.
"""

import time

import numpy as np
import pytest

from dicap.baselines import (awgn_capacity, gaussian_di_oracle,
                             gaussian_di_spectral, ma1_fb_capacity,
                             ma1_ff_capacity)
from dicap.capest import TrainConfig, estimate_capacity, monte_carlo_eval
from dicap.channels import ChannelSpec, draw_noise
from dicap.dine import dine_estimate, dine_train
from dicap.gradcheck import COMPONENTS, run_suite
from dicap.nn import Rng

pytestmark = pytest.mark.acceptance


def verdict(criterion, ok, detail):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, detail


def capacity_config(**overrides):
    base = dict(batch_size=64, seq_len=20, dine_lr=1e-3, ndt_lr=5e-4,
                budget=600, dine_steps_per_ndt=2, warmup=200, power=1.0,
                feedback=False, eval_samples=100_000, eval_seq_len=2000,
                seed=0, dine_hidden=32, head_hidden=32, ndt_hidden=32)
    base.update(overrides)
    return TrainConfig(**base)


def within(est, target):
    return abs(est - target) <= max(0.03, 0.10 * abs(target))


@pytest.fixture(scope="module")
def awgn_p1_run():
    """AWGN power-1 estimate; shared between the sweep and the evaluation
    convergence check (which reuses the trained models)."""
    return estimate_capacity(ChannelSpec("awgn"), capacity_config(power=1.0))


@pytest.fixture(scope="module")
def ff_p1_run():
    spec = ChannelSpec("ma1", alpha=0.5)
    report, _, _ = estimate_capacity(spec, capacity_config(power=1.0))
    return report


@pytest.fixture(scope="module")
def fb_run():
    """Feedback run, shared between the capacity and plateau criteria."""
    spec = ChannelSpec("ma1", alpha=0.5)
    cfg = capacity_config(power=1.0, feedback=True, seq_len=32, budget=1500,
                          warmup=300, ndt_lr=1e-3)
    report, _, _ = estimate_capacity(spec, cfg)
    return report


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    worst = {}
    for component in COMPONENTS:
        ok, report = run_suite(component, seed=0, tol=1e-4)
        worst[component] = max(report.values())
        assert ok, f"{component} gradient mismatch: {report}"
    elapsed = time.perf_counter() - start
    detail = ("max rel err " + ", ".join(f"{k}={v:.2e}"
                                         for k, v in worst.items())
              + f"; {elapsed:.1f}s")
    verdict("1 gradient suite", max(worst.values()) < 1e-4 and elapsed < 60,
            detail)


def test_criterion_2_baseline_self_consistency():
    worst_ff = worst_fb = 0.0
    violations = 0
    for p in (0.25, 0.5, 1.0, 2.0, 4.0):
        ref = awgn_capacity(p, 1.0)
        worst_ff = max(worst_ff, abs(ma1_ff_capacity(p, 0.0).capacity_nats - ref))
        worst_fb = max(worst_fb, abs(ma1_fb_capacity(p, 0.0).capacity_nats - ref))
        for a in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0, 1.5, -1.5,
                  2.0, -2.0, 3.0, -3.0):
            ff = ma1_ff_capacity(p, a).capacity_nats
            fb = ma1_fb_capacity(p, a).capacity_nats
            if fb < ff - 1e-9:
                violations += 1
    ok = worst_ff < 1e-8 and worst_fb < 1e-9 and violations == 0
    verdict("2 baseline self-consistency",
            ok, f"ff gap {worst_ff:.2e}, fb gap {worst_fb:.2e}, "
                f"fb<ff violations {violations}")


def test_criterion_3_dine_vs_gaussian_oracle():
    oracle = gaussian_di_oracle(1.0, 0.5, n=1024)
    spectral = gaussian_di_spectral(1.0, 0.5)
    assert abs(oracle["rate_nats"] - spectral) < 1e-3
    target = oracle["rate_nats"]

    spec = ChannelSpec("ma1", alpha=0.5)
    rng = Rng(0)
    xgen = rng.stream("accept3-x")
    cgen = rng.stream("accept3-chan")
    B, T = 64, 20

    def source(it):
        x = xgen.standard_normal((B, T, 1))
        return x, x + draw_noise(spec, B, T, cgen)

    model, _ = dine_train(source, 1, 1, hidden=32, head_hidden=32, lr=1e-3,
                          iters=1000, rng=rng)
    egen = rng.stream("accept3-eval")
    ex = egen.standard_normal((50, 2000, 1))
    ey = ex + draw_noise(spec, 50, 2000, egen)
    est = dine_estimate(model, ex, ey, seed=1)["estimate_nats"]
    rel = abs(est - target) / target
    verdict("3 fixed-input estimate vs Gaussian oracle", rel <= 0.10,
            f"est {est:.4f} vs oracle {target:.4f}, rel err {rel:.1%}")


def test_criterion_4_independence_null():
    rng = Rng(1)
    gen = rng.stream("accept4")

    def source(it):
        return (gen.standard_normal((64, 20, 1)),
                gen.standard_normal((64, 20, 1)))

    model, _ = dine_train(source, 1, 1, hidden=32, head_hidden=32, lr=1e-3,
                          iters=1000, rng=rng)
    egen = rng.stream("accept4-eval")
    ex = egen.standard_normal((50, 2000, 1))
    ey = egen.standard_normal((50, 2000, 1))
    est = dine_estimate(model, ex, ey, seed=1)["estimate_nats"]
    verdict("4 independence null", abs(est) <= 0.02,
            f"|estimate| = {abs(est):.4f} nats at 1e5 samples")


def test_criterion_5_awgn_capacity_sweep(awgn_p1_run):
    results = []
    ok = True
    for p in (0.5, 1.0, 2.0, 4.0):
        if p == 1.0:
            report = awgn_p1_run[0]
        else:
            report, _, _ = estimate_capacity(ChannelSpec("awgn"),
                                             capacity_config(power=p))
        target = awgn_capacity(p, 1.0)
        good = within(report.raw_estimate_nats, target) and not report.failed
        ok = ok and good
        results.append(f"P={p}: {report.raw_estimate_nats:.4f}/{target:.4f}")
    verdict("5 awgn capacity sweep", ok, "; ".join(results))


def test_criterion_6_ma1_feedforward_sweep(ff_p1_run):
    # P = 1 on seeds 0-2: there a single seed's estimate moved by 9% of the
    # target with a 1e-8 relative change in the generator's outputs
    results = []
    ok = True
    spec = ChannelSpec("ma1", alpha=0.5)
    for p in (0.5, 1.0, 2.0):
        if p == 1.0:
            reports = [ff_p1_run] + [
                estimate_capacity(spec, capacity_config(power=p, seed=s))[0]
                for s in (1, 2)]
        else:
            reports = [estimate_capacity(spec, capacity_config(power=p))[0]]
        target = ma1_ff_capacity(p, 0.5).capacity_nats
        ok = ok and all(within(r.raw_estimate_nats, target) and not r.failed
                        for r in reports)
        ests = sorted(r.raw_estimate_nats for r in reports)
        if len(ests) == 1:
            results.append(f"P={p}: {ests[0]:.4f}/{target:.4f}")
        else:
            results.append(f"P={p}, seeds 0-2: min {ests[0]:.4f}, median "
                           f"{ests[1]:.4f}, max {ests[2]:.4f}/{target:.4f}")
    verdict("6 ma1 feedforward sweep", ok, "; ".join(results))


def test_criterion_7_ma1_feedback_capacity(fb_run, ff_p1_run):
    target = ma1_fb_capacity(1.0, 0.5).capacity_nats
    est = fb_run.raw_estimate_nats
    gain_ok = est >= ff_p1_run.raw_estimate_nats - 0.01
    verdict("7 ma1 feedback capacity",
            within(est, target) and gain_ok and not fb_run.failed,
            f"est {est:.4f} vs -ln x0 {target:.4f}; "
            f"ff est {ff_p1_run.raw_estimate_nats:.4f}")


def curve_summary(values, window=100):
    """Moving-average smoothing with plateau diagnostics.

    Returns {peak, final, ratio} of the smoothed curve (ratio = final/peak).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty curve")
    w = min(window, values.size)
    kernel = np.full(w, 1.0 / w)
    smoothed = np.convolve(values, kernel, mode="valid")
    peak = float(smoothed.max())
    final = float(smoothed[-1])
    ratio = final / peak if peak != 0.0 else 1.0
    return {"peak": peak, "final": final, "ratio": ratio, "window": w}


def test_criterion_8_training_curve_plateau(fb_run):
    summary = curve_summary([row[3] for row in fb_run.curve], window=100)
    verdict("8 feedback training plateau", summary["ratio"] >= 0.95,
            f"smoothed final {summary['final']:.4f} / "
            f"peak {summary['peak']:.4f} = {summary['ratio']:.3f}")


def test_criterion_9_reproducibility(awgn_p1_run):
    cfg = capacity_config(power=1.0, budget=5, warmup=2, batch_size=8,
                          seq_len=10, dine_hidden=8, head_hidden=8,
                          ndt_hidden=8, seed=11)
    rep1, _, _ = estimate_capacity(ChannelSpec("awgn"), cfg)
    rep2, _, _ = estimate_capacity(ChannelSpec("awgn"), cfg)
    d1, d2 = rep1.to_dict(), rep2.to_dict()
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    identical = d1 == d2

    report, dine, ndt = awgn_p1_run
    big, _, _, _, _ = monte_carlo_eval(dine, ndt, ChannelSpec("awgn"),
                                       10 ** 6, seed=1,
                                       seq_len=2000)
    gap = abs(big - report.raw_estimate_nats)
    verdict("9 reproducibility", identical and gap < 0.02,
            f"seed-identical={identical}; |eval(1e6) - eval(1e5)| = "
            f"{gap:.4f} nats")


def _closed_loop(beta, gen, batch, steps, alpha=0.5, burn_in=64):
    """x_i = beta * y_{i-1} + w_i through z_i = u_i + alpha * u_{i-1}, with
    w and u i.i.d. N(0, 1); the first ``burn_in`` steps are dropped."""
    n = burn_in + steps
    w = gen.standard_normal((batch, n, 1))
    u = gen.standard_normal((batch, n + 1, 1))
    z = u[:, 1:] + alpha * u[:, :-1]
    x = np.empty_like(w)
    y = np.empty_like(w)
    y_prev = np.zeros((batch, 1))
    for i in range(n):
        x[:, i] = beta * y_prev + w[:, i]
        y[:, i] = y_prev = x[:, i] + z[:, i]
    return x[:, burn_in:], y[:, burn_in:]


@pytest.mark.parametrize("beta", [0.5, -0.7])
def test_criterion_10_di_under_feedback(beta):
    # For an additive channel with feedback I(X^n -> Y^n) = h(Y^n) - h(Z^n),
    # and the ARMA output's log-spectrum integrates the feedback filter
    # |1 - beta e^{-iw}|^-2 to 0, so the DI rate is that of i.i.d. N(0, 1)
    # input for every |beta| < 1. The mutual-information rate adds
    # (1/4pi) int log(1 + beta^2 S_Z) dw; with S_Z = a0 + b0 cos w that is
    # 1/2 log((a + sqrt(a^2 - b^2)) / 2) for a = 1 + beta^2 a0, b = beta^2 b0.
    target = gaussian_di_spectral(1.0, 0.5)
    a, b = 1 + beta ** 2 * 1.25, beta ** 2 * 1.0
    mi = target + 0.5 * np.log((a + np.sqrt(a * a - b * b)) / 2)

    rng = Rng(10)
    gen = rng.stream(f"accept10-{beta}")
    B, T = 64, 20

    def source(it):
        return _closed_loop(beta, gen, B, T)

    model, _ = dine_train(source, 1, 1, hidden=32, head_hidden=32, lr=1e-3,
                          iters=1000, rng=rng)
    ex, ey = _closed_loop(beta, rng.stream(f"accept10-{beta}-eval"), 50, 2000)
    est = dine_estimate(model, ex, ey, seed=1)["estimate_nats"]
    rel = abs(est - target) / target
    verdict(f"10 DI under feedback, beta={beta}", rel <= 0.10,
            f"est {est:.4f} vs DI {target:.4f}, rel err {rel:.1%}; "
            f"MI {mi:.4f}")
