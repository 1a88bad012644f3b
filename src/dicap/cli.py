"""Command-line interface.

Subcommands: di-estimate, capacity, baseline, grad-check, sweep. All rates
are computed in nats internally and printed in both nats and bits. Exit
codes: 0 success, 1 runtime failure, 2 usage error.
"""

import json
import math
import os
import sys
from dataclasses import fields

import click

from . import baselines
from .capest import LN2, TrainConfig, estimate_capacity
from .channels import ChannelSpec
from .data import (TrajectoryFormatError, read_trajectory_csv,
                   window_batches, write_curve_csv)
from .dine import dine_estimate, dine_train, helpers
from .gradcheck import COMPONENTS, run_suite
from .nn import Rng

_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}


def _load_config(path):
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _build_config(config_path, overrides):
    base = _load_config(config_path) if config_path else {}
    base.update({k: v for k, v in overrides.items() if v is not None})
    cfg = TrainConfig(**base)
    try:
        cfg.validate()
    except ValueError as err:
        raise click.UsageError(str(err))
    return cfg


def _out_dir(out_dir):
    d = out_dir or os.environ.get("DICAP_OUT_DIR", ".")
    os.makedirs(d, exist_ok=True)
    return d


@click.group()
def main():
    """Directed-information rate and channel-capacity estimation."""


@main.command("baseline")
@click.option("--family", type=click.Choice(["awgn", "ma1"]), required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--power", type=float, required=True)
@click.option("--sigma2", type=float, default=1.0, show_default=True)
def cmd_baseline(family, alpha, power, sigma2):
    """Print the analytic capacity baselines for a channel as JSON."""
    if not all(map(math.isfinite, (alpha, power, sigma2))):
        raise click.UsageError("--alpha, --power and --sigma2 must be finite")
    try:
        ChannelSpec(family, sigma2=sigma2, alpha=alpha)
    except ValueError as err:
        raise click.UsageError(str(err))
    out = {"family": family, "params": {"alpha": alpha, "power": power,
                                        "sigma2": sigma2}}
    try:
        if family == "awgn":
            cap = baselines.awgn_capacity(power, sigma2)
            out["capacity_nats"] = cap
            out["capacity_bits"] = cap / LN2
            out["diagnostics"] = {}
        else:
            ff = baselines.ma1_ff_capacity(power, alpha)
            out["feedforward_capacity_nats"] = ff.capacity_nats
            out["feedforward_capacity_bits"] = ff.capacity_nats / LN2
            out["diagnostics"] = {"water_level": ff.water_level,
                                  "power_gap": ff.power_gap}
            if power > 0:
                fb = baselines.ma1_fb_capacity(power, alpha)
                out["feedback_capacity_nats"] = fb.capacity_nats
                out["feedback_capacity_bits"] = fb.capacity_nats / LN2
                out["diagnostics"]["quartic_root"] = fb.root
        text = json.dumps(out, indent=2, allow_nan=False)
    except (ValueError, RuntimeError) as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(1)
    click.echo(text)


@main.command("grad-check")
@click.argument("component", type=click.Choice(COMPONENTS))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-4, show_default=True)
def cmd_grad_check(component, seed, tol):
    """Finite-difference gradient check; exit 0 iff all within tolerance."""
    passed, report = run_suite(component, seed, tol)
    for name, err in sorted(report.items()):
        click.echo(f"{'PASS' if err < tol else 'FAIL'}  {name}: {err:.3e}")
    if not passed:
        click.echo(f"grad-check {component}: FAILED (tol {tol})", err=True)
        sys.exit(1)
    click.echo(f"grad-check {component}: OK (tol {tol})")


_train_options = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="JSON file with TrainConfig keys."),
    click.option("--batch-size", type=int, default=None),
    click.option("--seq-len", type=int, default=None),
    click.option("--budget", type=int, default=None),
    click.option("--warmup", type=int, default=None),
    click.option("--dine-lr", type=float, default=None),
    click.option("--ndt-lr", type=float, default=None),
    click.option("--dine-hidden", type=int, default=None),
    click.option("--ndt-hidden", type=int, default=None),
    click.option("--eval-samples", type=int, default=None),
    click.option("--seed", type=int, default=None),
    click.option("--out-dir", type=click.Path(), default=None,
                 help="Default from DICAP_OUT_DIR, else cwd."),
]


def train_options(cmd):
    for opt in reversed(_train_options):
        cmd = opt(cmd)
    return cmd


def _run_capacity(family, alpha, power, feedback, config_path, out_dir, kw):
    overrides = dict(kw)
    overrides["power"] = power
    overrides["feedback"] = feedback
    cfg = _build_config(config_path, overrides)
    try:
        spec = ChannelSpec(family, alpha=alpha)
    except ValueError as err:
        raise click.UsageError(str(err))
    report, _, _ = estimate_capacity(spec, cfg)
    tag = (f"{family}_a{alpha:g}_P{power:g}_"
           f"{'fb' if cfg.feedback else 'ff'}_s{cfg.seed}")
    d = _out_dir(out_dir)
    report_path = os.path.join(d, f"capacity_{tag}.json")
    curve_path = os.path.join(d, f"curve_{tag}.csv")
    with open(report_path, "w") as fh:
        fh.write(report.to_json(indent=2))
    write_curve_csv(curve_path, report.curve)
    return report, report_path, curve_path


@main.command("capacity")
@click.option("--family", type=click.Choice(["awgn", "ma1"]), required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--power", type=float, required=True)
@click.option("--feedback/--no-feedback", default=None,
              help="Feed the channel output back (default: the config's).")
@train_options
def cmd_capacity(family, alpha, power, feedback, config_path, out_dir, **kw):
    """Estimate channel capacity; writes a report JSON and curve CSV."""
    try:
        report, report_path, curve_path = _run_capacity(
            family, alpha, power, feedback, config_path, out_dir, kw)
    except (ValueError, RuntimeError) as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(1)
    if report.failed:
        click.echo(f"training failed: {report.failure_reason}", err=True)
        sys.exit(1)
    click.echo(f"capacity estimate: {report.capacity_nats:.6f} nats "
               f"({report.capacity_bits:.6f} bits)")
    if report.baseline_nats is not None:
        click.echo(f"analytic baseline: {report.baseline_nats:.6f} nats "
                   f"(relative error {report.baseline_rel_err:.3f})")
    click.echo(f"report: {report_path}")
    click.echo(f"curve:  {curve_path}")


@main.command("di-estimate")
@click.argument("csv_path", type=click.Path(exists=True))
@click.option("--batch-size", type=click.IntRange(min=1), default=32,
              show_default=True)
@click.option("--seq-len", type=click.IntRange(min=1), default=64,
              show_default=True)
@click.option("--iters", type=click.IntRange(min=1), default=5000,
              show_default=True)
@click.option("--lr", type=float, default=1e-4, show_default=True)
@click.option("--hidden", type=click.IntRange(min=1), default=64,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--random-starts/--disjoint-blocks", default=False,
              show_default=True, help="How training windows are drawn.")
@click.option("--out-dir", type=click.Path(), default=None)
def cmd_di_estimate(csv_path, batch_size, seq_len, iters, lr, hidden, seed,
                    random_starts, out_dir):
    """Estimate the DI rate of a trajectory file; writes curve and summary."""
    # click.FloatRange lets nan and inf through
    if not (math.isfinite(lr) and lr > 0):
        raise click.UsageError("--lr must be finite and positive")
    try:
        x, y = read_trajectory_csv(csv_path)
    except TrajectoryFormatError as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(1)
    rng = Rng(seed)
    try:
        source = window_batches(
            x, y, batch_size, seq_len,
            gen=rng.stream("window-starts") if random_starts else None)
        # one set of helper processes serves the training and the evaluation
        with helpers():
            model, curve = dine_train(
                source, x.shape[1], y.shape[1], hidden=hidden,
                head_hidden=hidden, lr=lr, iters=iters, rng=rng)
            # evaluate on the whole file, cut into the fewest equal sequences
            # of at most 2048 steps; fewer than n_seq rows are left over
            n_seq = -(-x.shape[0] // 2048)
            t_eval = x.shape[0] // n_seq
            ex = x[:n_seq * t_eval].reshape(n_seq, t_eval, -1)
            ey = y[:n_seq * t_eval].reshape(n_seq, t_eval, -1)
            result = dine_estimate(model, ex, ey, seed=seed + 1)
    except (ValueError, RuntimeError) as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(1)
    result["estimate_bits"] = result["estimate_nats"] / LN2
    d = _out_dir(out_dir)
    stem = os.path.splitext(os.path.basename(csv_path))[0]
    curve_path = os.path.join(d, f"dine_curve_{stem}.csv")
    summary_path = os.path.join(d, f"dine_summary_{stem}.json")
    write_curve_csv(curve_path, curve)
    with open(summary_path, "w") as fh:
        json.dump(result, fh, indent=2)
    click.echo(f"DI rate estimate: {result['estimate_nats']:.6f} nats "
               f"({result['estimate_bits']:.6f} bits)")
    click.echo(f"curve:   {curve_path}")
    click.echo(f"summary: {summary_path}")


@main.command("sweep")
@click.option("--family", type=click.Choice(["awgn", "ma1"]), required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--power", "powers", type=float, multiple=True, required=True)
@click.option("--feedback/--no-feedback", default=None,
              help="Feed the channel output back (default: the config's).")
@train_options
def cmd_sweep(family, alpha, powers, feedback, config_path, out_dir, **kw):
    """Run one capacity estimate per power; writes a combined CSV."""
    if not powers:
        raise click.UsageError("at least one --power is required")
    # a --config file may set feedback; the file tag follows the built config
    feedback = _build_config(
        config_path, dict(kw, power=powers[0], feedback=feedback)).feedback
    d = _out_dir(out_dir)
    rows = []
    for p in powers:
        try:
            report, _, _ = _run_capacity(
                family, alpha, p, feedback, config_path, out_dir, kw)
            if report.failed:
                rows.append((p, "", report.baseline_nats, "failed: "
                             + report.failure_reason))
            else:
                rows.append((p, report.capacity_nats, report.baseline_nats, ""))
                click.echo(f"P={p:g}: {report.capacity_nats:.6f} nats")
        except (ValueError, RuntimeError) as err:
            rows.append((p, "", "", f"failed: {err}"))
    tag = f"{family}_a{alpha:g}_{'fb' if feedback else 'ff'}"
    sweep_path = os.path.join(d, f"sweep_{tag}.csv")
    with open(sweep_path, "w") as fh:
        fh.write("power,estimate_nats,baseline_nats,status\n")
        for p, est, base, status in rows:
            fh.write(f"{p},{est},{base},{status}\n")
    click.echo(f"sweep table: {sweep_path}")
    if all(r[3].startswith("failed") for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
