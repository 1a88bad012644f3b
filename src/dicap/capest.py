"""Capacity estimation by alternating estimator and generator updates.

Repeats {k estimator ascent steps, 1 generator ascent step} on fresh
rollouts, then runs a long Monte-Carlo evaluation with frozen parameters to
produce the final estimate and report.
"""

import json
import numbers
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import baselines
from .channels import rollout
# dv_value is no longer called here; it stays importable as capest.dv_value
# because tracers that wrap it look it up at every name it was imported by
from .dine import (DineModel, dv_value, evaluate_chunks,  # noqa: F401
                   helpers)
from .nn import Adam, GradientError, Rng
from .ndt import NdtModel

LN2 = float(np.log(2.0))
# the values a TrainConfig field of each annotated type accepts
_KINDS = {int: numbers.Integral, float: numbers.Real, bool: bool}


@dataclass
class TrainConfig:
    batch_size: int = 32
    seq_len: int = 64
    dine_lr: float = 1e-4
    ndt_lr: float = 1e-4
    budget: int = 5000              # alternations
    dine_steps_per_ndt: int = 3
    warmup: int = 500               # estimator-only iterations before alternating
    power: float = 1.0
    feedback: bool = False
    eval_samples: int = 1_000_000
    eval_seq_len: int = 2048
    seed: int = 0
    dine_hidden: int = 64
    head_hidden: int = 64
    ndt_hidden: int = 64

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _KINDS[f.type])
                    or isinstance(value, bool) != (f.type is bool)):
                raise ValueError(f"{f.name} must be of type {f.type.__name__}")
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        positive = ("batch_size", "seq_len", "dine_lr", "ndt_lr", "budget",
                    "dine_steps_per_ndt", "power", "eval_samples",
                    "eval_seq_len", "dine_hidden", "head_hidden", "ndt_hidden")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.warmup < 0 or self.seed < 0:
            raise ValueError("warmup and seed must be nonnegative")
        if self.eval_samples < 10 ** 5:
            raise ValueError("eval_samples must be at least 1e5")


@dataclass
class EstimateReport:
    capacity_nats: float
    capacity_bits: float
    raw_estimate_nats: float
    d_y: float
    d_yx: float
    realized_power: float
    eval_samples: int
    curve: list
    config: dict
    channel: dict
    baseline_nats: float = None
    baseline_rel_err: float = None
    failed: bool = False
    failure_reason: str = ""
    wall_time_s: float = 0.0

    def to_dict(self):
        return asdict(self)

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)


def baseline_for(spec, power, feedback):
    """Analytic capacity for the given channel."""
    if spec.family == "awgn":
        return baselines.awgn_capacity(power, spec.sigma2)
    if feedback:
        return baselines.ma1_fb_capacity(power, spec.alpha).capacity_nats
    return baselines.ma1_ff_capacity(power, spec.alpha).capacity_nats


def monte_carlo_eval(dine, ndt, spec, samples, seed, seq_len):
    """Long evaluation with frozen models: fresh rollouts totaling ``samples``.

    ``evaluate_chunks`` cuts the sequences into chunks; chunk k is rolled
    out from its own streams ``Rng(seed).stream(f"eval/{k}/ndt-noise")`` and
    ``.../channel``, with power normalization over the chunk, in the process
    that scores it against the box of its own outputs, and is dropped before
    the next is rolled out. Returns (estimate, d_y, d_yx, realized_power,
    actual sample count).
    """
    n_seq = -(-samples // seq_len)
    est, vy, vyx, sumsq = evaluate_chunks(dine, seed, n_seq, _rollout_chunk,
                                          ndt, spec, seq_len, seed)
    count = n_seq * seq_len
    return est, vy, vyx, sumsq / count, count


def _rollout_chunk(ndt, spec, seq_len, seed, k, n_seq):
    """Channel inputs and outputs of the n_seq sequences of chunk k."""
    rng = Rng(seed)
    ro = rollout(ndt, spec, n_seq, seq_len, rng.stream(f"eval/{k}/ndt-noise"),
                 rng.stream(f"eval/{k}/channel"), need_cache=False)
    return ro.x, ro.y


def estimate_capacity(spec, config):
    """Alternating maximization plus final Monte-Carlo evaluation."""
    config.validate()
    start_time = time.perf_counter()
    rng = Rng(config.seed)
    dine = DineModel(1, 1, config.dine_hidden, config.head_hidden, rng=rng,
                     lr=config.dine_lr)
    ndt = NdtModel(hidden=config.ndt_hidden, power=config.power,
                   feedback=config.feedback, gen=rng.stream("init-ndt"))
    adam_ndt = Adam(ndt.params(), lr=config.ndt_lr)
    noise_gen = rng.stream("ndt-noise")
    chan_gen = rng.stream("channel")
    B, T = config.batch_size, config.seq_len

    def fresh(need_cache):
        return rollout(ndt, spec, B, T, noise_gen, chan_gen,
                       need_cache=need_cache)

    curve = []
    failed = False
    reason = ""
    try:
        # one set of helper processes serves the training and the evaluation
        with helpers():
            with dine.training():
                for _ in range(config.warmup):
                    ro = fresh(False)
                    dine.train_step(ro.x, ro.y)
                for it in range(config.budget):
                    for _ in range(config.dine_steps_per_ndt):
                        ro = fresh(False)
                        vy, vyx = dine.train_step(ro.x, ro.y)
                    ro = fresh(True)
                    obj, dx, dy = dine.input_gradients(ro.x, ro.y,
                                                       dine.reference(ro.y))
                    adam_ndt.zero_grads()
                    ro.backward(dx, dy)
                    adam_ndt.step()
                    curve.append((it, vy, vyx, obj, ro.realized_power))
            est, vy, vyx, realized, count = monte_carlo_eval(
                dine, ndt, spec, config.eval_samples, config.seed + 1,
                config.eval_seq_len)
    except GradientError as err:
        failed = True
        reason = str(err)
        est = vy = vyx = realized = 0.0
        count = 0

    base = baseline_for(spec, config.power, config.feedback)
    rel = None if base == 0.0 or failed else abs(est - base) / base
    report = EstimateReport(
        capacity_nats=max(est, 0.0),
        capacity_bits=max(est, 0.0) / LN2,
        raw_estimate_nats=est,
        d_y=vy,
        d_yx=vyx,
        realized_power=realized,
        eval_samples=count,
        curve=curve,
        config=asdict(config),
        channel={"family": spec.family, "sigma2": spec.sigma2,
                 "alpha": spec.alpha},
        baseline_nats=base,
        baseline_rel_err=rel,
        failed=failed,
        failure_reason=reason,
        wall_time_s=time.perf_counter() - start_time,
    )
    return report, dine, ndt

