import dataclasses

import numpy as np
import pytest

from dicap import capest, dine
from dicap.capest import (TrainConfig, curve_summary, estimate_capacity,
                          monte_carlo_eval)
from dicap.channels import ChannelSpec, rollout
from dicap.dine import DineModel
from dicap.ndt import NdtModel
from dicap.nn import Rng

TINY = dict(batch_size=4, seq_len=8, budget=6, warmup=3, dine_steps_per_ndt=2,
            dine_lr=1e-3, ndt_lr=1e-3, eval_samples=100_000, eval_seq_len=500,
            dine_hidden=6, head_hidden=5, ndt_hidden=5)


def test_config_validation():
    bad = [dict(batch_size=0), dict(eval_samples=1000),
           dict(fb_norm_decay=1.0), dict(power=np.nan), dict(dine_lr=np.inf),
           dict(ndt_lr=np.nan), dict(ref_margin=np.inf),
           dict(clip_norm=np.nan), dict(fb_norm_decay=np.nan),
           dict(clip_norm=-1.0), dict(clip_norm=0.0), dict(budget=2.5),
           dict(batch_size=True), dict(dine_lr=None), dict(power="1"),
           dict(feedback=1), dict(seed=-1)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()
    TrainConfig().validate()
    TrainConfig(clip_norm=None, power=2, feedback=True).validate()


def test_report_bookkeeping_identity():
    cfg = TrainConfig(seed=3, **TINY)
    report, _, _ = estimate_capacity(ChannelSpec("awgn"), cfg)
    assert report.raw_estimate_nats == pytest.approx(report.d_yx - report.d_y)
    assert report.capacity_nats == max(report.raw_estimate_nats, 0.0)
    assert report.capacity_bits == pytest.approx(
        report.capacity_nats / np.log(2.0))
    assert report.eval_samples >= cfg.eval_samples
    assert len(report.curve) == cfg.budget


def test_identical_seeds_reproduce_report():
    def run():
        cfg = TrainConfig(seed=5, **TINY)
        report, _, _ = estimate_capacity(ChannelSpec("ma1", alpha=0.5), cfg)
        d = report.to_dict()
        d.pop("wall_time_s")
        return d

    assert run() == run()


def test_different_seeds_differ():
    def run(seed):
        cfg = TrainConfig(seed=seed, **TINY)
        report, _, _ = estimate_capacity(ChannelSpec("awgn"), cfg)
        return report.raw_estimate_nats

    assert run(1) != run(2)


def test_monte_carlo_zero_potentials_give_exact_zero():
    rng = Rng(6)
    dine = DineModel(1, 1, hidden=5, head_hidden=4, rng=rng)
    for pot in (dine.pot_y, dine.pot_yx):
        pot.head2.W.value[:] = 0.0
        pot.head2.b.value[:] = 0.0
    ndt = NdtModel(1, 1, hidden=4, dense_hidden=3, gen=rng.stream("ndt"))
    est, vy, vyx, power, count = monte_carlo_eval(
        dine, ndt, ChannelSpec("awgn"), 100_000, seed=7, seq_len=500)
    assert est == 0.0
    assert vy == 0.0 and vyx == 0.0
    assert count >= 100_000
    assert power == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("feedback", [False, True])
def test_monte_carlo_same_for_one_and_two_workers(monkeypatch, feedback):
    rng = Rng(12)
    model = DineModel(1, 1, hidden=5, head_hidden=4, rng=rng)
    ndt = NdtModel(1, 1, hidden=4, dense_hidden=3, feedback=feedback,
                   gen=rng.stream("ndt"))
    # 50 sequences in chunks of 7: the last chunk holds one; 5 sequences
    # make one chunk, so all blocks but one are empty
    monkeypatch.setattr(dine, "_CHUNK_SEQS", 7)
    for cpus, samples, n_seq in ((2, 4950, 50), (3, 4950, 50), (2, 495, 5),
                                 (3, 495, 5)):
        results = []
        for workers in (1, cpus):
            monkeypatch.setattr(dine, "usable_cpus", lambda: workers)
            results.append(monte_carlo_eval(
                model, ndt, ChannelSpec("ma1", alpha=0.5), samples, seed=13,
                seq_len=99, fb_norm_decay=0.5 if feedback else 0.0))
        assert results[0] == results[1]
        assert results[0][4] == n_seq * 99


def _width32_models(feedback):
    rng = Rng(12)
    model = DineModel(1, 1, hidden=32, head_hidden=32, rng=rng)
    ndt = NdtModel(1, 1, hidden=32, dense_hidden=32, feedback=feedback,
                   gen=rng.stream("ndt"))
    return model, ndt


@pytest.mark.parametrize("feedback", [False, True])
def test_monte_carlo_matches_reference(monkeypatch, reference_estimate,
                                       feedback):
    # each chunk is rolled out alone from its own streams, normalized over
    # its own rows and scored alone
    model, ndt = _width32_models(feedback)
    spec = ChannelSpec("ma1", alpha=0.5)
    decay = 0.5 if feedback else 0.0
    rng = Rng(13)
    # 150 sequences in chunks of 64: the last chunk holds 22
    chunks = [rollout(ndt, spec, n, 30, rng.stream(f"eval/{k}/ndt-noise"),
                      rng.stream(f"eval/{k}/channel"), need_cache=False,
                      fb_norm_decay=decay)
              for k, n in enumerate((64, 64, 22))]
    sumsq = 0.0
    for ro in chunks:
        sumsq += float(np.sum(ro.x * ro.x))
    want = (*reference_estimate(model, [(ro.x, ro.y) for ro in chunks], 13),
            sumsq / (150 * 30), 150 * 30)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        assert monte_carlo_eval(model, ndt, spec, 150 * 30, seed=13,
                                seq_len=30, fb_norm_decay=decay) == want


@pytest.mark.parametrize("feedback", [False, True])
def test_monte_carlo_same_for_any_cpu_count_with_odd_chunks(monkeypatch,
                                                           feedback):
    # chunks of 7 sequences, cut into different blocks on 1, 2 and 3 CPUs
    monkeypatch.setattr(dine, "_CHUNK_SEQS", 7)
    model, ndt = _width32_models(feedback)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        results.append(monte_carlo_eval(
            model, ndt, ChannelSpec("ma1", alpha=0.5), 4950, seed=13,
            seq_len=99, fb_norm_decay=0.5 if feedback else 0.0))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_evaluation_failure_gives_failed_report(monkeypatch, cpus, bad):
    # a potential that goes non-finite after training fails in the final
    # evaluation; with two CPUs the error is raised in a worker process
    evaluate = capest.monte_carlo_eval

    def poisoned(model, *args):
        model.pot_yx.head2.b.value[:] = bad
        return evaluate(model, *args)

    monkeypatch.setattr(capest, "monte_carlo_eval", poisoned)
    monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
    report, _, _ = estimate_capacity(ChannelSpec("awgn"),
                                     TrainConfig(seed=4, **TINY))
    assert report.failed
    assert "non-finite" in report.failure_reason
    assert len(report.curve) == TINY["budget"]
    assert report.eval_samples == 0


def _report_fields(report):
    fields = report.to_dict()
    fields.pop("wall_time_s")
    return fields


@pytest.mark.parametrize("feedback", [False, True])
def test_training_same_for_one_and_two_cpus(monkeypatch, started_helpers,
                                            feedback):
    # with two CPUs pot_y trains in a helper process
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        report, model, ndt = estimate_capacity(
            ChannelSpec("ma1", alpha=0.5),
            TrainConfig(seed=10, feedback=feedback, **TINY))
        runs.append((_report_fields(report),
                     [p.value for p in model.params() + ndt.params()]))
        assert len(started_helpers) == cpus - 1
    (rep1, params1), (rep2, params2) = runs
    assert not rep1["failed"]
    assert rep1 == rep2
    assert all(np.array_equal(a, b) for a, b in zip(params1, params2))
    assert started_helpers[0].poll() is not None


@pytest.mark.parametrize("poisoned", ["pot_y", "pot_yx", "both"])
def test_training_failure_same_for_one_and_two_cpus(
        monkeypatch, started_helpers, poisoned):
    init = DineModel.__init__

    def poisoned_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for name in ("pot_y", "pot_yx"):
            if poisoned in (name, "both"):
                getattr(self, name).head2.b.value[:] = np.nan

    monkeypatch.setattr(DineModel, "__init__", poisoned_init)
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        report, _, _ = estimate_capacity(ChannelSpec("awgn"),
                                         TrainConfig(seed=11, **TINY))
        reports.append(_report_fields(report))
    assert reports[0]["failed"]
    assert "non-finite" in reports[0]["failure_reason"]
    assert reports[0] == reports[1]
    assert len(started_helpers) == 1
    assert started_helpers[0].poll() is not None


def test_feedback_off_never_sees_outputs():
    cfg = TrainConfig(seed=8, **TINY)
    _, _, ndt = estimate_capacity(ChannelSpec("ma1", alpha=0.5), cfg)
    assert not ndt.feedback
    assert ndt.cell.in_dim == ndt.x_dim


def test_curve_summary_constant():
    s = curve_summary([2.0] * 250)
    assert s["ratio"] == pytest.approx(1.0)
    assert s["peak"] == pytest.approx(2.0)


def test_curve_summary_strictly_increasing():
    s = curve_summary(np.linspace(0.0, 1.0, 500))
    assert s["final"] == pytest.approx(s["peak"])
    assert s["ratio"] == pytest.approx(1.0)


def test_curve_summary_short_curve_shrinks_window():
    s = curve_summary([1.0, 2.0, 3.0], window=100)
    assert s["window"] == 3


def test_curve_summary_empty():
    with pytest.raises(ValueError):
        curve_summary([])


def test_config_echo_in_report():
    cfg = TrainConfig(seed=9, **TINY)
    report, _, _ = estimate_capacity(ChannelSpec("awgn"), cfg)
    assert report.config == dataclasses.asdict(cfg)
    assert report.channel == {"family": "awgn", "sigma2": 1.0, "alpha": 0.0}
