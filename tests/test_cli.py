import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from dicap import cli, dine
from dicap.cli import main
from dicap.channels import ChannelSpec, draw_noise
from dicap.data import write_trajectory_csv
from dicap.nn import Rng


@pytest.fixture
def runner():
    return CliRunner()


def test_baseline_awgn_json(runner):
    res = runner.invoke(main, ["baseline", "--family", "awgn", "--power", "1"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["capacity_nats"] == pytest.approx(0.5 * np.log(2.0))
    assert out["capacity_bits"] == pytest.approx(0.5)


def test_baseline_ma1_json(runner):
    for alpha in ("1", "-1", "0.5", "2"):
        res = runner.invoke(main, ["baseline", "--family", "ma1",
                                   "--alpha", alpha, "--power", "1"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["feedback_capacity_nats"] > out["feedforward_capacity_nats"]
        assert set(out["diagnostics"]) == {"water_level", "power_gap",
                                           "quartic_root"}
    # alpha = 2, P = 1 is the channel alpha = 0.5, P = 0.25
    assert out["feedback_capacity_nats"] == pytest.approx(0.25524, abs=1e-5)


def test_baseline_missing_power_is_usage_error(runner):
    res = runner.invoke(main, ["baseline", "--family", "awgn"])
    assert res.exit_code == 2


@pytest.mark.parametrize("option", ["--alpha", "--power", "--sigma2"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_baseline_non_finite_params_are_usage_errors(runner, option, value):
    args = {"--alpha": "0.5", "--power": "1", "--sigma2": "1"}
    args[option] = value
    res = runner.invoke(main, ["baseline", "--family", "ma1"]
                        + [item for pair in args.items() for item in pair])
    assert res.exit_code == 2
    assert "must be finite" in res.output


@pytest.mark.parametrize("args", [
    ["--family", "ma1", "--sigma2", "2"], ["--family", "awgn", "--alpha", "3"],
    ["--family", "awgn", "--sigma2", "0"]])
def test_baseline_invalid_channel_is_usage_error(runner, args):
    # ChannelSpec's checks: an MA(1) innovation variance or an AWGN alpha
    # would otherwise be echoed next to capacities that do not depend on it
    res = runner.invoke(main, ["baseline", "--power", "1"] + args)
    assert res.exit_code == 2
    assert "Error:" in res.output


def test_baseline_invalid_params_exit_one(runner):
    res = runner.invoke(main, ["baseline", "--family", "awgn",
                               "--power", "-1"])
    assert res.exit_code == 1


def test_grad_check_nn_passes(runner):
    res = runner.invoke(main, ["grad-check", "nn"])
    assert res.exit_code == 0
    assert "OK" in res.output


def test_grad_check_impossible_tolerance_fails(runner):
    res = runner.invoke(main, ["grad-check", "nn", "--tol", "0"])
    assert res.exit_code == 1


@pytest.mark.parametrize("args", [
    ["--seed", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"]])
def test_grad_check_bad_option_is_usage_error(runner, args):
    # a negative seed ended in numpy's ValueError, a nan tolerance failed
    # every parameter
    res = runner.invoke(main, ["grad-check", "nn"] + args)
    assert res.exit_code == 2, res.output
    assert "Error:" in res.output
    assert "PASS" not in res.output and "FAIL" not in res.output


def test_grad_check_unknown_selector(runner):
    res = runner.invoke(main, ["grad-check", "everything"])
    assert res.exit_code == 2


def test_capacity_missing_power_is_usage_error(runner):
    res = runner.invoke(main, ["capacity", "--family", "awgn"])
    assert res.exit_code == 2


def test_capacity_awgn_with_alpha_is_usage_error(runner, tmp_path):
    res = runner.invoke(main, ["capacity", "--family", "awgn", "--alpha", "3",
                               "--power", "1", "--out-dir", str(tmp_path)])
    assert res.exit_code == 2
    assert "alpha must be 0" in res.output
    assert not list(tmp_path.iterdir())


def test_capacity_tiny_run_writes_outputs(runner, tmp_path):
    res = runner.invoke(main, [
        "capacity", "--family", "awgn", "--power", "1", "--seed", "3",
        "--batch-size", "4", "--seq-len", "8", "--budget", "5",
        "--warmup", "2", "--eval-samples", "100000",
        "--dine-hidden", "6", "--ndt-hidden", "5",
        "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    reports = list(tmp_path.glob("capacity_*.json"))
    curves = list(tmp_path.glob("curve_*.csv"))
    assert len(reports) == 1 and len(curves) == 1
    rep = json.loads(reports[0].read_text())
    assert rep["capacity_bits"] == pytest.approx(
        rep["capacity_nats"] / np.log(2.0))
    with open(curves[0], newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 5


def test_capacity_config_file_and_unknown_keys(runner, tmp_path):
    # eval_batch, fb_norm_decay, ref_margin and clip_norm were fields once;
    # a config that still sets one is rejected
    cfg = tmp_path / "cfg.json"
    for raw, key in (({"budget": 2, "nonsense": 1}, "nonsense"),
                     ({"eval_batch": 32}, "eval_batch"),
                     ({"fb_norm_decay": 0.5}, "fb_norm_decay"),
                     ({"ref_margin": 0.1}, "ref_margin"),
                     ({"clip_norm": 1.0}, "clip_norm")):
        cfg.write_text(json.dumps(raw))
        res = runner.invoke(main, ["capacity", "--family", "awgn", "--power",
                                   "1", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "unknown config keys" in res.output
        assert key in res.output


@pytest.mark.parametrize("bad", [
    {"batch_size": 0}, {"budget": 2.5}, {"dine_lr": None}, {"seed": -1}])
def test_capacity_bad_config_value_is_usage_error(runner, tmp_path, bad):
    # tiny otherwise, so that a config that slips through ends quickly
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        {"budget": 1, "warmup": 0, "batch_size": 4, "seq_len": 8,
         "eval_samples": 100000, "dine_hidden": 6, "ndt_hidden": 5}, **bad)))
    res = runner.invoke(main, ["capacity", "--family", "awgn", "--power", "1",
                               "--config", str(cfg), "--out-dir",
                               str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "Error:" in res.output


@pytest.mark.parametrize("command", ["capacity", "sweep"])
@pytest.mark.parametrize("text", ["5", "null", "[]", "{budget: 1}"])
def test_config_not_a_json_object_is_usage_error(runner, tmp_path, command,
                                                 text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--family", "awgn", "--power", "1",
                               "--config", str(cfg), "--out-dir", str(out)])
    assert res.exit_code == 2, res.output
    assert f"config file {cfg}:" in res.output
    assert not out.exists()


def test_capacity_flag_overrides_config_file(runner, tmp_path):
    # a flag that is given overrides the file; one left out keeps its value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 3, "seed": 4}))
    res = runner.invoke(main, [
        "capacity", "--family", "awgn", "--power", "1", "--config", str(cfg),
        "--budget", "2", "--batch-size", "4", "--seq-len", "8",
        "--warmup", "1", "--eval-samples", "100000", "--dine-hidden", "6",
        "--ndt-hidden", "5", "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rep = json.loads((tmp_path / "capacity_awgn_a0_P1_ff_s4.json").read_text())
    assert rep["config"]["budget"] == 2
    assert rep["config"]["seed"] == 4
    assert len(rep["curve"]) == 2


def test_capacity_config_file_sets_feedback(runner, tmp_path):
    # with neither --feedback nor --no-feedback the file's value holds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"feedback": True, "budget": 2, "warmup": 1, "batch_size": 4,
         "seq_len": 8, "eval_samples": 100000, "dine_hidden": 6,
         "ndt_hidden": 5}))
    res = runner.invoke(main, [
        "capacity", "--family", "ma1", "--alpha", "0.5", "--power", "1",
        "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rep = json.loads(
        (tmp_path / "capacity_ma1_a0.5_P1_fb_s0.json").read_text())
    assert rep["config"]["feedback"] is True


def test_di_estimate_empty_file(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("")
    res = runner.invoke(main, ["di-estimate", str(bad)])
    assert res.exit_code == 1


def test_di_estimate_too_short_file(runner, tmp_path):
    path = tmp_path / "short.csv"
    gen = np.random.default_rng(0)
    write_trajectory_csv(path, gen.standard_normal((16, 1)),
                         gen.standard_normal((16, 1)))
    res = runner.invoke(main, ["di-estimate", str(path),
                               "--batch-size", "8", "--seq-len", "16"])
    assert res.exit_code == 1
    assert "rows" in res.output


@pytest.mark.parametrize("option, value", [
    ("--seq-len", "0"), ("--seq-len", "-5"), ("--batch-size", "0"),
    ("--batch-size", "-3"), ("--iters", "0"), ("--iters", "-1"),
    ("--hidden", "0"), ("--lr", "0"), ("--lr", "-1"), ("--lr", "nan"),
    ("--lr", "inf"), ("--seed", "-1")])
def test_di_estimate_bad_option_is_usage_error(runner, tmp_path, option,
                                               value):
    res = runner.invoke(main, ["di-estimate", str(_tiny_trajectory(tmp_path)),
                               option, value, "--out-dir", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert option in res.output
    assert not (tmp_path / "dine_summary_traj.json").exists()


def _tiny_trajectory(tmp_path):
    gen = Rng(5).stream("file")
    x = gen.standard_normal((1024, 1))
    y = x + gen.standard_normal((1024, 1))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, x, y)
    return path


def _tiny_di_estimate(runner, path, out_dir):
    return runner.invoke(main, [
        "di-estimate", str(path), "--batch-size", "8", "--seq-len", "16",
        "--iters", "10", "--hidden", "8", "--out-dir", str(out_dir)])


def test_di_estimate_tiny_run(runner, tmp_path):
    res = _tiny_di_estimate(runner, _tiny_trajectory(tmp_path), tmp_path)
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "dine_summary_traj.json").read_text())
    assert "estimate_nats" in summary and "estimate_bits" in summary
    assert (tmp_path / "dine_curve_traj.csv").exists()


def test_di_estimate_evaluates_the_whole_file(runner, tmp_path):
    # 3000 rows are two sequences of 1500 steps, not one of 2048
    gen = Rng(6).stream("file")
    x = gen.standard_normal((3000, 1))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, x, x + gen.standard_normal((3000, 1)))
    res = _tiny_di_estimate(runner, path, tmp_path)
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "dine_summary_traj.json").read_text())
    assert summary["samples"] == 3000


def test_di_estimate_non_finite_value_is_an_error(runner, tmp_path,
                                                  started_helpers):
    # an inf in y: before the file was checked, it reached the evaluation
    # and failed there without naming the row
    path = _tiny_trajectory(tmp_path)
    lines = path.read_text().splitlines()
    lines[1000] = lines[1000].split(",")[0] + ",inf"
    path.write_text("\n".join(lines) + "\n")
    res = _tiny_di_estimate(runner, path, tmp_path)
    assert res.exit_code == 1
    assert "row 1001: non-finite value" in res.output
    assert started_helpers == []


def test_di_estimate_one_helper_for_training_and_evaluation(
        runner, tmp_path, monkeypatch, started_helpers):
    path = _tiny_trajectory(tmp_path)
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        res = _tiny_di_estimate(runner, path, out_dir)
        assert res.exit_code == 0, res.output
        assert len(started_helpers) == cpus - 1
        outputs.append([(out_dir / name).read_bytes() for name in (
            "dine_summary_traj.json", "dine_curve_traj.csv")])
    assert outputs[0] == outputs[1]
    assert started_helpers[0].poll() is not None


@pytest.mark.parametrize("cpus", [1, 2])
def test_di_estimate_evaluation_failure_is_an_error(
        runner, tmp_path, monkeypatch, started_helpers, cpus):
    estimate = cli.dine_estimate

    def poisoned(model, *args, **kwargs):
        model.pot_yx.head2.b.value[:] = np.nan
        return estimate(model, *args, **kwargs)

    monkeypatch.setattr(cli, "dine_estimate", poisoned)
    monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
    res = _tiny_di_estimate(runner, _tiny_trajectory(tmp_path), tmp_path)
    assert res.exit_code == 1
    assert "error: non-finite DV potential values" in res.output
    assert len(started_helpers) == cpus - 1
    assert all(helper.poll() is not None for helper in started_helpers)


def test_sweep_single_power_matches_capacity(runner, tmp_path):
    args = ["--family", "awgn", "--seed", "4", "--batch-size", "4",
            "--seq-len", "8", "--budget", "4", "--warmup", "1",
            "--eval-samples", "100000", "--dine-hidden", "6",
            "--ndt-hidden", "5", "--out-dir", str(tmp_path)]
    res1 = runner.invoke(main, ["capacity", "--power", "1"] + args)
    assert res1.exit_code == 0, res1.output
    res2 = runner.invoke(main, ["sweep", "--power", "1"] + args)
    assert res2.exit_code == 0, res2.output
    sweep = (tmp_path / "sweep_awgn_a0_ff.csv").read_text().splitlines()
    est = float(sweep[1].split(",")[1])
    rep = json.loads((tmp_path / "capacity_awgn_a0_P1_ff_s4.json").read_text())
    assert est == rep["capacity_nats"]


def test_sweep_checks_every_power_before_the_first_run(runner, tmp_path,
                                                      monkeypatch):
    def estimate_capacity(spec, cfg):
        raise AssertionError("a power ran before all were checked")

    monkeypatch.setattr(cli, "estimate_capacity", estimate_capacity)
    res = runner.invoke(main, ["sweep", "--family", "awgn", "--power", "1",
                               "--power", "-1", "--out-dir", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "power must be positive" in res.output
    assert not list(tmp_path.iterdir())


def test_sweep_requires_power(runner):
    res = runner.invoke(main, ["sweep", "--family", "awgn"])
    assert res.exit_code == 2


def test_seed_determinism_of_cli(runner, tmp_path):
    args = ["capacity", "--family", "ma1", "--alpha", "0.5", "--power", "1",
            "--seed", "7", "--batch-size", "4", "--seq-len", "8",
            "--budget", "3", "--warmup", "1", "--eval-samples", "100000",
            "--dine-hidden", "6", "--ndt-hidden", "5"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert runner.invoke(main, args + ["--out-dir", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out-dir", str(out2)]).exit_code == 0
    rep1 = json.loads(next(out1.glob("*.json")).read_text())
    rep2 = json.loads(next(out2.glob("*.json")).read_text())
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2
