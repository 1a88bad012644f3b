import json

import numpy as np
import pytest
from click.testing import CliRunner

from dicap.cli import main
from dicap.channels import ChannelSpec, draw_noise
from dicap.data import read_curve_csv, write_trajectory_csv
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
    for alpha in ("0.5", "2"):
        res = runner.invoke(main, ["baseline", "--family", "ma1",
                                   "--alpha", alpha, "--power", "1"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["feedback_capacity_nats"] > out["feedforward_capacity_nats"]
        assert out["diagnostics"]["fb_baseline_trusted"]
    # alpha = 2, P = 1 is the channel alpha = 0.5, P = 0.25
    assert out["feedback_capacity_nats"] == pytest.approx(0.25524, abs=1e-5)


def test_baseline_missing_power_is_usage_error(runner):
    res = runner.invoke(main, ["baseline", "--family", "awgn"])
    assert res.exit_code == 2


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


def test_grad_check_unknown_selector(runner):
    res = runner.invoke(main, ["grad-check", "everything"])
    assert res.exit_code == 2


def test_capacity_missing_power_is_usage_error(runner):
    res = runner.invoke(main, ["capacity", "--family", "awgn"])
    assert res.exit_code == 2


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
    assert len(read_curve_csv(curves[0])) == 5


def test_capacity_config_file_and_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 2, "nonsense": 1}))
    res = runner.invoke(main, ["capacity", "--family", "awgn", "--power", "1",
                               "--config", str(cfg)])
    assert res.exit_code == 2
    assert "unknown config keys" in res.output


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


def test_di_estimate_tiny_run(runner, tmp_path):
    gen = Rng(5).stream("file")
    x = gen.standard_normal((1024, 1))
    y = x + gen.standard_normal((1024, 1))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, x, y)
    res = runner.invoke(main, [
        "di-estimate", str(path), "--batch-size", "8", "--seq-len", "16",
        "--iters", "10", "--hidden", "8", "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "dine_summary_traj.json").read_text())
    assert "estimate_nats" in summary and "estimate_bits" in summary
    assert (tmp_path / "dine_curve_traj.csv").exists()


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
