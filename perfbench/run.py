"""Benchmark of dicap's capacity and directed-information estimation.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each round is one fresh worker process with BLAS pinned to one thread; rounds
run one after another. A run repeats whole rounds of its workload for about
``--seconds`` seconds (at least one), checks every round's outputs against
closed forms computed here, and prints each metric with its unit. The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (counts of output checks) and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end medians over the rounds; with ``--trace 1`` the
run makes an untraced and a traced round and reports per-layer figures and
the tracing overhead. Result files, traces and
generated trajectory files go to ``perfbench/out/``. See
``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (ALPHA, CAPACITY, DI, POWER, WORKLOADS,
                       eval_samples_requested, trajectory_path,
                       write_trajectory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7          # set-up timings per run, rounds included
WORKER_TIMEOUT_S = 170

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "estimate_s": "s", "train_s": "s",
              "eval_ksamples_per_s": "ksamples/s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def source_hash():
    """Digest of dicap's and the benchmark's sources: stored report digests
    are only compared between runs of the same code."""
    h = hashlib.sha256()
    sources = sorted((ROOT / "src" / "dicap").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in sources:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(workload, seed, trace=0, setup_only=False):
    out = OUT / f"round_{workload}_{seed}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--work-dir", str(OUT),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **PINNED),
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    rec = json.loads(out.read_text())
    out.unlink()
    rec["wall_s"] = wall
    return rec


def round_checks(workload, rec, digests, key):
    import checks    # imports numpy: only after main() has pinned BLAS
    if workload == "di_estimate":
        found = checks.di_checks(rec, POWER, ALPHA, DI["rows"])
    else:
        found = checks.capacity_checks(
            rec, CAPACITY[workload]["feedback"], POWER, ALPHA,
            eval_samples_requested(workload))
    first = digests.setdefault(key, rec["digest"])
    found.append(("same_digest", rec["digest"] == first,
                  f"report digest {rec['digest'][:12]} differs from "
                  f"{first[:12]} of an earlier round at this seed"))
    return found


def summary(values):
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run_workload(workload, seed, seconds, trace):
    """Run the rounds of one workload; returns the result record."""
    trajectory = trajectory_path(OUT, seed)
    if workload == "di_estimate":
        write_trajectory(trajectory, seed)
    try:
        if trace:
            rounds = [run_worker(workload, seed, t) for t in (0, 1)]
        else:
            rounds = [run_worker(workload, seed)]
            wanted = max(1, int(seconds // rounds[0]["wall_s"]))
            while len(rounds) < wanted:
                rounds.append(run_worker(workload, seed))
        setups = [r["setup_s"] for r in rounds]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(workload, seed, setup_only=True)["setup_s"])
    finally:
        trajectory.unlink(missing_ok=True)    # 10 MB, regenerated from the seed

    digest_file = OUT / "digests.json"
    digests = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    key = f"{workload}/{seed}/{source_hash()}"
    failures = []
    attempted = 0
    for i, rec in enumerate(rounds):
        found = round_checks(workload, rec, digests, key)
        attempted += len(found)
        failures += [f"round {i}: {name}: {detail}"
                     for name, ok, detail in found if not ok]
    digest_file.write_text(json.dumps(digests, indent=1, sort_keys=True))

    stats = {"setup_s": summary(setups)}
    for name in END_TO_END:
        if name != "setup_s":
            stats[name] = summary([r[name] for r in rounds if r["trace"] == 0])
    if trace:
        traced = rounds[1]
        layers = dict(traced["layers"])
        layers["tracing_overhead"] = traced["estimate_s"] / rounds[0]["estimate_s"]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "failures": failures,
        "metrics": metrics, "end_to_end": stats,
        "run_record": rounds[0]["run_record"],
        "rounds": [{k: v for k, v in r.items() if k not in ("run_record", "layers")}
                   for r in rounds],
        "setup_samples_s": setups,
    }


def layer_unit(name):
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "total_s": "s", "self_s": "s",
            "krow_steps_per_s": "krow-steps/s", "rss_growth_mb": "MB",
            "tracing_overhead": "ratio"}[suffix]


def print_result(res):
    print(f"== {res['workload']} seed {res['seed']} "
          f"({'traced' if res['trace'] else 'untraced'}, "
          f"{len(res['rounds'])} rounds)")
    if res["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    else:
        for name, unit in END_TO_END.items():
            s = res["end_to_end"][name]
            print(f"  {name:22s} {s['median']:12.6g} {unit:11s}"
                  f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"  checks: {res['attempted'] - res['failed']}/{res['attempted']} passed")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # pin this process too, before the checks import numpy
    os.environ.update(PINNED)

    if not (ROOT / "src" / "dicap" / "__init__.py").is_file():
        sys.exit(f"dicap sources not found under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace))
            print_result(results[-1])
    except (WorkerError, subprocess.TimeoutExpired) as err:
        sys.exit(f"benchmark run failed: {err}")
    for res in results:
        path = OUT / f"result_{res['workload']}_{res['seed']}_trace{res['trace']}.json"
        path.write_text(json.dumps(res, indent=1))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    final = {"correct": all(r["correct"] for r in results),
             "attempted": sum(r["attempted"] for r in results),
             "failed": sum(r["failed"] for r in results),
             "metrics": metrics}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
