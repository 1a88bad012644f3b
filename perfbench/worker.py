"""One benchmark round in a fresh process: set up, estimate, record.

``run.py`` starts this script with BLAS pinned to one thread and reads the
JSON record it writes to ``--out``. The worker times the set-up (importing
dicap and building the inputs), the estimate and its final evaluation, and
with ``--trace 1`` records spans of dicap's public functions. It does not
judge the outputs; ``run.py`` checks them against closed forms of its own.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

from tracing import Tracer, peak_rss_mb
from workloads import ALPHA, CAPACITY, DI, WORKLOADS, trajectory_path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    return ap.parse_args(argv)


def setup(args):
    """Import dicap and build the inputs of the workload; returns the inputs
    and the modules the estimate needs. The trajectory file of di_estimate
    was written beforehand by run.py; it is not part of the set-up time."""
    sys.path.insert(0, str(SRC))
    import dicap
    from dicap import capest, channels, data, dine, ndt, nn
    mods = {"capest": capest, "channels": channels, "data": data,
            "dine": dine, "ndt": ndt, "nn": nn}
    if args.workload == "di_estimate":
        from dicap import cli
        mods["cli"] = cli
        inputs = trajectory_path(args.work_dir, args.seed)
    else:
        spec = channels.ChannelSpec("ma1", alpha=ALPHA)
        config = capest.TrainConfig(seed=args.seed, **CAPACITY[args.workload])
        inputs = (spec, config)
    return dicap, mods, inputs


def blas_runtime():
    """The loaded OpenBLAS library, its thread count and build config."""
    import ctypes
    info = {"library": None, "threads": None, "config": None}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                info.update(library=os.path.basename(path),
                            threads=int(threads()),
                            config=config().decode())
                return info
    return info


def run_record():
    """Machine, interpreter, numpy and BLAS facts for the result file."""
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        build_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        build_blas = None
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_build": build_blas, "blas_runtime": blas_runtime(),
            "thread_env": {k: os.environ.get(k) for k in PINNED_VARS}}


def mark_phase(owner, attr, marks):
    """Record when the final evaluation (``owner.attr``) starts and ends."""
    orig = getattr(owner, attr)

    def marked(*args, **kwargs):
        marks["eval_start"] = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            marks["eval_end"] = time.perf_counter()

    setattr(owner, attr, marked)


def digest(payload):
    return hashlib.sha256(payload).hexdigest()


def run_capacity(mods, inputs, marks):
    """``estimate_capacity`` on the workload's channel and config."""
    spec, config = inputs
    mark_phase(mods["capest"], "monte_carlo_eval", marks)
    marks["start"] = time.perf_counter()
    report, _, _ = mods["capest"].estimate_capacity(spec, config)
    marks["end"] = time.perf_counter()
    fields = report.to_dict()
    fields.pop("wall_time_s")
    return {
        "digest": digest(json.dumps(fields, sort_keys=True).encode()),
        "eval_samples": report.eval_samples,
        "report": {k: fields[k] for k in (
            "capacity_nats", "raw_estimate_nats", "baseline_nats", "failed",
            "failure_reason", "realized_power", "eval_samples")},
    }


def run_di_estimate(mods, path, seed, work_dir, marks):
    """The ``dicap di-estimate`` command on the generated trajectory file."""
    cli = mods["cli"]
    mark_phase(cli, "dine_estimate", marks)
    argv = ["di-estimate", str(path), "--batch-size", str(DI["batch_size"]),
            "--seq-len", str(DI["seq_len"]), "--iters", str(DI["iters"]),
            "--lr", repr(DI["lr"]), "--hidden", str(DI["hidden"]),
            "--seed", str(seed), "--out-dir", str(work_dir)]
    marks["start"] = time.perf_counter()
    cli.main(argv, standalone_mode=False)
    marks["end"] = time.perf_counter()
    stem = path.stem
    summary = (work_dir / f"dine_summary_{stem}.json").read_bytes()
    curve = (work_dir / f"dine_curve_{stem}.csv").read_bytes()
    result = json.loads(summary)
    return {"digest": digest(summary + curve),
            "eval_samples": result["samples"],
            "report": {"estimate_nats": result["estimate_nats"],
                       "samples": result["samples"]}}


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    dicap, mods, inputs = setup(args)
    setup_s = time.perf_counter() - t0

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "setup_s": setup_s,
              "run_record": run_record()}
    if Path(dicap.__file__).resolve().parent != SRC / "dicap":
        sys.exit(f"dicap was imported from {dicap.__file__}, not from {SRC}")
    unpinned = {k: v for k, v in record["run_record"]["thread_env"].items()
                if v != "1"}
    threads = record["run_record"]["blas_runtime"]["threads"]
    if unpinned or threads not in (None, 1):
        sys.exit(f"BLAS is not pinned to one thread (variables not 1: "
                 f"{sorted(unpinned)}, OpenBLAS threads: {threads}); "
                 "refusing to time")
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(mods)
        marks = {}
        if args.workload == "di_estimate":
            out = run_di_estimate(mods, inputs, args.seed, args.work_dir, marks)
        else:
            out = run_capacity(mods, inputs, marks)
        peak_mb = peak_rss_mb()
        # a capacity report that failed in training has no evaluation; its
        # checks fail in run.py
        eval_start = marks.get("eval_start", marks["end"])
        eval_s = marks.get("eval_end", marks["end"]) - eval_start
        record.update(out)
        record.update(
            estimate_s=marks["end"] - marks["start"],
            train_s=eval_start - marks["start"],
            eval_s=eval_s,
            eval_ksamples_per_s=out["eval_samples"] / eval_s / 1e3 if eval_s else 0.0,
            peak_rss_mb=peak_mb)
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            trace_path = args.work_dir / f"trace_{args.workload}_{args.seed}.npz"
            tracer.save(trace_path)
            record["trace_file"] = trace_path.name
    args.out.write_text(json.dumps(record))


if __name__ == "__main__":
    main()
