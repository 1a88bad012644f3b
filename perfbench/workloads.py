"""Workload definitions shared by run.py and its worker.

All workloads use the MA(1) channel with alpha = 0.5 and power P = 1, and the
network sizes of the acceptance suite: batch 64, hidden 32, two estimator
steps per generator step. Importing this module imports neither numpy nor
dicap.
"""

ALPHA = 0.5
POWER = 1.0

_CAPACITY_BASE = dict(batch_size=64, dine_lr=1e-3, ndt_lr=5e-4,
                      dine_steps_per_ndt=2, power=POWER, dine_hidden=32,
                      head_hidden=32, ndt_hidden=32)

# TrainConfig keyword arguments; the seed is added per run. ff_capacity keeps
# the library's default final evaluation (1e6 samples in sequences of 2048).
# The output checks need a positive estimate on every seed. With 20 warm-up
# steps the DV potentials had not learned and some estimates were <= 0; the
# feedback objective also dips during its first ~60 alternations (to 0.07
# nats on one seed after 40), so fb_capacity runs 100. Its evaluation of
# 6e5 samples (about 9 s) is long enough to be steady and still about a
# quarter of the round; 3e5 samples (4.5 s) spread by up to 28% over ten runs.
CAPACITY = {
    "ff_capacity": dict(_CAPACITY_BASE, seq_len=20, warmup=200, budget=40,
                        feedback=False),
    "fb_capacity": dict(_CAPACITY_BASE, seq_len=32, warmup=100, budget=100,
                        feedback=True, ndt_lr=1e-3, eval_samples=600_000),
}

# dicap di-estimate on a generated trajectory file: i.i.d. N(0, P) input
# through MA(1) noise, 262144 rows, evaluated in sequences of 2048 steps.
DI = dict(rows=262_144, batch_size=64, seq_len=20, iters=300, lr=1e-3,
          hidden=32)

WORKLOADS = ("ff_capacity", "fb_capacity", "di_estimate")

# Library default of TrainConfig.eval_samples, which ff_capacity relies on.
DEFAULT_EVAL_SAMPLES = 1_000_000


def eval_samples_requested(workload):
    if workload in CAPACITY:
        return CAPACITY[workload].get("eval_samples", DEFAULT_EVAL_SAMPLES)
    return DI["rows"]


def trajectory_path(work_dir, seed):
    return work_dir / f"trajectory_{seed}.csv"


def write_trajectory(path, seed):
    """The di_estimate input: i.i.d. N(0, P) through MA(1) noise, as a dicap
    trajectory CSV (header ``x0,y0``, one time step per row).

    z_i = u_i + alpha * u_{i-1} with a stationary start (u_{-1} is drawn).
    Generated with numpy alone, so the input does not depend on dicap.
    """
    import numpy as np
    gen = np.random.default_rng(seed)
    rows = DI["rows"]
    x = np.sqrt(POWER) * gen.standard_normal(rows)
    u = gen.standard_normal(rows + 1)
    y = x + u[1:] + ALPHA * u[:-1]
    with open(path, "w") as fh:
        fh.write("x0,y0\n")
        fh.write("\n".join(map("{!r},{!r}".format, x.tolist(), y.tolist())))
        fh.write("\n")
