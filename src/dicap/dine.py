"""Directed-information rate estimator.

Two recurrent Donsker-Varadhan potentials are trained by gradient ascent:
one sees only the output process, the other the joint input/output process.
Each potential runs a modified LSTM unroll that, at every step, maps the
previous true-path state to both a true-sample state and a reference-sample
state; the reference branch never feeds back into the recursion. The DI-rate
estimate is the difference of the two optimized DV objectives.
"""

import collections
import os

import numpy as np

from .nn import Adam, Dense, GradientError, LstmCell, Rng


class TrainingDiverged(RuntimeError):
    def __init__(self, iteration, curve):
        super().__init__(f"training diverged at iteration {iteration}")
        self.iteration = iteration
        self.curve = curve


class ReferenceBox:
    """Axis-aligned box covering observed outputs; the uniform reference."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if np.any(self.lo >= self.hi):
            raise ValueError("box must have lo < hi in every dimension")

    @property
    def widths(self):
        return self.hi - self.lo

    def sample(self, gen, batch, steps):
        dim = self.lo.size
        u = gen.uniform(size=(batch, steps, dim))
        return self.lo + u * self.widths


def fit_reference(y, margin=0.05, floor=0.1):
    """Per-dimension min/max of observed y, expanded by margin x range.

    Degenerate dimensions (max == min) are expanded by ``floor`` on each side.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty batch")
    flat = y.reshape(-1, y.shape[-1])
    lo = flat.min(axis=0)
    hi = flat.max(axis=0)
    rng_ = hi - lo
    degenerate = rng_ == 0.0
    pad = np.where(degenerate, floor, margin * rng_)
    return ReferenceBox(lo - pad, hi + pad)


def dv_terms(t_true, t_ref):
    """Sufficient statistics of the DV objective on one chunk of potentials.

    Returns (sum(t_true - m), n, m, sum(exp(t_ref - m))) with m = max(t_ref);
    ``dv_combine`` turns the terms of any number of chunks into the value.
    """
    if not (np.all(np.isfinite(t_true)) and np.all(np.isfinite(t_ref))):
        raise GradientError("non-finite DV potential values")
    m = t_ref.max()
    return (float(np.sum(t_true - m)), t_true.size, float(m),
            float(np.sum(np.exp(t_ref - m))))


def dv_combine(terms):
    """DV value mean(t_true) - log mean exp(t_ref) from per-chunk ``dv_terms``.

    Every chunk is shifted to the largest reference maximum M. A constant
    potential gives sum(t_true - m) = 0, m = M and sum exp = n in every
    chunk, so its value is exactly 0.0 in floating point.
    """
    big = max(m for _, _, m, _ in terms)
    n = sum(k for _, k, _, _ in terms)
    mean_true = sum(a + k * (m - big) for a, k, m, _ in terms) / n
    mean_exp = sum(s * np.exp(m - big) for _, _, m, s in terms) / n
    return float(mean_true - np.log(mean_exp))


def dv_value(t_true, t_ref):
    """Empirical DV objective and its gradients w.r.t. the potential values.

    value = mean(t_true) - log mean exp(t_ref), with a max-shifted
    log-sum-exp. Gradients: 1/N on true values, -softmax on reference values.
    """
    t_true = np.asarray(t_true)
    t_ref = np.asarray(t_ref)
    terms = dv_terms(t_true, t_ref)
    _, n, m, s = terms
    dt_true = np.full_like(t_true, 1.0 / n)
    dt_ref = -np.exp(t_ref - m) / s
    return dv_combine([terms]), dt_true, dt_ref


class DinePotential:
    """One DV potential: modified-LSTM unroll plus a dense scalar head."""

    def __init__(self, in_dim, hidden=64, head_hidden=64, gen=None, name="pot"):
        gen = gen if gen is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.hidden = hidden
        self.cell = LstmCell(in_dim, hidden, gen, name=f"{name}.lstm")
        self.head1 = Dense(hidden, head_hidden, "tanh", gen, name=f"{name}.head1")
        self.head2 = Dense(head_hidden, 1, "linear", gen, name=f"{name}.head2")

    def params(self):
        return self.cell.params() + self.head1.params() + self.head2.params()

    def forward(self, true_in, ref_in, need_cache=True):
        """Unroll over (B, T, in_dim) true/reference inputs.

        The true and reference branch at step i both start from the true-path
        state s_{i-1}; only the true branch advances the recursion. Returns
        per-step potentials t_true, t_ref of shape (B, T).
        """
        true_in = np.asarray(true_in, dtype=np.float64)
        ref_in = np.asarray(ref_in, dtype=np.float64)
        if true_in.shape != ref_in.shape:
            raise ValueError("true/reference sequence shapes differ")
        B, T, _ = true_in.shape
        h = np.zeros((2 * B, self.hidden))
        c = np.zeros((2 * B, self.hidden))
        t_true = np.empty((B, T))
        t_ref = np.empty((B, T))
        caches = [] if need_cache else None
        for i in range(T):
            x2 = np.concatenate([true_in[:, i], ref_in[:, i]], axis=0)
            h2, c2, lc = self.cell.step(x2, h, c)
            mid, hc1 = self.head1.forward(h2)
            t2, hc2 = self.head2.forward(mid)
            t_true[:, i] = t2[:B, 0]
            t_ref[:, i] = t2[B:, 0]
            if need_cache:
                caches.append((lc, hc1, hc2))
            # both branches of the next step restart from the true-path state
            h = np.concatenate([h2[:B], h2[:B]], axis=0)
            c = np.concatenate([c2[:B], c2[:B]], axis=0)
        return t_true, t_ref, caches

    def backward(self, caches, dt_true, dt_ref):
        """Reverse the unroll; accumulates parameter grads.

        Returns gradients w.r.t. the true and reference input sequences.
        """
        B, T = dt_true.shape
        d_true = np.empty((B, T, self.in_dim))
        d_ref = np.empty((B, T, self.in_dim))
        dh_carry = np.zeros((B, self.hidden))
        dc_carry = np.zeros((B, self.hidden))
        for i in reversed(range(T)):
            lc, hc1, hc2 = caches[i]
            dt2 = np.concatenate([dt_true[:, i], dt_ref[:, i]])[:, None]
            dh2 = self.head1.backward(hc1, self.head2.backward(hc2, dt2))
            dh2[:B] += dh_carry
            dc2 = np.zeros((2 * B, self.hidden))
            dc2[:B] = dc_carry
            dx, dh, dc = self.cell.backward_step(lc, dh2, dc2)
            d_true[:, i] = dx[:B]
            d_ref[:, i] = dx[B:]
            dh_carry = dh[:B] + dh[B:]
            dc_carry = dc[:B] + dc[B:]
        return d_true, d_ref


class DineModel:
    """Pair of DV potentials estimating the DI rate from x to y."""

    def __init__(self, x_dim=1, y_dim=1, hidden=64, head_hidden=64,
                 ref_margin=0.05, rng=None):
        rng = rng if rng is not None else Rng(0)
        self.x_dim = x_dim
        self.y_dim = y_dim
        self.ref_margin = ref_margin
        self.pot_y = DinePotential(
            y_dim, hidden, head_hidden, rng.stream("init-pot-y"), name="pot_y")
        self.pot_yx = DinePotential(
            y_dim + x_dim, hidden, head_hidden, rng.stream("init-pot-yx"),
            name="pot_yx")

    def params(self):
        return self.pot_y.params() + self.pot_yx.params()

    def fit_box(self, y):
        return fit_reference(y, self.ref_margin)

    @staticmethod
    def joint(y, x):
        return np.concatenate([y, x], axis=-1)

    def objectives(self, x, y, y_ref, need_cache=False):
        """DV objectives of both potentials on a batch; optionally with caches."""
        ty, try_, cy = self.pot_y.forward(y, y_ref, need_cache)
        tyx, tryx, cyx = self.pot_yx.forward(
            self.joint(y, x), self.joint(y_ref, x), need_cache)
        vy, dty, dtry = dv_value(ty, try_)
        vyx, dtyx, dtryx = dv_value(tyx, tryx)
        grads = (dty, dtry, dtyx, dtryx)
        return vy, vyx, (cy, cyx, grads)

    def train_step(self, x, y, ref_gen, adam_y, adam_yx):
        """One ascent step of both potentials on a fresh batch."""
        B, T, _ = y.shape
        y_ref = self.fit_box(y).sample(ref_gen, B, T)
        adam_y.zero_grads()
        adam_yx.zero_grads()
        vy, vyx, (cy, cyx, grads) = self.objectives(x, y, y_ref, need_cache=True)
        dty, dtry, dtyx, dtryx = grads
        self.pot_y.backward(cy, dty, dtry)
        self.pot_yx.backward(cyx, dtyx, dtryx)
        adam_y.step()
        adam_yx.step()
        return vy, vyx

    def input_gradients(self, x, y, y_ref):
        """Value and gradients of the DI objective w.r.t. the trajectories.

        Objective is D_yx - D_y with potential parameters treated as frozen
        (their accumulated grads are zeroed afterwards). The reference box and
        reference samples are treated as constants.
        """
        vy, vyx, (cy, cyx, grads) = self.objectives(x, y, y_ref, need_cache=True)
        dty, dtry, dtyx, dtryx = grads
        dy_t, dy_r = self.pot_y.backward(cy, dty, dtry)
        dj_t, dj_r = self.pot_yx.backward(cyx, dtyx, dtryx)
        dy = dj_t[..., :self.y_dim] - dy_t
        dx = dj_t[..., self.y_dim:] + dj_r[..., self.y_dim:]
        for p in self.params():
            p.zero_grad()
        return vyx - vy, dx, dy

    def evaluate(self, x, y, seed, box=None, batch=32):
        """Monte-Carlo evaluation of both objectives with frozen parameters.

        Pools all B*T per-step potentials. Chunk k holds ``batch`` sequences
        and draws its reference samples from its own stream
        ``Rng(seed).stream(f"eval/{k}/reference")``; chunks run on
        ``map_chunks`` and return only DV terms, combined in chunk order, so
        the result does not depend on the worker count. Returns
        (estimate, d_y, d_yx).
        """
        if box is None:
            box = self.fit_box(y)
        jobs = [(self, x[s:s + batch], y[s:s + batch], box, seed, k)
                for k, s in enumerate(range(0, y.shape[0], batch))]
        terms = list(map_chunks(_eval_chunk, jobs))
        vy = dv_combine([ty for ty, _ in terms])
        vyx = dv_combine([tyx for _, tyx in terms])
        return vyx - vy, vy, vyx


def _eval_chunk(model, x, y, box, seed, k):
    """DV terms of both potentials on chunk ``k`` of an evaluation."""
    B, T, _ = y.shape
    y_ref = box.sample(Rng(seed).stream(f"eval/{k}/reference"), B, T)
    ty, tr, _ = model.pot_y.forward(y, y_ref, need_cache=False)
    tyx, trx, _ = model.pot_yx.forward(
        model.joint(y, x), model.joint(y_ref, x), need_cache=False)
    return dv_terms(ty, tr), dv_terms(tyx, trx)


def usable_cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def map_chunks(fn, jobs):
    """Yield ``fn(*job)`` for each job, in job order, computed on
    min(usable CPUs, jobs) processes.

    ``fn`` must be a module-level function. Workers are forked, so a calling
    script needs no ``__main__`` guard and the worker processes import
    nothing. Where there is one CPU or one job, or no ``fork``, the jobs run
    in this process. An exception raised by a job is raised here.
    """
    jobs = list(jobs)
    workers = min(usable_cpus(), len(jobs))
    # imported here: they would add about 20 ms to every ``import dicap``
    import multiprocessing
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        for job in jobs:
            yield fn(*job)
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        # popped once read, so a result is freed when the caller drops it
        futures = collections.deque(pool.submit(fn, *job) for job in jobs)
        while futures:
            yield futures.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def dine_train(data_source, x_dim=1, y_dim=1, *, hidden=64, head_hidden=64,
               lr=1e-4, iters=5000, rng=None):
    """Train a DineModel on batches from ``data_source(iteration) -> (x, y)``.

    Runs a fixed iteration budget; returns (model, curve) where curve rows are
    (iteration, d_y, d_yx, difference). Raises TrainingDiverged if an
    objective or gradient goes non-finite.
    """
    rng = rng if rng is not None else Rng(0)
    model = DineModel(x_dim, y_dim, hidden, head_hidden, rng=rng)
    adam_y = Adam(model.pot_y.params(), lr=lr)
    adam_yx = Adam(model.pot_yx.params(), lr=lr)
    ref_gen = rng.stream("dine-reference")
    curve = []
    for it in range(iters):
        x, y = data_source(it)
        try:
            vy, vyx = model.train_step(x, y, ref_gen, adam_y, adam_yx)
        except GradientError as err:
            raise TrainingDiverged(it, curve) from err
        curve.append((it, vy, vyx, vyx - vy))
    return model, curve


def dine_estimate(model, x, y, seed=1):
    """Final Monte-Carlo DI-rate estimate on long frozen-model trajectories."""
    est, vy, vyx = model.evaluate(x, y, seed)
    return {"estimate_nats": est, "d_y": vy, "d_yx": vyx,
            "samples": int(np.prod(y.shape[:2]))}
