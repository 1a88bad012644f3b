"""Directed-information rate estimator.

Two recurrent Donsker-Varadhan potentials are trained by gradient ascent:
one sees only the output process, the other the joint input/output process.
Each potential runs a modified LSTM unroll that, at every step, maps the
previous true-path state to both a true-sample state and a reference-sample
state; the reference branch never feeds back into the recursion. The DI-rate
estimate is the difference of the two optimized DV objectives.
"""

import contextlib
import contextvars
import os
import pickle
import sys

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


def fit_reference(y, margin=0.05):
    """Per-dimension min/max of observed y, expanded by margin x range.

    Degenerate dimensions (max == min) are expanded by 0.1 on each side.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty batch")
    flat = y.reshape(-1, y.shape[-1])
    lo = flat.min(axis=0)
    hi = flat.max(axis=0)
    rng_ = hi - lo
    degenerate = rng_ == 0.0
    pad = np.where(degenerate, 0.1, margin * rng_)
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


def potential_step(pot, adam, true_in, ref_in):
    """Forward, DV value and backward of one potential on one batch.

    With ``adam``, its grads are zeroed first and one ascent step follows;
    returns (value, None). With ``adam`` None the parameters are frozen: the
    accumulated grads are zeroed afterwards, and the gradients w.r.t. the
    inputs are returned as (value, (d_true, d_ref)).
    """
    if adam is not None:
        adam.zero_grads()
    t_true, t_ref, caches = pot.forward(true_in, ref_in)
    value, dt_true, dt_ref = dv_value(t_true, t_ref)
    d_in = pot.backward(caches, dt_true, dt_ref)
    if adam is not None:
        adam.step()
        return value, None
    for p in pot.params():
        p.zero_grad()
    return value, d_in


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

    def train_step(self, x, y, ref_gen, adam_y, adam_yx, helper=None):
        """One ascent step of both potentials on a fresh batch.

        With ``helper`` from ``potential_helper(self.pot_y, adam_y)``, pot_y
        and its Adam step in the helper process while pot_yx steps here.
        """
        B, T, _ = y.shape
        y_ref = self.fit_box(y).sample(ref_gen, B, T)
        (vy, _), (vyx, _) = self._step_pair(x, y, y_ref, helper,
                                            adam_y, adam_yx)
        return vy, vyx

    def input_gradients(self, x, y, y_ref, helper=None):
        """Value and gradients of the DI objective w.r.t. the trajectories.

        Objective is D_yx - D_y with potential parameters treated as frozen
        (their accumulated grads are zeroed afterwards). The reference box and
        reference samples are treated as constants. ``helper`` as in
        ``train_step``.
        """
        (vy, (dy_t, _)), (vyx, (dj_t, dj_r)) = self._step_pair(
            x, y, y_ref, helper, None, None)
        dy = dj_t[..., :self.y_dim] - dy_t
        dx = dj_t[..., self.y_dim:] + dj_r[..., self.y_dim:]
        return vyx - vy, dx, dy

    def _step_pair(self, x, y, y_ref, helper, adam_y, adam_yx):
        """``potential_step`` of pot_y and of pot_yx; with ``helper``, pot_y's
        runs there at the same time. A GradientError of pot_y is raised in
        preference to one of pot_yx, as when pot_y runs first here."""
        joint = (self.joint(y, x), self.joint(y_ref, x))
        if helper is None:
            out_y = potential_step(self.pot_y, adam_y, y, y_ref)
            return out_y, potential_step(self.pot_yx, adam_yx, *joint)
        helper.send(_step_potential, y, y_ref, adam_yx is not None)
        try:
            out_yx = potential_step(self.pot_yx, adam_yx, *joint)
        except GradientError:
            helper.receive()
            raise
        return helper.receive(), out_yx

    def evaluate(self, x, y, seed, batch=32):
        """``evaluate_chunks`` on chunks of ``batch`` sequences of x and y;
        returns (estimate, d_y, d_yx)."""
        chunks = [(k, (x[s:s + batch], y[s:s + batch]))
                  for k, s in enumerate(range(0, y.shape[0], batch))]
        return evaluate_chunks(self, seed, _given, chunks)[:3]


def _given(k, xy):
    return xy


def evaluate_chunks(model, seed, load, chunks, *args):
    """Monte-Carlo evaluation of the frozen potentials of ``model``.

    Chunk k is ``(k, item)``; ``load(*args, k, item) -> (x, y)`` runs in the
    process that scores the chunk. A first ``run_blocks`` pass loads and
    keeps the chunks and returns their sums of x² and ranges of y; the box
    fitted to the ranges is the box of all outputs. A second pass scores
    the kept chunks, pooling all per-step potentials, with chunk k's
    reference stream ``Rng(seed).stream(f"eval/{k}/reference")``. DV terms
    are combined in chunk order, so the result does not depend on the
    worker count. Returns (estimate, d_y, d_yx, sum of x²).
    """
    mine = {}
    with helpers():
        stats = run_blocks(mine, _load_chunks, chunks, load, args)
        box = model.fit_box(np.concatenate([y_range for _, y_range in stats]))
        terms = run_blocks(mine, _score_chunks, chunks, model, box, seed)
    vy = dv_combine([ty for ty, _ in terms])
    vyx = dv_combine([tyx for _, tyx in terms])
    sumsq = 0.0
    for chunk_sumsq, _ in stats:    # not sum(): 3.12 compensates float sums
        sumsq += chunk_sumsq
    return vyx - vy, vy, vyx, sumsq


def _load_chunks(state, load, args, chunks):
    """Load the chunks ``(k, item)`` of one block and keep them in
    ``state``; returns per chunk the sum of x² and the range of y."""
    state["chunks"] = [(k, *load(*args, k, item)) for k, item in chunks]
    return [(float(np.sum(x * x)), np.stack([y.min((0, 1)), y.max((0, 1))]))
            for _, x, y in state["chunks"]]


def _score_chunks(state, model, box, seed, chunks):
    """DV terms of both potentials on each chunk that ``_load_chunks`` kept
    for the same block of ``chunks``."""
    terms = []
    for k, x, y in state.pop("chunks"):
        B, T, _ = y.shape
        y_ref = box.sample(Rng(seed).stream(f"eval/{k}/reference"), B, T)
        ty, tr, _ = model.pot_y.forward(y, y_ref, need_cache=False)
        tyx, trx, _ = model.pot_yx.forward(
            model.joint(y, x), model.joint(y_ref, x), need_cache=False)
        terms.append((dv_terms(ty, tr), dv_terms(tyx, trx)))
    return terms


def usable_cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


# the directory holding this dicap package, put first on the helper's path
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_HELPER_MAIN = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from dicap.dine import _serve; _serve()")


class _Helper:
    """A fresh interpreter, started with ``subprocess`` and BLAS pinned to
    one thread. For each pickle ``(fn, args)`` on its stdin it runs
    ``fn(state, *args)`` with a ``state`` dict that lives as long as the
    process, and writes one pickled reply to its stdout. ``fn`` is a
    module-level function, which pickle sends by name. The helper exits
    when its stdin closes."""

    def __init__(self):
        # imported here: it would add to every ``import dicap``
        import subprocess
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _HELPER_MAIN, _PACKAGE_ROOT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def send(self, fn, *args):
        pickle.dump((fn, args), self.proc.stdin, pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()

    def receive(self):
        """The reply to the oldest unanswered ``send``; re-raises the
        helper's GradientError. Any other error ends the helper, with its
        traceback on the shared stderr and may leave a reply cut short."""
        try:
            ok, out = pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"helper process exited with code "
                               f"{self.proc.wait()}") from None
        if not ok:
            raise out
        return out

    def stop(self, kill=False):
        """Kill the helper, or close its stdin so that it exits; wait for it."""
        if kill:
            self.proc.kill()
        with contextlib.suppress(OSError):   # unflushed bytes to a dead pipe
            self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _serve():
    """Main loop of a ``_Helper`` process."""
    import signal
    # Ctrl-C reaches the whole process group; the parent stops the helper
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)           # stray output goes to stderr, not into a reply
    state = {}
    while True:
        try:
            fn, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = (True, fn(state, *args))
        except GradientError as err:
            reply = (False, err)
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


# the helpers of the outermost open ``helpers`` block of this thread
_POOL = contextvars.ContextVar("dicap_helpers", default=None)


@contextlib.contextmanager
def helpers():
    """Yield ``usable_cpus() - 1`` helper processes, started for the block
    and stopped at its end, or killed if it raises. An inner block reuses
    the helpers of the enclosing one. They are fresh interpreters, so a
    calling script needs no ``__main__`` guard."""
    pool = _POOL.get()
    if pool is not None:
        yield pool
        return
    pool, kill = [], True
    token = _POOL.set(pool)
    try:
        for _ in range(usable_cpus() - 1):
            pool.append(_Helper())
        yield pool
        kill = False
    finally:
        for helper in pool:
            helper.stop(kill)
        _POOL.reset(token)


def run_blocks(state, fn, items, *args):
    """Cut ``items`` into contiguous blocks, one per process of ``helpers``,
    and run ``fn(state, *args, block)`` on all at once: the first block here
    with ``state``, the others in the helpers with their own state. Returns
    the result lists joined in block order. The earliest block's error is
    raised, as in a serial run; it leaves replies unread, so it must end
    the outermost ``helpers`` block, which kills the helpers."""
    with helpers() as pool:
        n = len(pool) + 1
        cuts = [-(-len(items) * j // n) for j in range(n + 1)]
        for helper, a, b in zip(pool, cuts[1:], cuts[2:]):
            helper.send(fn, *args, items[a:b])
        out = fn(state, *args, items[:cuts[1]])
        for helper in pool:
            out += helper.receive()
        return out


def _swap_potential(state, potential):
    """Keep ``potential``, a (DinePotential, Adam) pair or None, in
    ``state``; return the one kept before."""
    old = state.get("potential")
    state["potential"] = potential
    return old


def _step_potential(state, true_in, ref_in, train):
    pot, adam = state["potential"]
    return potential_step(pot, adam if train else None, true_in, ref_in)


@contextlib.contextmanager
def potential_helper(pot, adam):
    """Step ``pot`` and ``adam`` in the first process of ``helpers`` inside
    the block.

    Yields the handle that ``DineModel.train_step`` and ``input_gradients``
    take, or None where fewer than two CPUs are usable (both potentials
    then step in this process). On a normal exit the helper's parameters
    and Adam state are copied back into ``pot`` and ``adam``; on an
    exception the helpers are killed and ``pot`` keeps its state from
    before the block. The potential's arithmetic is the same in either
    process, so results do not depend on the CPU count.
    """
    with helpers() as pool:
        if not pool:
            yield None
            return
        helper = pool[0]
        helper.send(_swap_potential, (pot, adam))
        helper.receive()
        yield helper
        helper.send(_swap_potential, None)
        theirs, their_adam = helper.receive()
        for mine, p in zip(pot.params(), theirs.params()):
            mine.value[...] = p.value
            mine.grad[...] = p.grad
        for name in adam.m:
            adam.m[name][...] = their_adam.m[name]
            adam.v[name][...] = their_adam.v[name]
        adam.t = their_adam.t


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
    with potential_helper(model.pot_y, adam_y) as helper:
        for it in range(iters):
            x, y = data_source(it)
            try:
                vy, vyx = model.train_step(x, y, ref_gen, adam_y, adam_yx,
                                           helper)
            except GradientError as err:
                raise TrainingDiverged(it, curve) from err
            curve.append((it, vy, vyx, vyx - vy))
    return model, curve


def dine_estimate(model, x, y, seed=1):
    """Final Monte-Carlo DI-rate estimate on long frozen-model trajectories."""
    est, vy, vyx = model.evaluate(x, y, seed)
    return {"estimate_nats": est, "d_y": vy, "d_yx": vyx,
            "samples": int(np.prod(y.shape[:2]))}
