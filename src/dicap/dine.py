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
        """(batch, steps, dim) uniform samples."""
        u = gen.random((batch, steps, self.lo.size))
        u *= self.widths
        u += self.lo
        return u


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
    total = float(np.sum(t_true - m))
    # one temporary at a time: the exp is taken in place
    shifted = t_ref - m
    np.exp(shifted, out=shifted)
    return total, t_true.size, float(m), float(np.sum(shifted))


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

    def __init__(self, in_dim, hidden, head_hidden, gen, name="pot"):
        self.in_dim = in_dim
        self.hidden = hidden
        self.cell = LstmCell(in_dim, hidden, gen, name=f"{name}.lstm")
        self.head1 = Dense(hidden, head_hidden, "tanh", gen, name=f"{name}.head1")
        self.head2 = Dense(head_hidden, 1, "linear", gen, name=f"{name}.head2")

    def params(self):
        return self.cell.params() + self.head1.params() + self.head2.params()

    def forward(self, true_in, ref_in, need_cache=True, shared=None):
        """Unroll over (B, T, d) true/reference inputs.

        With ``shared`` (B, T, in_dim - d), both inputs are extended by it
        along the last axis, so pot_yx sees [y; x] and [y_ref; x] without a
        joint copy of the sequences. The true and reference branch at step i
        both start from the true-path state s_{i-1}; only the true branch
        advances the recursion. Returns per-step potentials t_true, t_ref of
        shape (B, T).
        """
        true_in = np.asarray(true_in, dtype=np.float64)
        ref_in = np.asarray(ref_in, dtype=np.float64)
        if true_in.shape != ref_in.shape:
            raise ValueError("true/reference sequence shapes differ")
        B, T, d = true_in.shape
        if shared is not None:
            shared = np.asarray(shared, dtype=np.float64)
            if shared.shape[:2] != (B, T):
                raise ValueError("shared input shape differs")
        if d + (0 if shared is None else shared.shape[2]) != self.in_dim:
            raise ValueError(f"potential input dim != expected {self.in_dim}")
        h, c = self.cell.zero_state(B)
        t_true = np.empty((B, T))
        t_ref = np.empty((B, T))
        caches = [] if need_cache else None
        # the step input [true; ref]; the cell copies it, so one buffer
        # serves every step
        x2 = np.empty((2 * B, self.in_dim))
        for i in range(T):
            x2[:B, :d] = true_in[:, i]
            x2[B:, :d] = ref_in[:, i]
            if shared is not None:
                x2[:B, d:] = shared[:, i]
                x2[B:, d:] = shared[:, i]
            h2, c2, lc = self.cell.step(x2, h, c)
            mid, hc1 = self.head1.forward(h2)
            t2, hc2 = self.head2.forward(mid)
            t_true[:, i] = t2[0, :B]
            t_ref[:, i] = t2[0, B:]
            if need_cache:
                caches.append((lc, hc1, hc2))
            # only the true branch advances the recursion
            h, c = h2[:, :B], c2[:, :B]
        return t_true, t_ref, caches

    def backward(self, caches, dt_true, dt_ref):
        """Reverse the unroll; accumulates parameter grads.

        Returns gradients w.r.t. the true and reference input sequences.
        """
        B, T = dt_true.shape
        d_true = np.empty((B, T, self.in_dim))
        d_ref = np.empty((B, T, self.in_dim))
        dh_carry = np.zeros((self.hidden, B))
        dc_carry = np.zeros((self.hidden, B))
        for i in reversed(range(T)):
            lc, hc1, hc2 = caches[i]
            dt2 = np.concatenate([dt_true[:, i], dt_ref[:, i]])[None]
            dh2 = self.head1.backward(hc1, self.head2.backward(hc2, dt2))
            dh2[:, :B] += dh_carry
            dx, dh_carry, dc_carry = self.cell.backward_step(lc, dh2, dc_carry)
            d_true[:, i] = dx[:B]
            d_ref[:, i] = dx[B:]
        return d_true, d_ref


def potential_step(pot, adam, true_in, ref_in, shared=None):
    """Forward, DV value and backward of one potential on one batch.

    With ``adam``, its grads are zeroed first and one ascent step follows;
    returns (value, None). With ``adam`` None the parameters are frozen: the
    accumulated grads are zeroed afterwards, and the gradients w.r.t. the
    inputs, extended by ``shared`` as in ``DinePotential.forward``, are
    returned as (value, (d_true, d_ref)).
    """
    if adam is not None:
        adam.zero_grads()
    t_true, t_ref, caches = pot.forward(true_in, ref_in, shared=shared)
    value, dt_true, dt_ref = dv_value(t_true, t_ref)
    d_in = pot.backward(caches, dt_true, dt_ref)
    if adam is not None:
        adam.step()
        return value, None
    for p in pot.params():
        p.zero_grad()
    return value, d_in


class DineModel:
    """Pair of DV potentials estimating the DI rate from x to y, with the
    Adam optimizers and the reference stream that train them."""

    def __init__(self, x_dim, y_dim, hidden, head_hidden, rng, lr=1e-4):
        self.y_dim = y_dim
        self.pot_y = DinePotential(
            y_dim, hidden, head_hidden, rng.stream("init-pot-y"), name="pot_y")
        self.pot_yx = DinePotential(
            y_dim + x_dim, hidden, head_hidden, rng.stream("init-pot-yx"),
            name="pot_yx")
        self.adam_y = Adam(self.pot_y.params(), lr=lr)
        self.adam_yx = Adam(self.pot_yx.params(), lr=lr)
        self.ref_gen = rng.stream("dine-reference")

    def params(self):
        return self.pot_y.params() + self.pot_yx.params()

    def reference(self, y):
        """Reference samples shaped like ``y``, uniform on its fitted box."""
        B, T, _ = y.shape
        return fit_reference(y).sample(self.ref_gen, B, T)

    def train_step(self, x, y):
        """One ascent step of both potentials on a fresh batch."""
        (vy, _), (vyx, _) = self._step_pair(x, y, self.reference(y), True)
        return vy, vyx

    def input_gradients(self, x, y, y_ref):
        """Value and gradients of the DI objective w.r.t. the trajectories.

        Objective is D_yx - D_y with potential parameters treated as frozen
        (their accumulated grads are zeroed afterwards). The reference box and
        reference samples are treated as constants.
        """
        (vy, (dy_t, _)), (vyx, (dj_t, dj_r)) = self._step_pair(
            x, y, y_ref, False)
        dy = dj_t[..., :self.y_dim] - dy_t
        dx = dj_t[..., self.y_dim:] + dj_r[..., self.y_dim:]
        return vyx - vy, dx, dy

    def _step_pair(self, x, y, y_ref, train):
        """``potential_step`` of pot_y and of pot_yx, with their Adam steps
        if ``train``; inside ``helpers`` pot_y and its Adam go to the first
        helper with the request, step there while pot_yx steps here and come
        back with the reply. The arithmetic is the same in either process. A
        GradientError of pot_y is raised in preference to one of pot_yx, as
        when pot_y runs first here."""
        adam_yx = self.adam_yx if train else None
        pool = _POOL.get()
        if not pool:
            out_y = potential_step(self.pot_y, self.adam_y if train else None,
                                   y, y_ref)
            return out_y, potential_step(self.pot_yx, adam_yx, y, y_ref, x)
        pool[0].send(_step_potential, self.pot_y, self.adam_y, y, y_ref,
                     train)
        try:
            out_yx = potential_step(self.pot_yx, adam_yx, y, y_ref, x)
        finally:
            out_y, self.pot_y, self.adam_y = pool[0].receive()
        return out_y, out_yx

    def evaluate(self, x, y, seed):
        """``evaluate_chunks`` on the sequences of x and y; returns
        (estimate, d_y, d_yx)."""
        if x.shape[:2] != y.shape[:2]:
            raise ValueError(f"x of shape {x.shape} and y of shape {y.shape} "
                             f"differ in sequences or steps")
        return evaluate_chunks(self, seed, y.shape[0], _given,
                               data=(x, y))[:3]


def _given(k, n, x, y):
    return x, y


# Sequences per evaluation chunk; a chunk is rolled out and scored in one
# forward pass, so each potential's cell steps 128 rows. On a 2-vCPU VM with
# BLAS pinned the fused cell costs 0.9-1.4 us per row at 32 rows and about
# 0.7 at 128. Chunks of 128 sequences were about 10% faster again but raised
# the evaluation's peak RSS by about 5 MB.
_CHUNK_SEQS = 64


def evaluate_chunks(model, seed, n_seq, load, *args, data=()):
    """Monte-Carlo evaluation of the frozen potentials of ``model``.

    The ``n_seq`` sequences are cut into chunks of ``_CHUNK_SEQS`` (the last
    may be shorter), dealt round-robin to the P processes of ``helpers`` and
    scored in one pass: chunk k in process k mod P, where this process is
    process 0 and the helpers run at the same time. ``load(*args, k, n,
    *rows) -> (x, y)`` runs in the process that scores chunk k of n
    sequences; ``rows`` are the chunk's rows of the arrays in ``data``. As in
    training, a chunk's reference is uniform on the box fitted to its own
    outputs, here drawn from ``Rng(seed).stream(f"eval/{k}/reference")``.
    The DV terms are combined in chunk order, so the result does not depend
    on the worker count. Returns (estimate, d_y, d_yx, sum of x²).
    """
    with helpers() as pool:
        P = len(pool) + 1
        items = [(k, min(_CHUNK_SEQS, n_seq - s),
                  *(a[s:s + _CHUNK_SEQS] for a in data))
                 for k, s in enumerate(range(0, n_seq, _CHUNK_SEQS))]
        for j, helper in enumerate(pool, start=1):
            helper.send(_score_chunks, model, seed, load, args, items[j::P])
        # an error here leaves replies unread: it must end the outermost
        # helpers block, which kills the helpers. Every chunk failure is
        # dv_terms' GradientError with a fixed text, so the report does not
        # depend on which failing chunk raises first
        dealt = [_score_chunks(model, seed, load, args, items[::P])]
        dealt += [helper.receive() for helper in pool]
    scored = [dealt[k % P][k // P] for k in range(len(items))]
    vy = dv_combine([ty for ty, _, _ in scored])
    vyx = dv_combine([tyx for _, tyx, _ in scored])
    sumsq = 0.0
    for _, _, chunk_sumsq in scored:  # not sum(): 3.12 compensates float sums
        sumsq += chunk_sumsq
    return vyx - vy, vy, vyx, sumsq


def _score_chunks(model, seed, load, args, items):
    """``_score_chunk`` on each of a process's chunks, loaded in its turn."""
    return [_score_chunk(model, seed, item[0], *load(*args, *item))
            for item in items]


def _score_chunk(model, seed, k, x, y):
    """DV terms of both potentials and the sum of x² on chunk k."""
    B, T, _ = y.shape
    y_ref = fit_reference(y).sample(Rng(seed).stream(f"eval/{k}/reference"),
                                    B, T)
    ty, tr, _ = model.pot_y.forward(y, y_ref, need_cache=False)
    terms_y = dv_terms(ty, tr)
    del ty, tr          # freed before pot_yx runs
    tyx, trx, _ = model.pot_yx.forward(y, y_ref, need_cache=False, shared=x)
    return terms_y, dv_terms(tyx, trx), float(np.sum(x * x))


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

# glibc malloc settings of every helper: keep freed memory for the life of
# the process. A pot_y step allocates and frees about 10 MB of caches; with
# nothing long-lived above them glibc trimmed the heap top after each step,
# and the next step faulted every page back in. Both settings are needed:
# setting either turns off glibc's dynamic mmap threshold, and with the trim
# threshold alone each step's 128 KiB gate array (4H x 2B float64 at H = 32,
# B = 64) was mmapped and unmapped. 33554432 is glibc's 64-bit ceiling for
# the mmap threshold; the trim threshold is the largest value that glibcs
# before 2.26, which read it with atoi, also take. In a training block of
# 30 steps at hidden 32, B = 64, T = 32 (2 vCPU, BLAS pinned) the helper
# took 6,932 minor faults instead of 81,422, 4.6k of them at start-up, and
# the block 0.78 s instead of 0.91-1.53 s. The calling process keeps its
# own allocator settings; other C libraries ignore these variables.
_MALLOC_TRIM_THRESHOLD = str(2 ** 31 - 1)
_MALLOC_MMAP_THRESHOLD = str(32 * 2 ** 20)


class _Helper:
    """A fresh interpreter, started with ``subprocess``, BLAS pinned to one
    thread and a malloc that keeps freed memory. For each pickle ``(fn, args)``
    on its stdin it runs ``fn(*args)`` and writes one pickled reply to its
    stdout. ``fn`` is a module-level function, which pickle sends by name.
    The helper keeps no state and exits when its stdin closes."""

    def __init__(self):
        # imported here: it would add to every ``import dicap``
        import subprocess
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   MALLOC_TRIM_THRESHOLD_=_MALLOC_TRIM_THRESHOLD,
                   MALLOC_MMAP_THRESHOLD_=_MALLOC_MMAP_THRESHOLD)
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
    while True:
        try:
            fn, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
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


def _step_potential(pot, adam, true_in, ref_in, train):
    """``potential_step`` in a helper; returns its output with ``pot`` and
    ``adam``, pickled together so that ``adam`` keeps updating ``pot``."""
    return (potential_step(pot, adam if train else None, true_in, ref_in),
            pot, adam)


def dine_train(data_source, x_dim=1, y_dim=1, *, hidden=64, lr=1e-4,
               iters=5000, rng):
    """Train a DineModel on batches from ``data_source(iteration) -> (x, y)``.

    Runs a fixed iteration budget; returns (model, curve) where curve rows are
    (iteration, d_y, d_yx, difference). Raises TrainingDiverged if an
    objective or gradient goes non-finite.
    """
    model = DineModel(x_dim, y_dim, hidden, hidden, rng=rng, lr=lr)
    curve = []
    with helpers():
        for it in range(iters):
            x, y = data_source(it)
            try:
                vy, vyx = model.train_step(x, y)
            except GradientError as err:
                raise TrainingDiverged(it, curve) from err
            curve.append((it, vy, vyx, vyx - vy))
    return model, curve


def dine_estimate(model, x, y, seed=1):
    """Final Monte-Carlo DI-rate estimate on long frozen-model trajectories."""
    est, vy, vyx = model.evaluate(x, y, seed)
    return {"estimate_nats": est, "d_y": vy, "d_yx": vyx,
            "samples": int(np.prod(y.shape[:2]))}
