import io
import os
import pickle
import platform
import subprocess
import sys

import numpy as np
import pytest

from dicap import dine
from dicap.dine import (DineModel, DinePotential, ReferenceBox, dine_estimate,
                        dine_train, dv_combine, dv_terms, dv_value,
                        fit_reference)
from dicap.nn import GradientError, Rng


def test_fit_reference_no_margin():
    y = np.array([-1.0, 0.0, 2.0]).reshape(1, 3, 1)
    box = fit_reference(y, margin=0.0)
    assert box.lo[0] == -1.0
    assert box.hi[0] == 2.0


def test_fit_reference_margin_arithmetic():
    y = np.array([-1.0, 0.0, 2.0]).reshape(1, 3, 1)
    box = fit_reference(y, margin=0.05)
    assert box.lo[0] == pytest.approx(-1.15)
    assert box.hi[0] == pytest.approx(2.15)


def test_fit_reference_degenerate_dimension():
    y = np.zeros((2, 4, 1))
    box = fit_reference(y, margin=0.05)
    assert box.lo[0] == pytest.approx(-0.1)
    assert box.hi[0] == pytest.approx(0.1)


def test_fit_reference_covers_batch():
    gen = np.random.default_rng(0)
    y = gen.standard_normal((4, 50, 2))
    box = fit_reference(y)
    assert np.all(y >= box.lo) and np.all(y <= box.hi)


def test_fit_reference_empty_batch():
    with pytest.raises(ValueError):
        fit_reference(np.zeros((0, 3, 1)))


def test_sample_reference_uniform_moments():
    box = ReferenceBox([0.0], [1.0])
    s = box.sample(np.random.default_rng(1), 100, 1000)
    n = s.size
    sigma = np.sqrt(1.0 / 12.0 / n)
    assert abs(s.mean() - 0.5) < 3 * sigma


def test_sample_reference_stays_in_box():
    box = ReferenceBox([5.0], [5.0 + 1e-6])
    s = box.sample(np.random.default_rng(2), 10, 10)
    assert np.all(s >= 5.0) and np.all(s <= 5.0 + 1e-6)


def test_sample_reference_deterministic():
    box = ReferenceBox([-1.0, 0.0], [1.0, 2.0])
    a = box.sample(np.random.default_rng(3), 4, 5)
    b = box.sample(np.random.default_rng(3), 4, 5)
    assert np.array_equal(a, b)


def test_modified_unroll_identical_inputs_give_identical_states():
    gen = np.random.default_rng(4)
    pot = DinePotential(1, hidden=6, head_hidden=4, gen=gen)
    y = gen.standard_normal((3, 7, 1))
    t, t_ref, _ = pot.forward(y, y.copy(), need_cache=False)
    assert np.allclose(t, t_ref)


def test_modified_unroll_length_mismatch():
    pot = DinePotential(1, hidden=4, head_hidden=3,
                        gen=np.random.default_rng(0))
    with pytest.raises(ValueError):
        pot.forward(np.zeros((2, 5, 1)), np.zeros((2, 4, 1)))


def test_shared_input_matches_joint_input():
    # pot_yx steps on [y; x] and [y_ref; x] built per step from the parts
    gen = np.random.default_rng(7)
    pot = DinePotential(2, hidden=6, head_hidden=4, gen=gen)
    y, y_ref, x = gen.standard_normal((3, 4, 5, 1))
    t, t_ref, _ = pot.forward(y, y_ref, need_cache=False, shared=x)
    j, j_ref, _ = pot.forward(np.concatenate([y, x], axis=-1),
                              np.concatenate([y_ref, x], axis=-1),
                              need_cache=False)
    assert np.array_equal(t, j) and np.array_equal(t_ref, j_ref)
    with pytest.raises(ValueError):
        pot.forward(y, y_ref)
    with pytest.raises(ValueError):
        pot.forward(y, y_ref, shared=x[:, :3])


def _concatenated_unroll(pot, true_in, ref_in, dt_true, dt_ref):
    """DINE's unroll as one-branch cell steps on the state copied to both
    branches; returns the potentials and the input gradients."""
    B, T, _ = true_in.shape
    cell, H = pot.cell, pot.hidden
    h, c = cell.zero_state(2 * B)
    t_true, t_ref, caches = np.empty((B, T)), np.empty((B, T)), []
    for i in range(T):
        x2 = np.concatenate([true_in[:, i], ref_in[:, i]])
        h2, c2, lc = cell.step(x2, h, c)
        mid, hc1 = pot.head1.forward(h2)
        t2, hc2 = pot.head2.forward(mid)
        t_true[:, i], t_ref[:, i] = t2[0, :B], t2[0, B:]
        caches.append((lc, hc1, hc2))
        h = np.hstack([h2[:, :B], h2[:, :B]])
        c = np.hstack([c2[:, :B], c2[:, :B]])
    d_true, d_ref = np.empty_like(true_in), np.empty_like(ref_in)
    dh_carry, dc_carry = np.zeros((H, B)), np.zeros((H, B))
    for i in reversed(range(T)):
        lc, hc1, hc2 = caches[i]
        dt2 = np.concatenate([dt_true[:, i], dt_ref[:, i]])[None]
        dh2 = pot.head1.backward(hc1, pot.head2.backward(hc2, dt2))
        dh2[:, :B] += dh_carry
        dc2 = np.zeros((H, 2 * B))
        dc2[:, :B] = dc_carry
        dx, dh, dc = cell.backward_step(lc, dh2, dc2)
        d_true[:, i], d_ref[:, i] = dx[:B], dx[B:]
        dh_carry = dh[:, :B] + dh[:, B:]
        dc_carry = dc[:, :B] + dc[:, B:]
    return t_true, t_ref, d_true, d_ref


def test_unroll_matches_concatenated_state():
    gen = np.random.default_rng(21)
    pot = DinePotential(2, hidden=5, head_hidden=4,
                        gen=np.random.default_rng(3))
    by_hand = DinePotential(2, hidden=5, head_hidden=4,
                            gen=np.random.default_rng(3))
    true_in = gen.standard_normal((3, 6, 2))
    ref_in = gen.standard_normal((3, 6, 2))
    t_true, t_ref, caches = pot.forward(true_in, ref_in)
    _, dt_true, dt_ref = dv_value(t_true, t_ref)
    d_true, d_ref = pot.backward(caches, dt_true, dt_ref)
    want = _concatenated_unroll(by_hand, true_in, ref_in, dt_true, dt_ref)
    for got, ref in zip((t_true, t_ref, d_true, d_ref), want):
        assert np.allclose(got, ref, rtol=0, atol=1e-12)
    for p, q in zip(pot.params(), by_hand.params()):
        assert np.allclose(p.grad, q.grad, rtol=1e-12, atol=1e-15), p.name


def test_reference_isolation():
    # perturbing any reference sample must not change true-path potentials
    gen = np.random.default_rng(5)
    pot = DinePotential(1, hidden=6, head_hidden=4, gen=gen)
    y = gen.standard_normal((2, 6, 1))
    y_ref = gen.standard_normal((2, 6, 1))
    t1, _, _ = pot.forward(y, y_ref, need_cache=False)
    y_ref2 = y_ref.copy()
    y_ref2[:, 2] = 0.0
    t2, _, _ = pot.forward(y, y_ref2, need_cache=False)
    assert np.array_equal(t1, t2)


def test_single_step_branches_differ_only_via_input():
    gen = np.random.default_rng(6)
    pot = DinePotential(1, hidden=5, head_hidden=4, gen=gen)
    y = gen.standard_normal((2, 1, 1))
    y_ref = gen.standard_normal((2, 1, 1))
    t, t_ref, _ = pot.forward(y, y_ref, need_cache=False)
    t_swapped, t_ref_swapped, _ = pot.forward(y_ref, y, need_cache=False)
    assert np.allclose(t, t_ref_swapped)
    assert np.allclose(t_ref, t_swapped)


def test_dv_constant_potential_is_exactly_zero():
    for c in (0.0, 2.5, -3.0):
        t = np.full((4, 8), c)
        v, _, _ = dv_value(t, t.copy())
        assert v == 0.0


def test_dv_terms_combine_across_chunks():
    # pooling chunk terms equals the DV value of the concatenated potentials
    gen = np.random.default_rng(16)
    t = 3.0 * gen.standard_normal((7, 5))
    tr = 3.0 * gen.standard_normal((7, 5))
    whole, _, _ = dv_value(t, tr)
    terms = [dv_terms(t[s:s + 3], tr[s:s + 3]) for s in range(0, 7, 3)]
    assert dv_combine(terms) == pytest.approx(whole, rel=1e-12)
    # the in-place exp gives the sums of the plain expressions
    m = tr.max()
    assert dv_terms(t, tr) == (float(np.sum(t - m)), t.size, float(m),
                               float(np.sum(np.exp(tr - m))))
    with pytest.raises(GradientError):
        dv_terms(t, np.full_like(tr, np.nan))


def test_dv_gradient_weights():
    gen = np.random.default_rng(7)
    t = gen.standard_normal((2, 5))
    tr = gen.standard_normal((2, 5))
    _, dt, dtr = dv_value(t, tr)
    assert np.allclose(dt, 1.0 / t.size)
    assert dtr.sum() == pytest.approx(-1.0)


def test_dv_matches_closed_form_gaussian_kl():
    # one-step scalar case with the potential equal to the true log-density
    # ratio log(p(y)/u(y)): the DV value approaches KL(P || Uniform(box))
    gen = np.random.default_rng(8)
    n = 10 ** 5
    y = gen.standard_normal((n, 1))
    box = fit_reference(y.reshape(n, 1, 1), margin=0.0)
    width = box.widths[0]
    y_ref = box.sample(gen, n, 1).reshape(n, 1)

    def log_ratio(v):
        return -0.5 * np.log(2 * np.pi) - 0.5 * v ** 2 + np.log(width)

    v, _, _ = dv_value(log_ratio(y), log_ratio(y_ref))
    h_gauss = 0.5 * np.log(2 * np.pi * np.e)
    assert v == pytest.approx(np.log(width) - h_gauss, abs=1e-2)


def test_constant_head_gives_zero_estimate(monkeypatch):
    monkeypatch.setattr(dine, "_CHUNK_SEQS", 2)
    rng = Rng(9)
    model = DineModel(1, 1, hidden=5, head_hidden=4, rng=rng)
    for pot in (model.pot_y, model.pot_yx):
        pot.head2.W.value[:] = 0.0
        pot.head2.b.value[:] = 1.7
    gen = np.random.default_rng(10)
    x = gen.standard_normal((3, 10, 1))
    y = gen.standard_normal((3, 10, 1))
    est, vy, vyx = model.evaluate(x, y, seed=10)
    assert est == 0.0
    assert vy == 0.0
    assert vyx == 0.0


@pytest.fixture(scope="module")
def trained_on_additive_gaussian():
    # one shared training run for the slower distribution-level properties
    rng = Rng(11)
    gen = rng.stream("data")
    B, T = 32, 24

    def source(it):
        x = gen.standard_normal((B, T, 1))
        return x, x + gen.standard_normal((B, T, 1))

    model, _ = dine_train(source, 1, 1, hidden=16, lr=1e-3, iters=400,
                          rng=rng)
    egen = rng.stream("eval")
    ex = egen.standard_normal((50, 2000, 1))
    ey = ex + egen.standard_normal((50, 2000, 1))
    return model, ex, ey


def test_reference_volume_shift_cancels_in_difference(
        trained_on_additive_gaussian, monkeypatch):
    # widening the reference box rescales both objectives identically in
    # expectation; the difference moves very little
    model, ex, ey = trained_on_additive_gaussian
    # a patch does not reach a helper process: score here
    monkeypatch.setattr(dine, "usable_cpus", lambda: 1)
    est1, vy1, _ = model.evaluate(ex, ey, 21)
    # a margin of 0.6 on each side gives 2.2 ranges, twice the default 1.1
    monkeypatch.setattr(dine, "fit_reference",
                        lambda y: fit_reference(y, margin=0.6))
    est2, vy2, _ = model.evaluate(ex, ey, 22)
    assert abs(est1 - est2) < 0.02
    # each objective individually drops by roughly log 2 per dimension
    assert vy1 - vy2 == pytest.approx(-np.log(2.0), abs=0.1)


def test_shuffled_pairing_destroys_dependence(trained_on_additive_gaussian):
    model, ex, ey = trained_on_additive_gaussian
    paired = dine_estimate(model, ex, ey, seed=13)["estimate_nats"]
    perm = np.random.default_rng(14).permutation(ex.shape[0])
    shuffled = dine_estimate(model, ex[perm], ey, seed=13)["estimate_nats"]
    assert paired > 0.1
    assert shuffled <= paired + 0.01


def test_dine_estimate_same_for_one_and_two_workers(monkeypatch):
    model = DineModel(1, 1, hidden=5, head_hidden=4, rng=Rng(17))
    gen = np.random.default_rng(18)
    x = gen.standard_normal((70, 30, 1))
    y = x + gen.standard_normal((70, 30, 1))
    # 70 sequences in chunks of 32: the last chunk is short; 20 sequences
    # make one chunk, so all blocks but one are empty
    monkeypatch.setattr(dine, "_CHUNK_SEQS", 32)
    for cpus, n_seq in ((2, 70), (3, 70), (2, 20), (3, 20)):
        results = []
        for workers in (1, cpus):
            monkeypatch.setattr(dine, "usable_cpus", lambda: workers)
            results.append(dine_estimate(model, x[:n_seq], y[:n_seq],
                                         seed=19))
        assert results[0] == results[1]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("x_seqs", [64, 20])
def test_evaluate_rejects_mismatched_x_and_y(monkeypatch, started_helpers,
                                             cpus, x_seqs):
    # a longer x was scored on y's first sequences, a shorter one failed in
    # numpy or killed the helper; both fail here before a helper starts
    monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
    model = DineModel(1, 1, hidden=5, head_hidden=4, rng=Rng(17))
    gen = np.random.default_rng(18)
    x = gen.standard_normal((x_seqs, 30, 1))
    y = gen.standard_normal((32, 30, 1))
    shapes = rf"\({x_seqs}, 30, 1\).*\(32, 30, 1\)"
    with pytest.raises(ValueError, match=shapes):
        dine_estimate(model, x, y, seed=19)
    assert started_helpers == []


def test_dine_estimate_matches_reference(monkeypatch, reference_estimate):
    model = DineModel(1, 1, hidden=32, head_hidden=32, rng=Rng(17))
    gen = np.random.default_rng(18)
    x = gen.standard_normal((150, 30, 1))
    y = x + gen.standard_normal((150, 30, 1))
    # 150 sequences in chunks of 64: the last chunk holds 22; the second
    # chunk's outputs are 10 times wider, so the boxes of the other two are
    # far from the box of all outputs
    y[64:128] *= 10.0
    chunks = [(x[s:s + 64], y[s:s + 64]) for s in range(0, 150, 64)]
    want = reference_estimate(model, chunks, seed=19)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        assert model.evaluate(x, y, seed=19) == want


def test_evaluation_deals_chunks_round_robin(monkeypatch, reference_estimate):
    # 150 sequences in chunks of 32 are five chunks; on three processes
    # chunk k is scored in process k mod 3, so this process scores 0 and 3
    monkeypatch.setattr(dine, "usable_cpus", lambda: 3)
    monkeypatch.setattr(dine, "_CHUNK_SEQS", 32)
    scored_here = []
    score = dine._score_chunk

    def recording(model, seed, k, x, y):
        scored_here.append(k)
        return score(model, seed, k, x, y)

    monkeypatch.setattr(dine, "_score_chunk", recording)
    model = DineModel(1, 1, hidden=5, head_hidden=4, rng=Rng(17))
    gen = np.random.default_rng(18)
    x = gen.standard_normal((150, 30, 1))
    y = x + gen.standard_normal((150, 30, 1))
    chunks = [(x[s:s + 32], y[s:s + 32]) for s in range(0, 150, 32)]
    assert model.evaluate(x, y, seed=19) == reference_estimate(model, chunks,
                                                               seed=19)
    assert scored_here == [0, 3]


def test_evaluation_imports_no_process_pool():
    # the evaluation runs on the helper processes that training uses
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from dicap import dine\n"
        "from dicap.nn import Rng\n"
        "dine.usable_cpus = lambda: 2\n"
        "x = np.random.default_rng(0).standard_normal((70, 30, 1))\n"
        "model = dine.DineModel(1, 1, hidden=5, head_hidden=4, rng=Rng(0))\n"
        "dine.dine_estimate(model, x, x, seed=1)\n"
        "pools = {'multiprocessing', 'concurrent.futures'}\n"
        "print(sorted(pools & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dine.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_dine_train_curve_and_determinism():
    def make():
        rng = Rng(15)
        gen = rng.stream("data")

        def source(it):
            x = gen.standard_normal((4, 8, 1))
            return x, x + gen.standard_normal((4, 8, 1))

        return dine_train(source, 1, 1, hidden=6, lr=1e-3, iters=10,
                          rng=rng)

    _, c1 = make()
    _, c2 = make()
    assert len(c1) == 10
    assert c1 == c2


def _additive_source(seed, batch=4, steps=8, fail_at=None):
    gen = np.random.default_rng(seed)

    def source(it):
        if it == fail_at:
            raise RuntimeError("data source failed")
        x = gen.standard_normal((batch, steps, 1))
        return x, x + gen.standard_normal((batch, steps, 1))

    return source


def test_dine_train_same_for_one_and_two_cpus(monkeypatch, started_helpers):
    # with two CPUs pot_y trains in a helper process
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        runs.append(dine_train(_additive_source(20), 1, 1, hidden=6,
                               lr=1e-3, iters=12, rng=Rng(21)))
        assert len(started_helpers) == cpus - 1
    (m1, c1), (m2, c2) = runs
    assert c1 == c2
    assert all(np.array_equal(a.value, b.value) and
               np.array_equal(a.grad, b.grad)
               for a, b in zip(m1.params(), m2.params()))
    assert started_helpers[0].poll() is not None


def test_dine_train_failure_same_for_one_and_two_cpus(monkeypatch,
                                                     started_helpers):
    init = DineModel.__init__

    def poisoned_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.pot_y.head2.b.value[:] = np.nan

    monkeypatch.setattr(DineModel, "__init__", poisoned_init)
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        with pytest.raises(dine.TrainingDiverged) as err:
            dine_train(_additive_source(22), 1, 1, hidden=6, iters=5,
                       rng=Rng(23))
        errors.append((err.value.iteration, err.value.curve,
                       str(err.value.__cause__)))
    assert errors[0] == errors[1]
    assert started_helpers[0].poll() is not None


def test_helper_stopped_when_training_raises(monkeypatch, started_helpers):
    monkeypatch.setattr(dine, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="data source failed"):
        dine_train(_additive_source(24, fail_at=3), 1, 1, hidden=6,
                   iters=5, rng=Rng(25))
    assert len(started_helpers) == 1
    assert started_helpers[0].poll() is not None


def test_training_continues_after_helper_exits(monkeypatch, started_helpers):
    # parameters and Adam state come back from the helper: steps taken
    # after the block match a run that never used it
    source = _additive_source(26)
    batches = [source(it) for it in range(8)]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        model = DineModel(1, 1, hidden=6, head_hidden=4, rng=Rng(27), lr=1e-3)
        values = []
        with dine.helpers():
            for x, y in batches[:5]:
                values.append(model.train_step(x, y))
        for x, y in batches[5:]:
            values.append(model.train_step(x, y))
        runs.append((values, [p.value for p in model.params()],
                     model.adam_y.t))
    assert runs[0][0] == runs[1][0]
    assert all(np.array_equal(a, b) for a, b in zip(runs[0][1], runs[1][1]))
    assert runs[1][2] == 8
    assert len(started_helpers) == 1
    assert started_helpers[0].poll() is not None


def test_interrupted_training_same_for_one_and_two_cpus(monkeypatch,
                                                        started_helpers):
    # pot_y and its Adam come back with every reply: the steps taken before
    # an error in the block are kept, as in a 1-CPU run
    source = _additive_source(33)
    batches = [source(it) for it in range(3)]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        model = DineModel(1, 1, hidden=6, head_hidden=4, rng=Rng(34), lr=1e-3)
        with pytest.raises(RuntimeError, match="stop"):
            with dine.helpers():
                for x, y in batches:
                    model.train_step(x, y)
                raise RuntimeError("stop")
        runs.append(([p.value for p in model.params()],
                     model.adam_y.t, model.adam_yx.t))
    assert all(np.array_equal(a, b) for a, b in zip(runs[0][0], runs[1][0]))
    assert runs[0][1:] == runs[1][1:] == (3, 3)
    assert len(started_helpers) == 1
    assert started_helpers[0].poll() is not None


def test_model_usable_after_training_raises(monkeypatch, started_helpers):
    # an error inside a helpers block leaves the model whole: it pickles,
    # and it steps on in this process as a 1-CPU run does
    x, y = _additive_source(28)(0)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        model = DineModel(1, 1, hidden=6, head_hidden=4, rng=Rng(29), lr=1e-3)
        with pytest.raises(RuntimeError, match="stop"):
            with dine.helpers():
                raise RuntimeError("stop")
        model = pickle.loads(pickle.dumps(model))
        runs.append((model.train_step(x, y),
                     [p.value for p in model.params()]))
    assert runs[0][0] == runs[1][0]
    assert all(np.array_equal(a, b) for a, b in zip(runs[0][1], runs[1][1]))
    assert len(started_helpers) == 1
    assert started_helpers[0].poll() is not None


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="glibc malloc on Linux only")
def test_helper_keeps_its_heap(monkeypatch):
    # a pot_y step allocates and frees about 10 MB; a helper whose malloc
    # trims the heap faulted about 2,500 pages back in per step, one that
    # keeps it about 80
    import resource
    monkeypatch.setattr(dine, "usable_cpus", lambda: 2)
    gen = np.random.default_rng(30)
    x = gen.standard_normal((64, 32, 1))
    y = x + gen.standard_normal((64, 32, 1))

    def helper_faults(steps):
        model = DineModel(1, 1, hidden=32, head_hidden=32, rng=Rng(31),
                          lr=1e-3)
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        with dine.helpers():
            for _ in range(steps):
                model.train_step(x, y)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    start_up = helper_faults(0)
    assert (helper_faults(30) - start_up) / 30 < 400


@pytest.mark.skipif(not os.path.exists("/proc/self/environ"),
                    reason="needs /proc/<pid>/environ")
def test_helper_environment(monkeypatch, started_helpers):
    # the helper sets its own pins and allocator settings, whatever the
    # caller's environment holds
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "2")
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "0")
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "0")
    monkeypatch.setattr(dine, "usable_cpus", lambda: 2)
    with dine.helpers():
        with open(f"/proc/{started_helpers[0].pid}/environ", "rb") as f:
            env = dict(item.decode().split("=", 1)
                       for item in f.read().split(b"\0") if item)
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["OMP_NUM_THREADS"] == "1"
    assert env["MKL_NUM_THREADS"] == "1"
    assert int(env["MALLOC_TRIM_THRESHOLD_"]) >= 2 ** 30
    assert env["MALLOC_MMAP_THRESHOLD_"] == "33554432"


def test_receive_from_killed_helper_raises():
    helper = dine._Helper()
    helper.proc.kill()
    with pytest.raises(RuntimeError, match="helper process exited"):
        helper.receive()
    helper.stop()
    assert helper.proc.poll() is not None


def test_truncated_reply_raises():
    # a helper that dies while writing its reply leaves a cut pickle
    reply = pickle.dumps((True, np.arange(1000.0)), pickle.HIGHEST_PROTOCOL)

    class Exited:
        stdout = io.BytesIO(reply[:len(reply) // 2])

        def wait(self):
            return -9

    helper = dine._Helper.__new__(dine._Helper)
    helper.proc = Exited()
    with pytest.raises(RuntimeError, match="helper process exited"):
        helper.receive()
