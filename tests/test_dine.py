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
    box = fit_reference(y, margin=0.05, floor=0.1)
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
    pot = DinePotential(1, hidden=4, head_hidden=3)
    with pytest.raises(ValueError):
        pot.forward(np.zeros((2, 5, 1)), np.zeros((2, 4, 1)))


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


def test_constant_head_gives_zero_estimate():
    rng = Rng(9)
    model = DineModel(1, 1, hidden=5, head_hidden=4, rng=rng)
    for pot in (model.pot_y, model.pot_yx):
        pot.head2.W.value[:] = 0.0
        pot.head2.b.value[:] = 1.7
    gen = np.random.default_rng(10)
    x = gen.standard_normal((3, 10, 1))
    y = gen.standard_normal((3, 10, 1))
    est, vy, vyx = model.evaluate(x, y, seed=10, batch=2)
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

    model, _ = dine_train(source, 1, 1, hidden=16, head_hidden=16, lr=1e-3,
                          iters=400, rng=rng)
    egen = rng.stream("eval")
    ex = egen.standard_normal((50, 2000, 1))
    ey = ex + egen.standard_normal((50, 2000, 1))
    return model, ex, ey


def test_reference_volume_shift_cancels_in_difference(
        trained_on_additive_gaussian):
    # widening the reference box rescales both objectives identically in
    # expectation; the difference moves very little
    model, ex, ey = trained_on_additive_gaussian
    box = model.fit_box(ey)
    mid, w = 0.5 * (box.lo + box.hi), box.widths
    doubled = ReferenceBox(mid - w, mid + w)
    est1, vy1, _ = model.evaluate(ex, ey, 21, box=box)
    est2, vy2, _ = model.evaluate(ex, ey, 22, box=doubled)
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
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(dine, "usable_cpus", lambda: cpus)
        # 70 sequences in chunks of 32: the last chunk is short
        results.append(dine_estimate(model, x, y, seed=19))
    assert results[0] == results[1]


def test_dine_train_curve_and_determinism():
    def make():
        rng = Rng(15)
        gen = rng.stream("data")

        def source(it):
            x = gen.standard_normal((4, 8, 1))
            return x, x + gen.standard_normal((4, 8, 1))

        return dine_train(source, 1, 1, hidden=6, head_hidden=4, lr=1e-3,
                          iters=10, rng=rng)

    _, c1 = make()
    _, c2 = make()
    assert len(c1) == 10
    assert c1 == c2
