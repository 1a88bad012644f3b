"""Shared test set-up.

BLAS is pinned to one thread before any test module imports numpy, as in CI
and the benchmark: unpinned, OpenBLAS threads take the second core that the
helper processes of training and evaluation use. A variable that is
already set is left as it is.
"""

import os
import subprocess

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def started_helpers(monkeypatch):
    """Every process started through ``subprocess.Popen`` during a test."""
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return started


def _reference_estimate(model, chunks, seed):
    """The final evaluation of ``chunks``, a list of (x, y) per chunk, by
    hand: the box of all outputs, chunk k's reference stream, pot_yx on the
    joint sequences, and DV terms per chunk combined in chunk order."""
    import numpy as np
    from dicap.dine import dv_combine, dv_terms, fit_reference
    from dicap.nn import Rng
    box = fit_reference(np.concatenate([y for _, y in chunks]),
                        model.ref_margin)
    terms_y, terms_yx = [], []
    for k, (x, y) in enumerate(chunks):
        B, T, _ = y.shape
        y_ref = box.sample(Rng(seed).stream(f"eval/{k}/reference"), B, T)
        ty, tr, _ = model.pot_y.forward(y, y_ref, need_cache=False)
        terms_y.append(dv_terms(ty, tr))
        tyx, trx, _ = model.pot_yx.forward(np.concatenate([y, x], axis=-1),
                                           np.concatenate([y_ref, x], axis=-1),
                                           need_cache=False)
        terms_yx.append(dv_terms(tyx, trx))
    vy, vyx = dv_combine(terms_y), dv_combine(terms_yx)
    return vyx - vy, vy, vyx


@pytest.fixture
def reference_estimate():
    """``fn(model, chunks, seed) -> (estimate, d_y, d_yx)``, the final
    evaluation computed without ``dine.evaluate_chunks``."""
    return _reference_estimate
