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
