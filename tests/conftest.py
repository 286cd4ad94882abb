import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nsckit import Dataset


def random_dataset(rng, p=None, n_classes=None, max_p=50, max_n=40, max_k=4,
                   separation=0.0):
    """A random valid dataset with at least 2 samples per class."""
    p = p or int(rng.integers(2, max_p + 1))
    K = n_classes or int(rng.integers(2, max_k + 1))
    sizes = rng.integers(2, max(3, max_n // K) + 1, size=K)
    labels = []
    cols = []
    for k, nk in enumerate(sizes):
        shift = rng.normal(0.0, separation, size=p) if separation else 0.0
        for _ in range(int(nk)):
            cols.append(rng.normal(0.0, 1.0, size=p) + shift)
            labels.append(f"g{k}")
    values = np.column_stack(cols)
    return Dataset.from_arrays(values, labels)


def tied_matrix(seed, p, K, zeros, levels):
    """Values from a few magnitudes with random signs and zeros, so ties abound."""
    rng = np.random.default_rng(seed)
    D = rng.integers(1, levels + 1, size=(p, K)) * rng.choice([-0.5, 0.5], size=(p, K))
    D[rng.random((p, K)) < zeros] = 0.0
    return D


def assert_no_children():
    """This process has no child left, running or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
