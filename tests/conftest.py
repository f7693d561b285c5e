"""Shared fixtures and helpers for the test suite."""

import io
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import xlogy

from semismi.estimator import SampleSet
from semismi.kernels import sample_basis
from semismi.transport import _FeatureBlocks

# the tools' constants, such as criterion 10's command line, are imported
# by the tests that check against them
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


def make_dataset(seed=0, n=8, n_x=15, n_y=12, d_x=2, d_y=1, linked=False):
    """Small random dataset; ``linked`` makes y a noisy copy of x[:, :1]."""
    rng = np.random.default_rng(seed)
    paired_x = rng.standard_normal((n, d_x))
    if linked:
        paired_y = paired_x[:, :d_y] + 0.1 * rng.standard_normal((n, d_y))
    else:
        paired_y = rng.standard_normal((n, d_y))
    unpaired_x = rng.standard_normal((n_x, d_x))
    unpaired_y = rng.standard_normal((n_y, d_y))
    return SampleSet(paired_x, paired_y, unpaired_x, unpaired_y)


def savetxt_bytes(matrix) -> bytes:
    """The bytes numpy.savetxt writes for ``matrix`` in the CLI's matrix format."""
    buffer = io.BytesIO()
    np.savetxt(buffer, matrix, fmt="%.17e", delimiter=",")
    return buffer.getvalue()


def assert_valid_plan(plan, n_x, n_y, tol=1e-6):
    """Check the invariants every returned transport plan must satisfy."""
    pi = plan.pi
    assert pi.shape == (n_x, n_y)
    assert np.all(pi >= 0.0)
    np.testing.assert_allclose(pi.sum(), 1.0, atol=tol)
    np.testing.assert_allclose(pi.sum(axis=1), np.full(n_x, 1.0 / n_x), atol=tol)
    np.testing.assert_allclose(pi.sum(axis=0), np.full(n_y, 1.0 / n_y), atol=tol)


def entrywise_entropy(pi):
    """sum_ij pi_ij (log pi_ij - 1) summed over the entries, 0 log 0 taken as 0:
    the oracle for the entropy every TransportPlan records."""
    pi = np.asarray(pi, dtype=float)
    return float(np.sum(xlogy(pi, pi)) - np.sum(pi))


def independent_coupling(n_x, n_y):
    """The constant plan every entry of which is 1/(n_x n_y)."""
    return np.full((n_x, n_y), 1.0 / (n_x * n_y))


def uniform_potentials(n_x, n_y):
    """The independent coupling's (row, column) potentials, where every
    fit's first Sinkhorn solve starts."""
    return np.full(n_x, -np.log(n_x)), np.full(n_y, -np.log(n_y))


def plain(K, alpha, L):
    """The reward (K * alpha)^T L as sinkhorn_solve takes it: plain
    feature blocks, which keep the rank-b arithmetic, and alpha."""
    return _FeatureBlocks(K, L), alpha


def dense(C):
    """A reward matrix as plain blocks (I, C) and alpha = 1, which give
    scale * C to the bit."""
    return plain(np.eye(len(C)), np.ones(len(C)), C)


@pytest.fixture
def small_data():
    return make_dataset(seed=3)


@pytest.fixture
def small_basis(small_data):
    return sample_basis(small_data.pooled_x, small_data.pooled_y, 6, seed=1)
