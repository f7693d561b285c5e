"""From soft plans to hard correspondences.

A fitted plan weights every cross pair; matching applications need a
one-to-one assignment instead.  This module rounds plans to
assignments, scores them against known correspondences, and lays items
out on a fixed grid of positions by treating the grid coordinates as
the second variable.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .data import index_pairs, split_pairs
from .estimator import EstimatorConfig, SampleSet, fit
from .kernels import as_points
from .transport import TransportPlan

__all__ = [
    "GridSpec",
    "plan_to_assignment",
    "topk_accuracy",
    "normalize_positions",
    "grid_sample_set",
    "naming_grid_sides",
    "grid_summarize",
]


def _plan_matrix(plan) -> np.ndarray:
    pi = plan.pi if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=float)
    if pi.ndim != 2:
        raise ValueError(f"plan must be a matrix, got shape {pi.shape}")
    return pi


def plan_to_assignment(plan) -> list[tuple[int, int]]:
    """Round a plan to min(n_x, n_y) one-to-one (row, column) pairs.

    Solves the maximum-weight bipartite matching with the Hungarian
    method, so the pairs capture the most plan mass any assignment can.
    scipy loads here, not with the module: only rounding needs it, and
    loading it takes longer than numpy and the rest of the package do.
    """
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(_plan_matrix(plan), maximize=True)
    return list(zip(rows.tolist(), cols.tolist()))


def topk_accuracy(plan, truth, k: int = 1) -> float:
    """Fraction of true pairs (i, j) whose entry ranks in row i's top k.

    Within a row, equal entries are ordered by column index, so a
    uniform row credits only its k leftmost columns.
    """
    pi = _plan_matrix(plan)
    if k < 1:
        raise ValueError("k must be >= 1")
    truth = index_pairs(truth, "truth")
    if not len(truth):
        raise ValueError("truth is empty")
    n_x, n_y = pi.shape
    hits = 0
    for i, j in truth.tolist():
        if not (0 <= i < n_x and 0 <= j < n_y):
            raise ValueError(f"truth pair ({i}, {j}) is out of range for a {n_x}x{n_y} plan")
        row = pi[i]
        value = row[j]
        rank = np.count_nonzero(row > value) + np.count_nonzero(row[:j] == value)
        hits += int(rank < k)
    return hits / len(truth)


@dataclass
class GridSpec:
    """Target positions plus fixed item-to-position correspondences."""

    positions: np.ndarray
    anchors: list

    def __post_init__(self):
        self.positions = as_points(self.positions, "positions")
        uniq = {tuple(p) for p in self.positions}
        if len(uniq) != self.positions.shape[0]:
            raise ValueError("grid positions must be distinct")
        pairs = index_pairs(self.anchors, "anchors")
        if any(len(set(side)) != len(side) for side in pairs.T.tolist()):
            raise ValueError("conflicting anchors: an index is fixed twice")
        for p in pairs[:, 1].tolist():
            if not 0 <= p < self.positions.shape[0]:
                raise ValueError(f"anchor position index {p} out of range")
        self.anchors = [tuple(pair) for pair in pairs.tolist()]

    def fit_config(self, config: EstimatorConfig) -> EstimatorConfig:
        """``config`` as a fit on this grid uses it: β = 0 when no anchor pairs anything."""
        return config if self.anchors else replace(config, beta=0.0)


def normalize_positions(positions: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance grid coordinates (flat axes untouched),
    so kernel bandwidths behave the same across grid shapes."""
    positions = as_points(positions, "positions")
    centered = positions - positions.mean(axis=0)
    scale = centered.std(axis=0)
    scale[scale == 0.0] = 1.0
    return centered / scale


def grid_sample_set(features, grid: GridSpec) -> tuple[SampleSet, list, list]:
    """The estimation problem of a grid layout: items are the x samples and
    normalized grid coordinates the y samples, split by the anchors as
    :func:`~semismi.data.split_pairs` splits two tables.  Returns its
    (data, free_items, free_positions)."""
    items = as_points(features, "features")
    for i, _ in grid.anchors:
        if not 0 <= i < items.shape[0]:
            raise ValueError(f"anchor item index {i} out of range")
    coords = normalize_positions(grid.positions)
    return split_pairs(items, coords, index_pairs(grid.anchors, "anchors"), "anchors")


@contextmanager
def naming_grid_sides():
    """Re-raise a side's bandwidth error naming the items or the grid positions.

    Fits and cross-validation on :func:`grid_sample_set`'s data raise it
    from :func:`~semismi.kernels.sample_basis`, which names only the
    side ("x side has 12 samples: ...").
    """
    try:
        yield
    except ValueError as exc:
        side, has, rest = str(exc).partition(" has ")
        names = {"x side": "x side (items)", "y side": "y side (grid positions)"}
        if has and side in names:
            raise ValueError(f"{names[side]}{has}{rest}") from None
        raise


def grid_summarize(features, grid: GridSpec, config: EstimatorConfig) -> tuple:
    """Assign items to grid positions, keeping anchored items in place.

    The problem is :func:`grid_sample_set`'s; a pool without a kernel
    bandwidth is named as in :func:`naming_grid_sides`.  The fit takes
    ``config``'s β, or β = 0 without anchors (:meth:`GridSpec.fit_config`),
    and its plan over the free items/positions is rounded with the
    Hungarian method.
    Returns (placements, result): (item_index, position_index) pairs
    sorted by position, without the surplus items when there are more
    items than positions, and the fit's ``FitResult`` (None when no
    item or no position is free).
    """
    return _placements(grid, grid_sample_set(features, grid), config)


def _placements(grid: GridSpec, problem: tuple, config: EstimatorConfig) -> tuple:
    """:func:`grid_summarize` on ``problem``, the (data, free_items,
    free_positions) that :func:`grid_sample_set` built for ``grid``."""
    data, free_items, free_spots = problem
    placements = list(grid.anchors)
    result = None
    if free_items and free_spots:
        with naming_grid_sides():
            result = fit(data, grid.fit_config(config))
        placements.extend(
            (free_items[i], free_spots[j]) for i, j in plan_to_assignment(result.plan)
        )
    return sorted(placements, key=lambda ip: ip[1]), result
