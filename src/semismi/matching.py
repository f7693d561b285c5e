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
    truth = [(int(i), int(j)) for i, j in truth]
    if not truth:
        raise ValueError("truth is empty")
    n_x, n_y = pi.shape
    for i, j in truth:
        if not (0 <= i < n_x and 0 <= j < n_y):
            raise ValueError(f"truth pair ({i}, {j}) is out of range for a {n_x}x{n_y} plan")
    hits = 0
    for i, j in truth:
        row = pi[i]
        value = row[j]
        rank = int(np.count_nonzero(row > value)) + int(
            np.count_nonzero(row[:j] == value)
        )
        hits += rank < k
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
        self.anchors = [(int(i), int(p)) for i, p in self.anchors]
        items = [i for i, _ in self.anchors]
        spots = [p for _, p in self.anchors]
        if len(set(items)) != len(items) or len(set(spots)) != len(spots):
            raise ValueError("conflicting anchors: an index is fixed twice")
        for _, p in self.anchors:
            if not 0 <= p < self.positions.shape[0]:
                raise ValueError(f"anchor position index {p} out of range")


def normalize_positions(positions: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance grid coordinates (flat axes untouched),
    so kernel bandwidths behave the same across grid shapes."""
    positions = as_points(positions, "positions")
    centered = positions - positions.mean(axis=0)
    scale = centered.std(axis=0)
    scale[scale == 0.0] = 1.0
    return centered / scale


def grid_sample_set(features, grid: GridSpec) -> tuple[SampleSet, list, list]:
    """The estimation problem of a grid layout.

    Items are the x samples; normalized grid coordinates are the y
    samples; anchors form the paired set and everything else is
    unpaired.  Returns (data, free_items, free_positions), where the
    index lists map unpaired pool positions back to item and position
    indices.
    """
    items = as_points(features, "features")
    n_items = items.shape[0]
    for i, _ in grid.anchors:
        if not 0 <= i < n_items:
            raise ValueError(f"anchor item index {i} out of range")
    coords = normalize_positions(grid.positions)

    anchored_items = [i for i, _ in grid.anchors]
    anchored_spots = [p for _, p in grid.anchors]
    taken_items = set(anchored_items)
    taken_spots = set(anchored_spots)
    free_items = [i for i in range(n_items) if i not in taken_items]
    free_spots = [p for p in range(coords.shape[0]) if p not in taken_spots]
    data = SampleSet(
        items[anchored_items],
        coords[anchored_spots],
        items[free_items],
        coords[free_spots],
    )
    return data, free_items, free_spots


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
    bandwidth is named as in :func:`naming_grid_sides`.  After
    fitting, the plan over the free items/positions is rounded with the
    Hungarian method.
    Returns (placements, result): (item_index, position_index) pairs
    sorted by position, without the surplus items when there are more
    items than positions, and the fit's ``FitResult`` (None when no
    item or no position is free).
    """
    data, free_items, free_spots = grid_sample_set(features, grid)
    placements = list(grid.anchors)
    result = None
    if free_items and free_spots:
        beta = config.beta if grid.anchors else 0.0
        with naming_grid_sides():
            result = fit(data, replace(config, beta=beta))
        placements.extend(
            (free_items[i], free_spots[j]) for i, j in plan_to_assignment(result.plan)
        )
    return sorted(placements, key=lambda ip: ip[1]), result
