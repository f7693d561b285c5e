"""Every public function that takes points rejects a NaN or infinite
coordinate with one message naming the argument it came in."""

import numpy as np
import pytest

from semismi import (
    EstimatorConfig,
    GridSpec,
    RatioModel,
    SampleSet,
    grid_summarize,
    make_semi_supervised,
    split_features,
)
from semismi.kernels import BasisSet, gaussian_gram, median_heuristic, sample_basis
from semismi.matching import normalize_positions
from semismi.model_selection import holdout_error

X = np.random.default_rng(0).standard_normal((6, 2))
Y = np.random.default_rng(1).standard_normal((6, 1))
GRID = np.array([[i, j] for i in range(2) for j in range(3)], dtype=float)
MODEL = RatioModel(BasisSet(X[:3], Y[:3], 1.0, 1.0), np.ones(3))


def _spoiled(points, bad):
    points = points.copy()
    points[1, 0] = bad
    return points


# case id: (argument name, call with the named argument spoiled by ``bad``)
CASES = {
    "SampleSet-paired_x": ("paired_x", lambda bad: SampleSet(_spoiled(X, bad), Y, X, Y)),
    "SampleSet-paired_y": ("paired_y", lambda bad: SampleSet(X, _spoiled(Y, bad), X, Y)),
    "SampleSet-unpaired_x": ("unpaired_x", lambda bad: SampleSet(X, Y, _spoiled(X, bad), Y)),
    "SampleSet-unpaired_y": ("unpaired_y", lambda bad: SampleSet(X, Y, X, _spoiled(Y, bad))),
    "GridSpec": ("positions", lambda bad: GridSpec(_spoiled(GRID, bad), [])),
    "normalize_positions": ("positions", lambda bad: normalize_positions(_spoiled(GRID, bad))),
    "grid_summarize": (
        "features",
        lambda bad: grid_summarize(_spoiled(X, bad), GridSpec(GRID, []), EstimatorConfig()),
    ),
    "BasisSet-x_basis": ("x_basis", lambda bad: BasisSet(_spoiled(X, bad), Y, 1.0, 1.0)),
    "BasisSet-y_basis": ("y_basis", lambda bad: BasisSet(X, _spoiled(Y, bad), 1.0, 1.0)),
    "sample_basis-pool_x": ("pool_x", lambda bad: sample_basis(_spoiled(X, bad), Y, 3)),
    "sample_basis-pool_y": ("pool_y", lambda bad: sample_basis(X, _spoiled(Y, bad), 3)),
    "median_heuristic": ("samples", lambda bad: median_heuristic(_spoiled(X, bad))),
    "gaussian_gram-centers": ("centers", lambda bad: gaussian_gram(_spoiled(X, bad), X, 1.0)),
    "gaussian_gram-points": ("points", lambda bad: gaussian_gram(X, _spoiled(X, bad), 1.0)),
    "RatioModel.pairs-xs": ("xs", lambda bad: MODEL.pairs(_spoiled(X, bad), Y)),
    "RatioModel.pairs-ys": ("ys", lambda bad: MODEL.pairs(X, _spoiled(Y, bad))),
    "RatioModel.cross-xs": ("xs", lambda bad: MODEL.cross(_spoiled(X, bad), Y)),
    "RatioModel.cross-ys": ("ys", lambda bad: MODEL.cross(X, _spoiled(Y, bad))),
    "holdout_error-test_x": ("test_x", lambda bad: holdout_error(MODEL, _spoiled(X, bad), Y)),
    "holdout_error-test_y": ("test_y", lambda bad: holdout_error(MODEL, X, _spoiled(Y, bad))),
    "split_features": ("table", lambda bad: split_features(_spoiled(np.hstack([X, Y]), bad), 1)),
    "make_semi_supervised-x": ("x", lambda bad: make_semi_supervised(_spoiled(X, bad), Y, 2, 2, 2)),
    "make_semi_supervised-y": ("y", lambda bad: make_semi_supervised(X, _spoiled(Y, bad), 2, 2, 2)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", CASES)
def test_a_non_finite_point_is_rejected_naming_its_argument(case, bad):
    name, call = CASES[case]
    with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry \(NaN or inf\)$"):
        call(bad)
