"""Squared-loss mutual information from few pairs plus unpaired pools.

The estimator alternates two exact minimizations of one objective:
closed-form ridge fitting of a kernel density-ratio model, and entropic
optimal-transport rebalancing of a coupling over the unpaired pools.
The fitted ratio yields the SMI estimate; the fitted plan doubles as a
soft matching for correspondence and layout problems.
"""

from .data import SyntheticSpec, generate, load_table, make_semi_supervised, split_features
from .density_ratio import RatioModel
from .estimator import EstimatorConfig, FitResult, SampleSet, fit, smi_estimate
from .matching import GridSpec, grid_summarize, plan_to_assignment, topk_accuracy
from .model_selection import CvGrid, CvReport, cross_validate
from .transport import TransportPlan

__version__ = "0.1.0"

__all__ = [
    "CvGrid",
    "CvReport",
    "EstimatorConfig",
    "FitResult",
    "GridSpec",
    "RatioModel",
    "SampleSet",
    "SyntheticSpec",
    "TransportPlan",
    "cross_validate",
    "fit",
    "generate",
    "grid_summarize",
    "load_table",
    "make_semi_supervised",
    "plan_to_assignment",
    "smi_estimate",
    "split_features",
    "topk_accuracy",
]
