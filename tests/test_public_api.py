"""The package's top-level names are exactly those README's Library section documents."""

import dataclasses
import importlib
import re
import types
from pathlib import Path

import pytest

import semismi
from semismi.transport import SinkhornParams

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED = {
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
}

# Every settable option of a fit or a synthetic dataset; a new one must be added here on purpose.
OPTIONS = {
    semismi.EstimatorConfig: {
        "n_basis", "epsilon", "lam", "beta", "max_outer_iters", "seed",
        "max_inner_iters", "marginal_tol",
    },
    SinkhornParams: {"epsilon", "max_inner_iters", "marginal_tol"},
    semismi.CvGrid: {"lambdas", "betas", "seed"},
    semismi.SyntheticSpec: {"kind", "n", "n_x", "n_y", "seed"},
}

SUBMODULES = ("data", "density_ratio", "estimator", "kernels", "matching", "model_selection", "transport")


def _library_code_names() -> set:
    """Identifiers in the code block and code spans of README's Library section."""
    text = README.read_text()
    section = text[text.index("## Library"):text.index("## CLI")]
    code = "".join(re.findall(r"```.*?```|`[^`]*`", section, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", code))


def test_all_is_the_documented_api():
    assert sorted(semismi.__all__) == sorted(DOCUMENTED)
    assert len(set(semismi.__all__)) == len(semismi.__all__)
    for name in semismi.__all__:
        value = getattr(semismi, name)
        assert not isinstance(value, types.ModuleType), name


def test_readme_library_section_names_every_export():
    missing = DOCUMENTED - _library_code_names()
    assert not missing, f"README's Library section does not document {sorted(missing)}"


def test_readme_library_section_names_nothing_unexported():
    # a package function or class the README shows must be importable from semismi
    public = set()
    for module in SUBMODULES:
        public |= set(importlib.import_module(f"semismi.{module}").__all__)
    assert _library_code_names() & public <= DOCUMENTED


@pytest.mark.parametrize("cls", OPTIONS, ids=lambda cls: cls.__name__)
def test_option_fields_are_pinned(cls):
    assert {field.name for field in dataclasses.fields(cls)} == OPTIONS[cls]
