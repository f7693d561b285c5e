"""The package's top-level names are exactly those README's Library section
documents, and every exported name has a caller outside the tests."""

import ast
import dataclasses
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

import semismi

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(semismi.__file__).resolve().parent

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
    semismi.EstimatorConfig: {"n_basis", "epsilon", "lam", "beta", "max_outer_iters", "seed"},
    semismi.CvGrid: {"seed"},
    semismi.SyntheticSpec: {"kind", "n", "n_x", "n_y", "seed"},
}

# The parameters of the fit path's entry points, and of the internal functions
# perfbench wraps (sinkhorn_solve); a new one must be added here on purpose.
PARAMETERS = {
    semismi.fit: ("data", "config"),
    semismi.cross_validate: ("data", "config", "grid"),
    semismi.smi_estimate: ("model", "data"),
    semismi.grid_summarize: ("features", "grid", "config"),
    semismi.transport.sinkhorn_solve: (
        "blocks", "alpha", "beta", "epsilon", "potentials", "out",
    ),
    semismi.density_ratio.RidgeSystem.solve: ("self", "h", "lam"),
    semismi.kernels.gaussian_gram: ("centers", "points", "sigma", "name"),
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


@pytest.mark.parametrize("function", PARAMETERS, ids=lambda function: function.__name__)
def test_entry_point_parameters_are_pinned(function):
    assert tuple(inspect.signature(function).parameters) == PARAMETERS[function]


def _code_identifiers(tree) -> set:
    """Names a module reads or looks up as attributes; definitions, import
    lists, assignments and strings (docstrings, ``__all__``) do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _literal(tree, name: str):
    """The literal a module assigns to ``name`` at top level, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _exports_without_a_product_caller() -> set:
    """``module.name`` of each export no package module reads and README's
    Library section does not show."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_code_identifiers(tree) for tree in trees.values()))
    library = _library_code_names()
    # a module's own uses count, not its definition or its __all__ entry
    return {
        f"{module.removesuffix('.py')}.{name}"
        for module, tree in trees.items()
        for name in _literal(tree, "__all__") or []
        if name not in library and name not in used
    }


def _perfbench_targets() -> set:
    # perfbench/spans.py is read, not imported: its TARGETS are the names it wraps
    targets = _literal(ast.parse((ROOT / "perfbench" / "spans.py").read_text()), "TARGETS")
    return {f"{module}.{fn}" for module, fn in targets}


def test_every_export_has_a_product_caller():
    # a public name only tests call is a second path to retire
    orphans = sorted(_exports_without_a_product_caller() - _perfbench_targets())
    assert not orphans, f"exported but called only by tests: {orphans}"


def test_only_known_exports_live_for_perfbench_alone():
    # these wait to be retired with a benchmark change, which must shrink
    # this set; a new export cannot lean on perfbench for its caller
    assert _exports_without_a_product_caller() & _perfbench_targets() == {
        "density_ratio.mixed_linear_term",
        "density_ratio.solve_alpha",
        "transport.cost_matrix",
    }
