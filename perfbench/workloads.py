"""The benchmark's workloads: inputs from a seed, the timed operation, its checks.

Each workload draws its inputs from a fixed pool of input indices, and
``references.json`` holds the outputs recorded for every index at the
commit that defined the benchmark, so the outputs of any seed can be
checked against recorded ones.  The seed picks which indices a run
uses; the program only ever sees the generated inputs.

Functions of semismi are always called through their module
(``estimator.fit``), never through a name bound here, so that the
wrappers a traced run installs see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from semismi import cli, data, estimator, model_selection

#: Largest marginal violation a returned plan may have (criterion PLAN_TOL).
PLAN_TOL = 1e-6
#: Largest rise allowed between consecutive objective-trace entries.
TRACE_TOL = 1e-9
#: Relative agreement required between an SMI and its reference.
SMI_RTOL = 1e-9
#: Absolute floor for SMIs at or near the clamp at 0.
SMI_ATOL = 1e-15

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def plan_problems(pi: np.ndarray) -> list[str]:
    """Marginal and sign checks every returned plan must pass."""
    if not np.all(np.isfinite(pi)) or np.any(pi < 0.0):
        return ["plan has negative or non-finite entries"]
    n_x, n_y = pi.shape
    err = max(
        float(np.max(np.abs(pi.sum(axis=1) - 1.0 / n_x))),
        float(np.max(np.abs(pi.sum(axis=0) - 1.0 / n_y))),
    )
    return [f"plan marginals off by {err:.3e}"] if err > PLAN_TOL else []


def trace_problems(trace) -> list[str]:
    trace = np.asarray(trace, dtype=float)
    if trace.size > 1:
        rise = float(np.max(np.diff(trace)))
        if rise > TRACE_TOL:
            return [f"objective trace rises by {rise:.3e}"]
    return []


def smi_problems(smi: float, ref: float) -> list[str]:
    if not math.isfinite(smi) or smi < 0.0:
        return [f"SMI {smi!r} is negative or non-finite"]
    if not math.isclose(smi, ref, rel_tol=SMI_RTOL, abs_tol=SMI_ATOL):
        return [f"SMI {smi!r} differs from reference {ref!r}"]
    return []


class Workload:
    """One benchmark workload.

    ``setup`` makes the run's inputs from the seed, ``run`` is the timed
    operation, ``check`` compares its outputs with the reference recorded
    for the input's index, and ``layer_extras`` reads layer metrics off
    the outputs that no function boundary exposes.
    """

    name = ""
    #: Operations per round; a run always measures whole rounds.
    cycle = 1

    def setup(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def reference(self, outputs) -> dict:
        raise NotImplementedError

    def check(self, item, outputs, ref: dict) -> list[str]:
        raise NotImplementedError

    def layer_extras(self, outputs) -> dict:
        return {}

    def cleanup(self, item, outputs) -> None:
        pass

    def all_items(self, workdir: Path) -> list:
        """Every input of the pool, for recording references."""
        raise NotImplementedError


class CvEstimate(Workload):
    """One tuned estimate in the shape of criterion 05: generate, CV, fit, SMI."""

    name = "cv_estimate"
    cycle = 2
    kinds = ("linear", "random")

    def __init__(self, n=100, pool=500, per_kind=10):
        self.n, self.pool, self.per_kind = n, pool, per_kind

    def _items(self, indices):
        return [{"key": f"{kind}-{k}", "kind": kind, "index": k}
                for k in indices for kind in self.kinds]

    def setup(self, seed, workdir):
        return self._items([(seed + r) % self.per_kind for r in range(2)])

    def all_items(self, workdir):
        return self._items(range(self.per_kind))

    def run(self, item):
        k = item["index"]
        ds = data.generate(data.SyntheticSpec(item["kind"], self.n, self.pool, self.pool, seed=k))
        config = estimator.EstimatorConfig(seed=k)
        report = model_selection.cross_validate(ds, config, model_selection.CvGrid(seed=k))
        tuned = replace(config, lam=report.best_lambda, beta=report.best_beta)
        result = estimator.fit(ds, tuned)
        smi = estimator.smi_estimate(result.model, ds)
        return {"lam": tuned.lam, "beta": tuned.beta, "smi": smi, "result": result}

    def reference(self, outputs):
        return {k: outputs[k] for k in ("lam", "beta", "smi")}

    def check(self, item, outputs, ref):
        problems = []
        if (outputs["lam"], outputs["beta"]) != (ref["lam"], ref["beta"]):
            problems.append(
                f"selected (lambda, beta) = ({outputs['lam']}, {outputs['beta']}), "
                f"reference ({ref['lam']}, {ref['beta']})"
            )
        result = outputs["result"]
        problems += plan_problems(result.plan.pi)
        problems += trace_problems(result.objective_trace)
        problems += smi_problems(outputs["smi"], ref["smi"])
        return problems


class LargeFit(Workload):
    """One untuned fit plus SMI on large linear pools."""

    name = "large_fit"

    def __init__(self, n=100, pool=2000, indices=40, per_run=8):
        self.n, self.pool, self.indices, self.per_run = n, pool, indices, per_run

    def _items(self, indices):
        return [
            {"key": str(j), "index": j,
             "data": data.generate(data.SyntheticSpec("linear", self.n, self.pool, self.pool, seed=j))}
            for j in indices
        ]

    def setup(self, seed, workdir):
        return self._items([(seed * self.per_run + d) % self.indices for d in range(self.per_run)])

    def all_items(self, workdir):
        return self._items(range(self.indices))

    def run(self, item):
        ds = item["data"]
        result = estimator.fit(ds, estimator.EstimatorConfig())
        smi = estimator.smi_estimate(result.model, ds)
        return {"smi": smi, "iterations": result.iterations_run, "result": result}

    def reference(self, outputs):
        return {"smi": outputs["smi"], "iterations": outputs["iterations"]}

    def check(self, item, outputs, ref):
        problems = []
        if outputs["iterations"] != ref["iterations"]:
            problems.append(
                f"{outputs['iterations']} outer iterations, reference {ref['iterations']}"
            )
        result = outputs["result"]
        problems += plan_problems(result.plan.pi)
        problems += trace_problems(result.objective_trace)
        problems += smi_problems(outputs["smi"], ref["smi"])
        return problems


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_record(path: Path) -> dict:
    record = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        record[key] = value
    return record


class CliMatch(Workload):
    """``semismi match`` on CSV tables, called in-process through ``cli.main``.

    The tables are 32-d halves of correlated 64-d vectors built like
    criterion 08's: a shared 4-d latent mixed into each side plus small
    noise.  The y table's rows are shuffled; a few known pairs go to
    ``--paired`` and the rest to ``--truth``.
    """

    name = "cli_match"
    args = ("--lambda", "1e-3", "--beta", "0.8", "--epsilon", "0.02")

    def __init__(self, pairs=50, unpaired=1000, dim=32, indices=24, per_run=6):
        self.pairs, self.unpaired, self.dim = pairs, unpaired, dim
        self.indices, self.per_run = indices, per_run

    def _write_inputs(self, j, workdir: Path) -> dict:
        rng = np.random.default_rng(8000 + j)
        mix_x = rng.standard_normal((4, self.dim)) / 2.0
        mix_y = rng.standard_normal((4, self.dim)) / 2.0
        rows = self.pairs + self.unpaired
        latent = rng.standard_normal((rows, 4))
        x = latent @ mix_x + 0.05 * rng.standard_normal((rows, self.dim))
        y = latent @ mix_y + 0.05 * rng.standard_normal((rows, self.dim))
        perm = rng.permutation(rows)  # x row i pairs with y-table row perm[i]
        y_table = np.empty_like(y)
        y_table[perm] = y
        index = np.column_stack([np.arange(rows), perm])

        folder = workdir / f"in{j}"
        folder.mkdir(parents=True, exist_ok=True)
        paths = {name: folder / f"{name}.csv" for name in ("x", "y", "paired", "truth")}
        np.savetxt(paths["x"], x, delimiter=",", fmt="%.17g")
        np.savetxt(paths["y"], y_table, delimiter=",", fmt="%.17g")
        np.savetxt(paths["paired"], index[: self.pairs], delimiter=",", fmt="%d")
        np.savetxt(paths["truth"], index[self.pairs:], delimiter=",", fmt="%d")
        return {"key": str(j), "index": j, "out": folder / "out",
                **{name: str(p) for name, p in paths.items()}}

    def setup(self, seed, workdir):
        return [self._write_inputs((seed * self.per_run + d) % self.indices, workdir)
                for d in range(self.per_run)]

    def all_items(self, workdir):
        return [self._write_inputs(j, workdir) for j in range(self.indices)]

    def run(self, item):
        shutil.rmtree(item["out"], ignore_errors=True)
        argv = ["match", "--x", item["x"], "--y", item["y"], "--paired", item["paired"],
                "--truth", item["truth"], *self.args, "--save-plan", "--out", str(item["out"])]
        return {"code": cli.main(argv), "out": item["out"]}

    def _results(self, out: Path) -> dict:
        record = _read_record(out / "result.txt")
        return {"top1": float(record["top1_accuracy"]), "top2": float(record["top2_accuracy"]),
                "smi": float(record["smi"])}

    def reference(self, outputs):
        return self._results(outputs["out"])

    def check(self, item, outputs, ref):
        if outputs["code"] != 0:
            return [f"semismi match exited with code {outputs['code']}"]
        out = outputs["out"]
        problems = []
        manifest = json.loads((out / "manifest.json").read_text())
        for name, rec in manifest["outputs"].items():
            if _sha256(out / name) != rec["sha256"]:
                problems.append(f"{name}: sha256 differs from the manifest")
        got = self._results(out)
        one_pair = 1.0 / self.unpaired + 1e-12
        for key in ("top1", "top2"):
            if abs(got[key] - ref[key]) > one_pair:
                problems.append(f"{key} accuracy {got[key]} vs reference {ref[key]}")
        problems += plan_problems(np.loadtxt(out / "plan.csv", delimiter=",", ndmin=2))
        problems += smi_problems(got["smi"], ref["smi"])
        return problems

    def layer_extras(self, outputs):
        out = outputs["out"]
        manifest = json.loads((out / "manifest.json").read_text())
        return {
            "cli.write_s": float(manifest["timings"]["write_seconds"]),
            "cli.bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
        }

    def cleanup(self, item, outputs):
        shutil.rmtree(item["out"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (CvEstimate(), LargeFit(), CliMatch())}
