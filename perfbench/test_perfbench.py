"""Self-tests of the benchmark (not of ldgrd):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import METRIC_UNITS, Tracer, package_modules  # noqa: E402

workloads.import_ldgrd()
REFERENCE = gate.load_reference()


def reference_outcome(name: str, seed: int = workloads.DEFAULT_SEED):
    w = workloads.WORKLOADS[name]
    entry = REFERENCE["workloads"][name][w.reference_key(w.inputs(seed))]
    return entry, workloads.Outcome(cases=copy.deepcopy(entry["cases"]), exit_code=entry["exit_code"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_accepts_the_reference_itself(name):
    entry, outcome = reference_outcome(name)
    result = gate.compare(outcome, entry)
    assert result["mismatches"] == [] and result["failed"] == 0
    assert result["attempted"] == len(entry["cases"]) > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_rejects_a_perturbed_value(name):
    entry, outcome = reference_outcome(name)
    key = next(k for k, c in outcome.cases.items() if c["values"])
    field = next(iter(outcome.cases[key]["values"]))
    outcome.cases[key]["values"][field] *= 1.0 + 1e-9
    result = gate.compare(outcome, entry)
    assert result["failed"] == 1
    assert result["mismatches"] and result["mismatches"][0].startswith(key)


def test_gate_rejects_changed_status_missing_case_and_exit_code():
    entry, outcome = reference_outcome("sweep1d")
    keys = list(outcome.cases)
    outcome.cases[keys[0]]["status"] = "error: RuntimeError"
    del outcome.cases[keys[1]]
    outcome.exit_code = 0
    result = gate.compare(outcome, entry)
    assert result["failed"] == 2
    assert any("exit code" in m for m in result["mismatches"])


def test_gate_tolerance_is_the_refactoring_target():
    assert gate.REL_TOL == REFERENCE["rel_tol"] == 1e-12
    assert gate.close(1.0 + 0.5e-12, 1.0) and not gate.close(1.0 + 2e-12, 1.0)
    assert not gate.close(float("nan"), 1.0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_is_deterministic_and_covered_by_the_reference(name):
    w = workloads.WORKLOADS[name]
    for seed in (0, 1, 5, 12345, 2**31 - 1):
        assert w.inputs(seed) == w.inputs(seed)
        assert w.reference_key(w.inputs(seed)) in REFERENCE["workloads"][name]


def test_seed_draws_every_eps_of_the_pool():
    eps = {workloads.WORKLOADS["interp"].inputs(s)["eps"] for s in range(len(workloads.EPS_POOL))}
    assert eps == set(workloads.EPS_POOL) == set(REFERENCE["eps_pool"])


def test_default_seed_reproduces_the_named_grids():
    from ldgrd.cli import build_parser

    w = workloads.WORKLOADS
    a1 = build_parser().parse_args(w["sweep1d"].inputs(workloads.DEFAULT_SEED)["argv"])
    assert (a1.dim, a1.degree, a1.problem, a1.fmt) == (1, (1, 2, 3), "layer1d", "csv")
    assert a1.eps == (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
    assert a1.N == (32, 64, 128, 256, 512, 1024)

    a2 = build_parser().parse_args(w["sweep2d"].inputs(workloads.DEFAULT_SEED)["argv"])
    assert (a2.dim, a2.degree, a2.N, a2.eps, a2.problem) == (2, (1, 2), (16, 32, 64), (1e-8,), "layer2d")

    interp = w["interp"].inputs(workloads.DEFAULT_SEED)
    assert interp["eps"] == 1e-8
    assert interp["1d"] == {"degrees": (1, 3), "N": 16384, "problem": "layer1d"}
    assert interp["2d"] == {"degrees": (1, 2), "N": 64, "problem": "layer2d"}

    assert len(REFERENCE["workloads"]["sweep1d"]["grid"]["cases"]) == 90
    assert len(REFERENCE["workloads"]["sweep2d"]["eps=1e-08"]["cases"]) == 6
    assert len(REFERENCE["workloads"]["interp"]["eps=1e-08"]["cases"]) == 20


def test_tracer_restores_every_patch_and_adds_up():
    before = {(m.__name__, a): v for m in package_modules() for a, v in vars(m).items()}
    tracer = Tracer()
    with tracer:
        out = workloads.run_cli(["--dim", "1", "--degree", "1", "--eps", "1e-8", "--N", "32,64"])
    after = {(m.__name__, a): v for m in package_modules() for a, v in vars(m).items()}
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.patched > 50
    assert tracer.consistency() == []
    assert [c["status"] for c in out.cases.values()] == ["ok", "ok"]
    m = tracer.metrics(0)
    assert set(m) == set(METRIC_UNITS) - {"trace_overhead_ratio"}
    assert m["assembly1d.calls"] == m["mesh.calls"] == m["norms.calls"] == 2
    assert m["assembly1d.nnz"] == sum(s["nnz"] for s in tracer.case_sizes.values()) > 0
    assert m["linalg.fill_nnz"] > 0 and m["projection.calls"] == 0
    names = {s["name"] for s in tracer.span_dump()}
    assert {"cli.main", "study.run_study", "assembly1d.solve_1d", "linalg.lu_solve",
            "linalg.splu"} <= names
