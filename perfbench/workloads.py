"""The benchmark's workloads: their inputs as a function of the seed, and
one execution of each through the public ldgrd API.

Every execution returns an ``Outcome``: one entry per case, keyed as in the
reference, with the case status and its full-precision values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The seed picks the eps of interp from EPS_POOL and the eps of sweep2d from
# its first three values; the default seed 0 gives eps = 1e-8 for both.
# interp costs the same for every eps.  The 2D sparse LU does not: at equal
# fill it factors about 1.5x slower for eps <= 1e-10 than for eps >= 1e-8
# (see README), so sweep2d draws only from eps values that cost the same,
# and every seed does the same work.
EPS_POOL = (1e-8, 1e-6, 1e-7, 1e-9, 1e-10, 1e-11, 1e-12)
SWEEP2D_EPS_POOL = EPS_POOL[:3]
DEFAULT_SEED = 0

SWEEP1D_ARGV = ["--dim", "1", "--degree", "1,2,3", "--eps", "1e-4,1e-6,1e-8,1e-10,1e-12",
                "--N", "32,64,128,256,512,1024", "--problem", "layer1d", "--format", "csv"]
SWEEP2D_ARGV = ["--dim", "2", "--degree", "1,2", "--N", "16,32,64", "--problem", "layer2d"]
INTERP_1D = {"degrees": (1, 3), "N": 16384, "problem": "layer1d"}
INTERP_2D = {"degrees": (1, 2), "N": 64, "problem": "layer2d"}


def import_ldgrd():
    """Import ldgrd from the ``src/`` tree next to the benchmark, never from
    an installed copy.  Raises ImportError when that tree is absent."""
    src = ROOT / "src"
    if not (src / "ldgrd" / "__init__.py").is_file():
        raise ImportError(f"no ldgrd package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ldgrd = importlib.import_module("ldgrd")
    if Path(ldgrd.__file__).resolve().parent != (src / "ldgrd").resolve():
        raise ImportError(f"ldgrd was imported from {ldgrd.__file__}, not from {src}")
    for layer in ("cli", "study", "projection", "mesh", "problems", "polyspace",
                  "assembly1d", "assembly2d", "linalg", "norms"):
        importlib.import_module(f"ldgrd.{layer}")
    return ldgrd


def seed_eps(seed: int, pool: tuple[float, ...] = EPS_POOL) -> float:
    return pool[seed % len(pool)]


@dataclasses.dataclass
class Outcome:
    cases: dict[str, dict]  # key -> {"status": str, "values": {name: float}}
    exit_code: int | None = None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    uses: tuple[str, ...]  # layers predicted to be called
    dominant: str  # layer predicted to have the largest self time

    def inputs(self, seed: int) -> dict:
        if self.name == "sweep1d":
            return {"argv": list(SWEEP1D_ARGV)}
        if self.name == "sweep2d":
            return {"argv": SWEEP2D_ARGV + ["--eps", repr(seed_eps(seed, SWEEP2D_EPS_POOL))]}
        return {"eps": seed_eps(seed), "1d": INTERP_1D, "2d": INTERP_2D}

    def reference_key(self, inputs: dict) -> str:
        """Which reference entry covers these inputs."""
        if self.name == "sweep1d":
            return "grid"
        eps = float(inputs["argv"][-1]) if "argv" in inputs else inputs["eps"]
        return f"eps={eps!r}"

    def execute(self, inputs: dict) -> Outcome:
        if "argv" in inputs:
            return run_cli(inputs["argv"])
        return run_interp(inputs["eps"])


WORKLOADS = {w.name: w for w in (
    Workload("sweep1d",
             "90-case 1D CLI sweep: many small solves, time is in assembly1d Python loops",
             uses=("cli", "study", "mesh", "problems", "polyspace", "assembly1d", "linalg", "norms"),
             dominant="assembly1d"),
    Workload("sweep2d",
             "6-case 2D CLI sweep up to 111k unknowns: sparse LU in linalg, then assembly2d",
             uses=("cli", "study", "mesh", "problems", "polyspace", "assembly2d", "linalg", "norms"),
             dominant="linalg"),
    Workload("interp",
             "layer-aware interpolants and their errors: per-cell projection, no assembly or LU",
             uses=("mesh", "problems", "polyspace", "projection"),
             dominant="projection"),
)}


def run_cli(argv: list[str]) -> Outcome:
    """One in-process ``ldgrd.cli.main`` call; the records it computes are
    taken from ``run_study`` as it returns them, its text output is discarded."""
    import ldgrd.cli
    from tracer import sweep_key

    captured = []
    inner = ldgrd.cli.run_study

    def capture(cfg):
        records = inner(cfg)
        captured.append(records)
        return records

    ldgrd.cli.run_study = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = ldgrd.cli.main(argv)
    finally:
        ldgrd.cli.run_study = inner
    cases = {}
    for records in captured:
        for r in records:
            values = dataclasses.asdict(r.report) if r.report is not None else {}
            cases[sweep_key(r.dim, r.k, r.eps, r.N)] = {"status": r.status, "values": values}
    return Outcome(cases=cases, exit_code=code)


def run_interp(eps: float) -> Outcome:
    """Layer-aware interpolants of the exact solution and fluxes, with their
    L2 and Linf errors, through the public ``ldgrd.projection`` API."""
    from ldgrd import mesh, problems, projection

    cases = {}

    def record(key, field, interp, measure):
        for norm in ("l2", "linf"):
            cases[f"{key},{norm}"] = {"status": "ok",
                                      "values": {"err": measure(field, interp, norm)}}

    spec = problems.get_problem(INTERP_1D["problem"], eps)
    for k in INTERP_1D["degrees"]:
        params = mesh.MeshParams(eps=eps, beta=spec.beta, sigma=k + 1, N=INTERP_1D["N"])
        m = mesh.build_shishkin_1d(params)
        for name, build, field in (("u", projection.composite_u_1d, spec.u_exact),
                                   ("q", projection.composite_q_1d, spec.q_exact)):
            record(f"dim=1,{name},k={k}", field, build(field, m, k), projection.measure_interp_error)

    spec = problems.get_problem(INTERP_2D["problem"], eps)
    for k in INTERP_2D["degrees"]:
        params = mesh.MeshParams(eps=eps, beta=spec.beta, sigma=k + 1, N=INTERP_2D["N"])
        m1 = mesh.build_shishkin_1d(params)
        m = mesh.build_tensor_2d(m1, m1)
        for name, build, field in (("u", projection.composite_u_2d, spec.u_exact),
                                   ("px", projection.composite_px_2d, spec.p_exact),
                                   ("qy", projection.composite_qy_2d, spec.q_exact)):
            record(f"dim=2,{name},k={k}", field, build(field, m, k), projection.measure_interp_error_2d)
    return Outcome(cases=cases)
