"""Correctness gate: compare one execution's outcome with the reference
captured from the seed commit of the benchmark (``reference.json``)."""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance on every reference value.  Repeated LU solves of the
# same system agree bit for bit on this build (capture_reference.py measures
# and records it), so the gate uses the 1e-12 refactoring target unchanged.
REL_TOL = 1e-12


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def close(value: float | None, ref: float | None, rel_tol: float = REL_TOL) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    if not (math.isfinite(value) and math.isfinite(ref)):
        return False
    return abs(value - ref) <= rel_tol * abs(ref)


def compare(outcome, ref_entry: dict, rel_tol: float = REL_TOL) -> dict:
    """Check every reference case against the outcome.

    Returns ``attempted`` (reference cases), ``failed`` (cases missing or
    differing from the reference in status or in any value), ``ok`` (cases
    that solved with status "ok" and match) and the mismatch messages.
    A changed CLI exit code is a mismatch too.
    """
    mismatches = []
    failed = ok = 0
    ref_cases = ref_entry["cases"]
    for key, ref in ref_cases.items():
        got = outcome.cases.get(key)
        if got is None:
            failed += 1
            mismatches.append(f"{key}: missing")
            continue
        bad = []
        if got["status"] != ref["status"]:
            bad.append(f"status {got['status']!r} != {ref['status']!r}")
        for name, rv in ref["values"].items():
            gv = got["values"].get(name)
            if not close(gv, rv, rel_tol):
                bad.append(f"{name} {gv!r} != {rv!r}")
        if set(got["values"]) != set(ref["values"]):
            bad.append(f"values {sorted(got['values'])} != {sorted(ref['values'])}")
        if bad:
            failed += 1
            mismatches.append(f"{key}: " + "; ".join(bad))
        elif ref["status"] == "ok":
            ok += 1
    for key in outcome.cases.keys() - ref_cases.keys():
        mismatches.append(f"{key}: not in the reference")
    if ref_entry.get("exit_code") != outcome.exit_code:
        mismatches.append(f"exit code {outcome.exit_code} != {ref_entry.get('exit_code')}")
    return {"attempted": len(ref_cases), "failed": failed, "ok": ok, "mismatches": mismatches}
