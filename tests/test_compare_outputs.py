"""The verdicts of tools/compare_outputs.py on synthetic dump pairs."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):  # the tool pins the BLAS thread variables on import
    _spec.loader.exec_module(compare_outputs)

CASE_1D = "1d/k1/eps1e-04/N32/paper"
CASE_2D = "2d/k1/eps1e-06/N8/paper"


def dump():
    return {f"{CASE_1D}/data": np.array([3.0, -1.0, 0.5]),
            f"{CASE_1D}/report": np.array([0.25, 1e-3, 7e-5]),
            f"{CASE_2D}/data": np.array([4.0, -2.0, 1.0]),
            f"{CASE_2D}/indptr": np.array([0, 2, 3], dtype=np.int32),
            "interp/1d/u/k1/eps1e-06/N16384/err": np.array([2e-6, 5e-5])}


def compare(tmp_path, old, new):
    np.savez(tmp_path / "old.npz", **old)
    np.savez(tmp_path / "new.npz", **new)
    return compare_outputs.compare(tmp_path / "old.npz", tmp_path / "new.npz")


def row(out, key):
    """The printed line of one array."""
    return next(r for r in out.splitlines() if f" {key}: " in r)


def verdict(out, group):
    """The closing verdict line of one group (1d, 2d or interp)."""
    return next(r for r in out.splitlines() if r.startswith(f"{group}: "))


def test_identical_dumps_are_bitwise(tmp_path, capsys):
    assert compare(tmp_path, dump(), dump()) == 0
    out = capsys.readouterr().out
    assert "5 arrays: 5 bitwise, 0 structure, 0 differs" in out
    for group in ("1d", "2d", "interp"):
        assert "0 outside tolerance" in verdict(out, group)


def test_2d_matrix_values_may_move_within_their_tolerance(tmp_path, capsys):
    new = dump()
    data = new[f"{CASE_2D}/data"]
    data[-1] += 0.5 * compare_outputs.RTOL_2D_DATA * np.abs(data).max()
    rel = np.abs(data - dump()[f"{CASE_2D}/data"]).max() / np.abs(data).max()
    assert 0.0 < rel <= compare_outputs.RTOL_2D_DATA
    assert compare(tmp_path, dump(), new) == 0
    printed = row(capsys.readouterr().out, f"{CASE_2D}/data")
    assert printed.startswith("ok") and "structure" in printed
    # the same move in a 1D matrix is outside its (bitwise) tolerance
    new = dump()
    new[f"{CASE_1D}/data"][-1] += 0.5 * compare_outputs.RTOL_2D_DATA * 3.0
    assert compare(tmp_path, dump(), new) == 1


def test_a_report_value_moved_by_one_ulp_fails(tmp_path, capsys):
    new = dump()
    report = new[f"{CASE_1D}/report"]
    report[1] = np.nextafter(report[1], 1.0)
    assert compare(tmp_path, dump(), new) == 1
    out = capsys.readouterr().out
    printed = row(out, f"{CASE_1D}/report")
    assert printed.startswith("FAIL") and "structure" in printed and "per-value |d|/|a|" in printed
    assert "1 outside tolerance" in verdict(out, "1d")


@pytest.mark.parametrize("key", [f"{CASE_2D}/data", f"{CASE_2D}/indptr"])
def test_another_shape_differs(tmp_path, capsys, key):
    new = dump()
    new[key] = new[key][:-1]
    assert compare(tmp_path, dump(), new) == 1
    printed = row(capsys.readouterr().out, key)
    assert printed.startswith("FAIL") and printed.endswith(": differs")
