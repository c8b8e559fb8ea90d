"""The verdicts of tools/bench_pairs.py on synthetic pair lists."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = bench_pairs.load_spec(ROOT)


def runs(parent, change, metric="wall_s"):
    def side(values):
        return [{"correct": True, "metrics": {metric: {"value": v}}} for v in values]

    return {"parent": side(parent), "change": side(change)}


def verdict(parent, change, metric="wall_s", claim=None):
    return bench_pairs.summarize(runs(parent, change, metric), SPEC, claim)[metric]


def test_spec_is_benchmark_json():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["bound"] for m in metrics} == {m: SPEC[m]["bound"] for m in SPEC}
    assert set(bench_pairs.METRICS) <= set(SPEC)


def test_move_is_signed_so_that_positive_is_worse():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    slower = verdict(parent, [1.1 * x for x in parent])
    assert slower["move"] == pytest.approx(0.1, abs=1e-4)
    assert slower["bound"] == SPEC["wall_s"]["bound"] and slower["within_bound"] is True
    assert verdict(parent, [1.3 * x for x in parent])["within_bound"] is False
    # ok_ratio is better higher: a lower change is a positive move
    lower = verdict([1.0] * 10, [0.95] * 10, "ok_ratio")
    assert lower["move"] == pytest.approx(0.05) and lower["within_bound"] is False
    assert verdict([1.0] * 10, [1.0] * 10, "ok_ratio")["within_bound"] is True


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5]  # IQR 0.5 of a 1.25 median
    assert verdict(parent, parent)["within_bound"] == "unresolved"
    assert verdict(parent, [1.1 * x for x in parent])["within_bound"] == "unresolved"
    # unless every change run beats every parent run
    assert verdict(parent, [0.9] * 10)["within_bound"] is True
    assert verdict(parent, [1.0] * 10)["within_bound"] == "unresolved"  # a tie is no win


def test_claim_needs_nine_of_ten_pairs_and_a_median_gap_beyond_the_iqr():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert verdict(parent, [0.9 * x for x in parent], claim="wall_s")["claim_met"] is True
    assert "claim_met" not in verdict(parent, [0.9 * x for x in parent])
    # 9 wins and one tie meet it; 8 wins and two ties do not
    nine = [0.9 * x for x in parent[:9]] + parent[9:]
    assert verdict(parent, nine, claim="wall_s")["claim_met"] is True
    eight = [0.9 * x for x in parent[:8]] + parent[8:]
    assert verdict(parent, eight, claim="wall_s")["claim_met"] is False
    # better in every pair, but by less than the parent's IQR in the median
    assert verdict(parent, [x - 0.005 for x in parent], claim="wall_s")["claim_met"] is False
    # for a metric that is better higher, a rise is the gain
    assert verdict([0.9] * 10, [1.0] * 10, "ok_ratio", claim="ok_ratio")["claim_met"] is True
    assert verdict([1.0] * 10, [0.9] * 10, "ok_ratio", claim="ok_ratio")["claim_met"] is False
