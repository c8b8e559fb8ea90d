import csv
import dataclasses
import importlib
import io
import math
import pkgutil

import numpy as np
import pytest

import ldgrd.assembly1d as assembly1d
import ldgrd.study as study
from ldgrd.cli import build_parser, main
from ldgrd.problems import PROBLEM_NAMES
from ldgrd.study import (
    CSV_HEADER,
    ROUNDOFF_FLOOR,
    ConvergenceRecord,
    StudyConfig,
    rate_p,
    rate_s,
    records_to_csv,
    records_to_table,
    run_study,
)


def test_rate_s_hand_values():
    # ln(25/11)/ln(2) evaluated by hand
    assert math.isclose(rate_s(0.25, 0.11), 1.1844245711374275, rel_tol=1e-12)
    assert rate_s(math.e, math.e) == 0.0
    assert math.isclose(rate_s(4.0, 1.0), 2.0, rel_tol=1e-15)


def test_rate_p_hand_values():
    # ln(25/11)/ln(2 ln32 / ln64)
    ref = math.log(0.25 / 0.11) / math.log(2.0 * math.log(32) / math.log(64))
    assert math.isclose(ref, 1.607, rel_tol=1e-3)
    assert math.isclose(rate_p(0.25, 0.11, 32), ref, rel_tol=1e-14)
    assert rate_p(1.0, 1.0, 128) == 0.0


def test_rate_p_definition_inversion():
    # error ratio (2 lnN / ln 2N)^{k+1} gives exactly k+1
    N, k = 64, 2
    factor = (2.0 * math.log(N) / math.log(2 * N)) ** (k + 1)
    assert math.isclose(rate_p(factor, 1.0, N), k + 1, rel_tol=1e-13)


def test_rates_reject_bad_input():
    with pytest.raises(ValueError):
        rate_s(0.0, 1.0)
    with pytest.raises(ValueError):
        rate_s(1.0, -1.0)
    with pytest.raises(ValueError):
        rate_p(1.0, 1.0, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(n_list=())
    with pytest.raises(ValueError):
        StudyConfig(n_list=(12, 30))
    with pytest.raises(ValueError):
        StudyConfig(problem="nosuch")
    with pytest.raises(ValueError):
        StudyConfig(flux="other")
    # the problem sets the dimension, which is no field of its own
    assert (StudyConfig().dim, StudyConfig(problem="layer2d").dim) == (1, 2)
    with pytest.raises(TypeError):
        StudyConfig(dim=2)


@pytest.mark.parametrize("name, value", [("n_list", 8.0), ("n_list", 8.5),
                                         ("degrees", 1.0), ("degrees", 2.5)])
def test_config_rejects_a_non_integral_degree_or_cell_count(name, value):
    # rejected by the config, naming the field, instead of failing every
    # case with a TypeError from inside numpy
    with pytest.raises(ValueError, match=f"{name} must hold integers, got {value}"):
        StudyConfig(**{name: (value,)})


def test_numpy_integers_are_valid_degrees_and_cell_counts():
    cfg = StudyConfig(degrees=(2,), eps_list=(1e-6,), n_list=(8,))
    records = run_study(dataclasses.replace(cfg, degrees=(np.int64(2),), n_list=(np.int64(8),)))
    assert [r.status for r in records] == ["ok"]
    assert records == run_study(cfg)


def test_sigma_rule():
    cfg = StudyConfig(degrees=(1, 3), n_list=(8,))
    assert cfg.sigma_for(1) == 2.0
    assert cfg.sigma_for(3) == 4.0
    cfg2 = StudyConfig(degrees=(1,), n_list=(8,), sigma=2.5)
    assert cfg2.sigma_for(3) == 2.5


def test_run_study_attaches_rates_and_orders_records():
    cfg = StudyConfig(degrees=(1,), eps_list=(1e-6,), n_list=(16, 8),
                      problem="layer1d")
    records = run_study(cfg)
    assert [r.N for r in records] == [8, 16]
    assert all(r.status == "ok" for r in records)
    first, second = records
    assert first.rs_balanced is not None and first.rp_balanced is not None
    assert second.rs_balanced is None  # no 2N partner
    assert math.isclose(
        first.rs_balanced,
        rate_s(first.report.err_balanced, second.report.err_balanced),
        rel_tol=1e-12,
    )


def test_run_study_records_case_failures_and_continues():
    # sigma=4 with eps=1e-2 pushes the transition point past 1/4 for N=8
    cfg = StudyConfig(degrees=(3,), eps_list=(1e-2, 1e-6), n_list=(8,),
                      problem="layer1d")
    records = run_study(cfg)
    by_eps = {r.eps: r for r in records}
    assert by_eps[1e-2].status.startswith("error")
    assert by_eps[1e-2].report is None
    assert by_eps[1e-6].status == "ok"


def test_csv_schema_and_formatting():
    cfg = StudyConfig(degrees=(1,), eps_list=(1e-6,), n_list=(8, 16),
                      problem="layer1d")
    records = run_study(cfg)
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["dim"] == "1" and rows[0]["k"] == "1" and rows[0]["N"] == "8"
    assert rows[0]["status"] == "ok"
    float(rows[0]["err_balanced"])
    assert rows[1]["rs_balanced"] == ""  # final mesh has no rate
    # rates carry two decimals
    assert len(rows[0]["rs_balanced"].split(".")[1]) == 2


def test_csv_bit_stable():
    cfg = StudyConfig(degrees=(1,), eps_list=(1e-8,), n_list=(8, 16),
                      problem="layer1d")
    t1 = records_to_csv(run_study(cfg))
    t2 = records_to_csv(run_study(cfg))
    assert t1 == t2


def test_evaluation_order_changes_nothing_observable(monkeypatch):
    # run_study computes the cases of one (k, N) back to back over eps; its
    # records, statuses, rates and CSV bytes are those of _run_case called in
    # (k, eps, N) order.  sweep1d's grid, with the case that has no mesh
    # (k=3, eps=1e-4, N=1024: tau > 1/4) in its slot.
    cfg = StudyConfig(degrees=(1, 2, 3), eps_list=(1e-4, 1e-6, 1e-8, 1e-10, 1e-12),
                      n_list=(32, 64, 128, 256, 512, 1024), problem="layer1d")
    eps_list = sorted(cfg.eps_list)
    keys = [(k, eps, n) for k in cfg.degrees for eps in eps_list for n in cfg.n_list]
    assembly1d._plan.cache_clear()
    explicit = {key: study._run_case(cfg, *key) for key in keys}
    calls = []

    def replay(cfg, k, eps, n):
        calls.append((k, eps, n))
        return dataclasses.replace(explicit[k, eps, n])

    monkeypatch.setattr(study, "_run_case", replay)
    expected = run_study(cfg)
    monkeypatch.undo()
    assert calls == [(k, eps, n) for k in cfg.degrees for n in cfg.n_list for eps in eps_list]
    assembly1d._plan.cache_clear()
    records = run_study(cfg)
    assert [(r.k, r.eps, r.N) for r in records] == keys
    assert records == expected
    assert records_to_csv(records).encode() == records_to_csv(expected).encode()
    failed = [(r.k, r.eps, r.N, r.status) for r in records if r.status != "ok"]
    assert failed == [(3, 1e-4, 1024, "error: ValueError")]
    assert sum(r.rs_balanced is not None for r in records) == 74


def test_table_output_mentions_each_block():
    cfg = StudyConfig(degrees=(1,), eps_list=(1e-6, 1e-8), n_list=(8, 16),
                      problem="layer1d")
    text = records_to_table(run_study(cfg))
    assert "k = 1" in text
    assert "eps=1e-06" in text and "eps=1e-08" in text
    assert "err_B" in text


def test_failed_case_rows_keep_schema():
    rec = ConvergenceRecord(dim=1, k=1, sigma=2.0, eps=1e-2, N=8,
                            status="error: ValueError")
    text = records_to_csv([rec])
    row = next(csv.DictReader(io.StringIO(text)))
    assert row["err_balanced"] == ""
    assert row["status"].startswith("error")


def test_cli_csv_roundtrip(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["--dim", "1", "--degree", "1", "--eps", "1e-6", "--N", "8,16",
                 "--problem", "layer1d", "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    assert rows[0]["sigma"] == "2"


def test_cli_flux_and_sigma_flags(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["--degree", "1", "--eps", "1e-6", "--N", "8", "--sigma", "3",
                 "--flux", "classic", "--problem", "layer1d",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    row = next(csv.DictReader(out.open()))
    assert row["sigma"] == "3"


def test_cli_takes_the_dimension_from_the_problem(capsys, monkeypatch):
    # --dim may be left out; a given --dim must match the problem's, or the
    # CLI exits 2 naming both before any case runs
    for given in ([], ["--dim", "2"]):
        code = main(given + ["--problem", "layer2d", "--degree", "1", "--N", "8,16",
                             "--eps", "1e-6", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2 and {row["dim"] for row in rows} == {"2"}

    def no_sweep(cfg):
        raise AssertionError("run_study called")

    monkeypatch.setattr("ldgrd.cli.run_study", no_sweep)
    assert main(["--dim", "1", "--problem", "layer2d"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--dim 1" in err and "2D problem 'layer2d'" in err


def test_cli_rejects_empty_n_list(capsys):
    code = main(["--N", "", "--eps", "1e-6"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_rejects_bad_sigma(capsys):
    for sigma in ("abc", "0", "-1", "inf", "nan"):
        code = main(["--degree", "1", "--eps", "1e-6", "--N", "8", "--sigma", sigma])
        assert code == 2, sigma
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, values", [("--degree", "1,2,1"), ("--eps", "1e-6,1e-8,1e-6"),
                                          ("--N", "8,8,16")])
def test_cli_rejects_repeated_sweep_values(flag, values, capsys, monkeypatch):
    # a repeated value would solve its cases twice and write duplicate rows
    def no_sweep(cfg):
        raise AssertionError("run_study called")

    monkeypatch.setattr("ldgrd.cli.run_study", no_sweep)
    argv = {"--degree": "1", "--eps": "1e-6", "--N": "8,16"} | {flag: values}
    code = main([a for item in argv.items() for a in item])
    assert code == 2
    assert "without a repeated value" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    *(("--eps", eps, "eps must lie in (0, 1)") for eps in ("0", "-1", "1", "2", "nan", "inf")),
    *(("--degree", k, "polynomial degree must be >= 1") for k in ("0", "-1")),
])
def test_cli_rejects_bad_eps_or_degree(flag, value, message, capsys, monkeypatch):
    # rejected by the config, before any case runs, instead of failing every case
    def no_sweep(cfg):
        raise AssertionError("run_study called")

    monkeypatch.setattr("ldgrd.cli.run_study", no_sweep)
    argv = {"--degree": "1", "--eps": "1e-6", "--N": "8,16"} | {flag: value}
    code = main([f"{key}={val}" for key, val in argv.items()])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_rejects_unwritable_out_before_the_sweep(tmp_path, capsys, monkeypatch):
    # the output is opened first: a bad path must not cost a whole sweep
    def no_sweep(cfg):
        raise AssertionError("run_study called")

    monkeypatch.setattr("ldgrd.cli.run_study", no_sweep)
    code = main(["--degree", "1", "--eps", "1e-6", "--N", "8",
                 "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x.csv" in err


def test_cli_nonzero_exit_on_case_failure(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["--degree", "3", "--eps", "1e-2", "--N", "8",
                 "--problem", "layer1d", "--format", "csv", "--out", str(out)])
    assert code == 1
    assert "failed" in capsys.readouterr().err


def test_cli_problem_choices_are_the_shipped_problems(capsys):
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "problem"]
    assert list(action.choices) == list(PROBLEM_NAMES)
    for name in PROBLEM_NAMES:
        assert parser.parse_args(["--problem", name]).problem == name
    with pytest.raises(SystemExit):
        parser.parse_args(["--problem", "nosuch"])
    assert "invalid choice" in capsys.readouterr().err


def test_cli_table_to_stdout(capsys):
    code = main(["--degree", "1", "--eps", "1e-6", "--N", "8"])
    assert code == 0
    assert "k = 1" in capsys.readouterr().out


def test_balanced_rate_climbs_toward_optimal_order():
    cfg = StudyConfig(degrees=(1,), eps_list=(1e-8,),
                      n_list=(64, 128, 256, 512, 1024), problem="layer1d")
    records = run_study(cfg)
    rates = [r.rp_balanced for r in records if r.rp_balanced is not None]
    assert len(rates) == 4
    for prev, nxt in zip(rates, rates[1:]):
        assert nxt >= prev - 0.05
    assert rates[-1] <= 1.0 + 1 + 0.05  # approaches k+1 from below


def test_package_export_surface():
    import ldgrd

    # the package and every submodule: each name in its __all__ resolves
    modules = [ldgrd] + [importlib.import_module(f"ldgrd.{m.name}")
                         for m in pkgutil.iter_modules(ldgrd.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"
    assert ldgrd.__version__


def test_no_rates_on_roundoff_errors(tmp_path):
    # poly2d lies in the discrete space at k=2, so both errors are round-off
    # (about 1e-17) and their log-ratio is noise.
    out = tmp_path / "sweep.csv"
    code = main(["--dim", "2", "--degree", "2", "--N", "8,16", "--problem", "poly2d",
                 "--eps", "1e-6", "--flux", "classic", "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    for row in rows:
        assert float(row["err_energy"]) < ROUNDOFF_FLOOR
        assert float(row["err_balanced"]) < ROUNDOFF_FLOOR
        for name in ("rs_energy", "rp_energy", "rs_balanced", "rp_balanced"):
            assert row[name] == ""


def test_cli_runs_the_variable_b_2d_problem(tmp_path):
    # b = 2 + x(1-y) is not constant, so every solve runs PCG with an
    # inexact preconditioner; the errors still fall with N.
    out = tmp_path / "sweep.csv"
    code = main(["--dim", "2", "--degree", "1,2", "--N", "8,16,32", "--problem", "layer2d_varb",
                 "--eps", "1e-4,1e-8", "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 12
    assert {row["status"] for row in rows} == {"ok"}
    for coarse, fine in zip(rows, rows[1:]):
        if (coarse["k"], coarse["eps"]) == (fine["k"], fine["eps"]):
            assert float(fine["err_balanced"]) < float(coarse["err_balanced"])
