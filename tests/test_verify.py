"""Tests for the verification sweeps and report machinery."""

import pytest

from cranktab import verify
from cranktab.tables import CrankTable, build_table
from cranktab.verify import (
    check_monotone_n,
    check_rank_inequalities,
    check_table_consistency,
    check_unimodal_step,
    run_checks,
)


def _keys(entries):
    return [(e["m"], e["n"]) for e in entries]


def test_thm_14_exceptions_at_small_scale():
    table = build_table("ocrank", 60, "gf")
    report = check_unimodal_step(
        table, (0, 60), lambda n: range(1, n + 1), expected=((1, 1), (1, 2))
    )
    assert report.passed
    assert _keys(report.exceptions) == [(1, 1), (1, 2)]
    assert report.exceptions[0]["lhs"] == 0 and report.exceptions[0]["rhs"] == 1


def test_thm_14_fails_without_declared_exceptions():
    table = build_table("ocrank", 60, "gf")
    report = check_unimodal_step(table, (0, 60), lambda n: range(1, n + 1))
    assert not report.passed


def test_expected_set_is_range_filtered():
    table = build_table("ocrank", 1, "gf")
    report = check_unimodal_step(
        table, (0, 1), lambda n: range(1, n + 1), expected=((1, 1), (1, 2))
    )
    assert report.passed  # (1,2) lies outside the scanned range
    assert _keys(report.exceptions) == [(1, 1)]


def test_thm_15_no_exceptions():
    table = build_table("m2crank", 60, "gf")
    report = check_unimodal_step(table, (0, 60), lambda n: range(1, n + 1))
    assert report.passed and report.exceptions == []


def test_thm_17_monotone_with_informational_edge():
    reports = verify._run_thm_17({"n_max": 60})
    by_id = {r.check_id: r for r in reports}
    assert by_id["thm-1.7a"].passed
    assert by_id["thm-1.7b"].passed
    # the single comparison against n=0 fails at m=0 for the first residual
    # crank and is reported informationally, not as an exception
    assert _keys(by_id["thm-1.7a"].informational) == [(0, 1)]
    assert by_id["thm-1.7b"].informational == []


def test_jz_sweeps_at_reduced_scale():
    reports = verify._run_thm_12({"n_max": 80}) + verify._run_thm_13({"n_max": 80})
    for r in reports:
        assert r.passed, r.exceptions[:3]
        assert r.informational  # sub-threshold violations exist and are reported


def test_rank_inequalities():
    reports = check_rank_inequalities(20)
    assert all(r.passed for r in reports)
    monotone = next(r for r in reports if r.check_id == "thm-1.1b")
    # the excluded diagonal n = m + 2 really does violate monotonicity
    assert any(e.get("note") for e in monotone.informational)


def test_conj_18_exception_set():
    reports = verify._run_conj_18({"n_max": 40, "k_list": (2, 3)})
    by_id = {r.check_id: r for r in reports}
    assert by_id["conj-1.8[k=2]"].passed
    assert [(e["k"], e["m"], e["n"]) for e in by_id["conj-1.8[k=2]"].exceptions] == [
        (2, 1, 1)
    ]
    assert by_id["conj-1.8[k=3]"].passed
    assert by_id["conj-1.8[k=3]"].exceptions == []


def test_monotone_check_directly():
    table = build_table("crank", 40, "gf")
    report = check_monotone_n(table, (14, 40), lambda n: range(0, n - 1))
    assert report.passed


def test_table_consistency_pass_and_fail():
    gf = build_table("crank", 10, "gf")
    oracle = build_table("crank", 10, "oracle")
    assert check_table_consistency(gf, oracle).passed

    broken_half = [list(r) for r in oracle._half]
    broken_half[5][0] += 1
    broken = CrankTable("crank", 10, "oracle", broken_half)
    report = check_table_consistency(gf, broken)
    assert not report.passed
    assert report.exceptions[0]["n"] == 5

    with pytest.raises(ValueError):
        check_table_consistency(gf, build_table("ocrank", 10, "gf"))


def test_run_checks_interface():
    reports = run_checks(["thm-1.4", "euler"], n_max=40, order=50)
    assert [r.check_id for r in reports] == ["euler", "thm-1.4"]
    assert all(r.passed for r in reports)
    with pytest.raises(KeyError):
        run_checks(["nope"])


def test_reports_deterministic_modulo_runtime():
    a = run_checks(["thm-1.4"], n_max=50)
    b = run_checks(["thm-1.4"], n_max=50)
    sig = lambda rs: [(r.check_id, r.params, r.passed, r.exceptions, r.informational) for r in rs]
    assert sig(a) == sig(b)


def test_exit_code_contract():
    good = verify.CheckReport("x", {}, True, [])
    bad = verify.CheckReport("y", {}, False, [{"m": 0, "n": 1, "lhs": 0, "rhs": 1}])
    assert verify.exit_code([good]) == 0
    assert verify.exit_code([good, bad]) == 1


def test_report_json_serialization():
    report = verify.CheckReport(
        "x", {"n_max": 3}, False,
        [{"m": 1, "n": 2, "lhs": 10**30, "rhs": 0}],
        informational=[{"m": 0, "n": 1, "lhs": -1, "rhs": 0}],
        runtime_ms=1.234,
    )
    obj = report.to_json_obj()
    assert obj["verdict"] == "fail"
    assert obj["exceptions"][0]["lhs"] == str(10**30)
    assert obj["informational"][0]["lhs"] == "-1"


def test_available_checks_lists_everything():
    ids = verify.available_checks()
    assert "thm-1.4" in ids and "conj-1.8" in ids and "euler" in ids
