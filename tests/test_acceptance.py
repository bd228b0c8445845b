"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison here is exact integer equality or an exact exception-set
match; the only tolerances are the stated runtime budgets.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

from cranktab import verify
from cranktab.bivariate import gf_rows, gf_table, table_label
from cranktab.brute import (
    first_residual_contributions,
    oracle_rows,
    overpartitions,
    second_residual_contributions,
)
from cranktab.identities import CATALOG, CRANK_DIFF_M1_HEAD, CRANK_DIFF_M2_HEAD
from cranktab.verify import check_identity, check_table_consistency, run_checks


def _report(criterion, detail, elapsed):
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.1f}s)")


def _step_keys(report):
    return sorted((e["m"], e["n"]) for e in report.exceptions)


def test_criterion_01_gf_oracle_equivalence():
    t0 = time.perf_counter()
    cases = [
        ("crank", 40, None),
        ("ocrank", 25, None),
        ("m2crank", 25, None),
        ("kcrank", 25, 2),
        ("kcrank", 25, 3),
        ("kcrank", 25, 4),
        ("rank", 40, None),
    ]
    for stat, n_max, k in cases:
        gf = gf_rows(stat, n_max, k)
        oracle = oracle_rows(stat, n_max, k)
        report = check_table_consistency(table_label(stat, k), gf, oracle)
        assert report.passed, (stat, report.exceptions[:5])
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120
    _report(1, "GF tables equal enumeration tables cell-for-cell", elapsed)


def test_criterion_02_first_residual_unimodality():
    t0 = time.perf_counter()
    (report,) = run_checks(["thm-1.4"], n_max=300)
    assert report.passed
    assert _step_keys(report) == [(1, 1), (1, 2)]
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30
    _report(2, "exception set exactly {(1,1),(1,2)} for n <= 300", elapsed)


def test_criterion_03_second_residual_unimodality():
    t0 = time.perf_counter()
    (report,) = run_checks(["thm-1.5"], n_max=300)
    assert report.passed and report.exceptions == []
    _report(3, "no exceptions for n <= 300", time.perf_counter() - t0)


def test_criterion_04_monotonicity_in_n():
    t0 = time.perf_counter()
    reports = run_checks(["thm-1.7"], n_max=300)
    by_id = {r.check_id: r for r in reports}
    for cid in ("thm-1.7a", "thm-1.7b"):
        assert by_id[cid].passed and by_id[cid].exceptions == [], cid
    # the one comparison against n = 0 that fails is documented, not hidden
    assert [(e["m"], e["n"]) for e in by_id["thm-1.7a"].informational] == [(0, 1)]
    assert by_id["thm-1.7b"].informational == []
    _report(4, "both monotonicity scans clean on rows 1..300", time.perf_counter() - t0)


def test_criterion_05_crank_sweeps():
    t0 = time.perf_counter()
    reports = run_checks(["thm-1.2", "thm-1.3"], n_max=300)
    for r in reports:
        assert r.passed and r.exceptions == [], r.check_id
    _report(5, "crank unimodality (n>=44) and monotonicity (n>=14) clean", time.perf_counter() - t0)


def test_criterion_06_rank_inequalities():
    t0 = time.perf_counter()
    reports = run_checks(["thm-1.1"], n_max=40)
    for r in reports:
        assert r.passed and r.exceptions == [], r.check_id
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60
    _report(6, "both rank inequalities hold with stated exclusions, n <= 40", elapsed)


def test_criterion_07_kcrank_unimodality():
    t0 = time.perf_counter()
    reports = run_checks(["conj-1.8"], n_max=200)
    assert [r.params["k"] for r in reports] == [2, 3, 4, 5, 6]
    exceptions = []
    for r in reports:
        assert r.passed, (r.check_id, r.exceptions[:3])
        exceptions += [(e["k"], e["m"], e["n"]) for e in r.exceptions]
    assert exceptions == [(2, 1, 1)]
    _report(7, "rows unimodal for k in 2..6, n <= 200, sole exception (k=2, n=1)", time.perf_counter() - t0)


def test_criterion_08_displayed_expansions():
    t0 = time.perf_counter()
    cols = gf_table("crank", 60)
    assert (cols[0] - cols[1]).coeffs[:44] == CRANK_DIFF_M1_HEAD
    assert (cols[1] - cols[2]).coeffs[:27] == CRANK_DIFF_M2_HEAD
    _report(8, "crank difference columns match displayed heads through q^43 / q^26", time.perf_counter() - t0)


def test_criterion_09_identity_catalog():
    t0 = time.perf_counter()
    for entry_id in CATALOG:
        report = check_identity(entry_id, order=200)
        assert report.passed, (entry_id, report.exceptions[:5])
    for entry_id in ("andrews-merca", "lemma-3.2", "lemma-3.3", "sc-identity"):
        report = check_identity(entry_id, order=1000)
        assert report.passed, (entry_id, report.exceptions[:5])
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60
    _report(
        9,
        f"all {len(CATALOG)} catalog entries pass at N=200 (partition inequality and closed forms at N=1000)",
        elapsed,
    )


def test_criterion_10_point_values():
    t0 = time.perf_counter()
    row = list(gf_rows("ocrank", 4))[4]
    assert row[4 + 0] == 2 and row[4 + 1] == 2
    assert len(list(overpartitions(4))) == 14

    example = (
        (9, True), (9, False), (7, False), (6, True), (5, False), (5, False),
        (4, True), (4, False), (3, False), (1, True), (1, False), (1, False),
    )
    assert first_residual_contributions(example) == ((4, 1),)
    assert second_residual_contributions(example) == ((2, 1),)

    first = ((7, True), (5, True), (2, True), (1, False))
    second = (
        (10, True), (9, False), (9, False), (7, True), (7, False), (6, True),
        (5, False), (3, False), (3, False), (2, True), (2, False),
    )
    for op, contrib in ((first, first_residual_contributions),
                        (second, second_residual_contributions)):
        assert dict(contrib(op)) == {0: -1, -1: 1, 1: 1}
    _report(10, "worked point values and contribution conventions reproduced", time.perf_counter() - t0)
