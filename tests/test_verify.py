"""Tests for the verification sweeps and report machinery."""

import json
import operator
import time
import types
from itertools import compress, count

import pytest

from cranktab import UsageError, bivariate, identities, series, verify
from cranktab.bivariate import gf_rows, gf_table
from cranktab.brute import oracle_rows
from cranktab.verify import SWEEPS, check_table_consistency, run_checks, run_sweep

THM_14 = SWEEPS["thm-1.4"][0]


def _keys(entries):
    return [(e["m"], e["n"]) for e in entries]


def test_thm_14_exceptions_at_small_scale():
    report = run_sweep(THM_14, 60)
    assert report.passed
    assert _keys(report.exceptions) == [(1, 1), (1, 2)]
    assert report.exceptions[0]["lhs"] == 0 and report.exceptions[0]["rhs"] == 1


def test_thm_14_fails_without_declared_exceptions():
    report = run_sweep(THM_14._replace(expected=frozenset()), 60)
    assert not report.passed


def test_expected_set_is_range_filtered():
    report = run_sweep(THM_14, 1)
    assert report.passed  # (1,2) lies outside the scanned range
    assert _keys(report.exceptions) == [(1, 1)]


def test_thm_15_no_exceptions():
    (sweep,) = SWEEPS["thm-1.5"]
    report = run_sweep(sweep, 60)
    assert report.passed and report.exceptions == []


def test_thm_17_monotone_with_informational_edge():
    by_id = {r.check_id: r for r in run_checks(["thm-1.7"], n_max=60)}
    assert by_id["thm-1.7a"].passed
    assert by_id["thm-1.7b"].passed
    # the single comparison against n=0 fails at m=0 for the first residual
    # crank and is reported informationally, not as an exception
    assert _keys(by_id["thm-1.7a"].informational) == [(0, 1)]
    assert by_id["thm-1.7b"].informational == []


def test_jz_sweeps_at_reduced_scale():
    for r in run_checks(["thm-1.2", "thm-1.3"], n_max=80):
        assert r.passed, r.exceptions[:3]
        assert r.informational  # sub-threshold violations exist and are reported


def test_rank_inequalities():
    reports = run_checks(["thm-1.1"], n_max=20)
    assert all(r.passed for r in reports)
    monotone = next(r for r in reports if r.check_id == "thm-1.1b")
    # the excluded diagonal n = m + 2 really does violate monotonicity
    noted = [e for e in monotone.informational if e.get("note")]
    assert noted and all(e["n"] == e["m"] + 2 for e in noted)
    assert all(e["note"] == "excluded diagonal n=m+2" for e in noted)


def test_conj_18_exception_set():
    reports = run_checks(["conj-1.8"], n_max=40)
    by_id = {r.check_id: r for r in reports}
    assert by_id["conj-1.8[k=2]"].passed
    assert [(e["k"], e["m"], e["n"]) for e in by_id["conj-1.8[k=2]"].exceptions] == [
        (2, 1, 1)
    ]
    assert by_id["conj-1.8[k=3]"].passed
    assert by_id["conj-1.8[k=3]"].exceptions == []


def test_monotone_check_directly():
    (sweep,) = SWEEPS["thm-1.3"]
    report = run_sweep(sweep, 40)
    assert report.passed and report.exceptions == []


# Reports of every sweep at three scan ceilings, recorded from the per-theorem
# runners that the Sweep registry replaced: (check_id, params, verdict,
# exception keys, informational keys), keys being (k, m, n) in report order.
SWEEP_PINS = {
    ("thm-1.1", 0): [
        ("thm-1.1a", {"n_max": 0, "relation": "step-by-2"}, "pass", [], []),
        ("thm-1.1b", {"n_max": 0, "relation": "monotone"}, "pass", [], []),
    ],
    ("thm-1.2", 0): [
        ("thm-1.2", {"n_max": 0, "scan_from": 44}, "pass", [], []),
    ],
    ("thm-1.3", 0): [
        ("thm-1.3", {"n_max": 0, "scan_from": 14}, "pass", [], []),
    ],
    ("thm-1.4", 0): [
        ("thm-1.4", {"n_max": 0}, "pass", [], []),
    ],
    ("thm-1.5", 0): [
        ("thm-1.5", {"n_max": 0}, "pass", [], []),
    ],
    ("thm-1.7", 0): [
        ("thm-1.7a", {"statistic": "ocrank", "n_max": 0, "scan_from": 2}, "pass",
         [],
         [],
        ),
        ("thm-1.7b", {"statistic": "m2crank", "n_max": 0, "scan_from": 2}, "pass",
         [],
         [],
        ),
    ],
    ("conj-1.8", 0): [
        ("conj-1.8[k=2]", {"k": 2, "n_max": 0}, "pass", [], []),
        ("conj-1.8[k=3]", {"k": 3, "n_max": 0}, "pass", [], []),
        ("conj-1.8[k=4]", {"k": 4, "n_max": 0}, "pass", [], []),
        ("conj-1.8[k=5]", {"k": 5, "n_max": 0}, "pass", [], []),
        ("conj-1.8[k=6]", {"k": 6, "n_max": 0}, "pass", [], []),
    ],
    ("thm-1.1", 13): [
        ("thm-1.1a", {"n_max": 13, "relation": "step-by-2"}, "pass", [], []),
        ("thm-1.1b", {"n_max": 13, "relation": "monotone"}, "pass",
         [],
         [(None, 0, 2), (None, 1, 3), (None, 2, 4), (None, 3, 5), (None, 4, 6),
          (None, 1, 7), (None, 5, 7), (None, 0, 8), (None, 6, 8), (None, 7, 9),
          (None, 8, 10), (None, 3, 11), (None, 9, 11), (None, 10, 12), (None, 11, 13)],
        ),
    ],
    ("thm-1.2", 13): [
        ("thm-1.2", {"n_max": 13, "scan_from": 44}, "pass",
         [],
         [(None, 2, 4), (None, 3, 5), (None, 1, 7), (None, 4, 8), (None, 1, 9),
          (None, 3, 9), (None, 5, 9), (None, 2, 10), (None, 4, 10), (None, 1, 11),
          (None, 2, 12), (None, 6, 12), (None, 1, 13), (None, 5, 13), (None, 7, 13)],
        ),
    ],
    ("thm-1.3", 13): [
        ("thm-1.3", {"n_max": 13, "scan_from": 14}, "pass",
         [],
         [(None, 2, 5), (None, 4, 9), (None, 3, 10), (None, 6, 13)],
        ),
    ],
    ("thm-1.4", 13): [
        ("thm-1.4", {"n_max": 13}, "pass", [(None, 1, 1), (None, 1, 2)], []),
    ],
    ("thm-1.5", 13): [
        ("thm-1.5", {"n_max": 13}, "pass", [], []),
    ],
    ("thm-1.7", 13): [
        ("thm-1.7a", {"statistic": "ocrank", "n_max": 13, "scan_from": 2}, "pass",
         [],
         [(None, 0, 1)],
        ),
        ("thm-1.7b", {"statistic": "m2crank", "n_max": 13, "scan_from": 2}, "pass",
         [],
         [],
        ),
    ],
    ("conj-1.8", 13): [
        ("conj-1.8[k=2]", {"k": 2, "n_max": 13}, "pass", [(2, 1, 1)], []),
        ("conj-1.8[k=3]", {"k": 3, "n_max": 13}, "pass", [], []),
        ("conj-1.8[k=4]", {"k": 4, "n_max": 13}, "pass", [], []),
        ("conj-1.8[k=5]", {"k": 5, "n_max": 13}, "pass", [], []),
        ("conj-1.8[k=6]", {"k": 6, "n_max": 13}, "pass", [], []),
    ],
    ("thm-1.1", 60): [
        ("thm-1.1a", {"n_max": 60, "relation": "step-by-2"}, "pass", [], []),
        ("thm-1.1b", {"n_max": 60, "relation": "monotone"}, "pass",
         [],
         [(None, 0, 2), (None, 1, 3), (None, 2, 4), (None, 3, 5), (None, 4, 6),
          (None, 1, 7), (None, 5, 7), (None, 0, 8), (None, 6, 8), (None, 7, 9),
          (None, 8, 10), (None, 3, 11), (None, 9, 11), (None, 10, 12), (None, 11, 13),
          (None, 12, 14), (None, 13, 15), (None, 14, 16), (None, 15, 17),
          (None, 16, 18), (None, 17, 19), (None, 18, 20), (None, 19, 21),
          (None, 20, 22), (None, 21, 23), (None, 22, 24), (None, 23, 25),
          (None, 24, 26), (None, 25, 27), (None, 26, 28), (None, 27, 29),
          (None, 28, 30), (None, 29, 31), (None, 30, 32), (None, 31, 33),
          (None, 32, 34), (None, 33, 35), (None, 34, 36), (None, 35, 37),
          (None, 36, 38), (None, 37, 39), (None, 38, 40), (None, 39, 41),
          (None, 40, 42), (None, 41, 43), (None, 42, 44), (None, 43, 45),
          (None, 44, 46), (None, 45, 47), (None, 46, 48), (None, 47, 49),
          (None, 48, 50), (None, 49, 51), (None, 50, 52), (None, 51, 53),
          (None, 52, 54), (None, 53, 55), (None, 54, 56), (None, 55, 57),
          (None, 56, 58), (None, 57, 59), (None, 58, 60)],
        ),
    ],
    ("thm-1.2", 60): [
        ("thm-1.2", {"n_max": 60, "scan_from": 44}, "pass",
         [],
         [(None, 2, 4), (None, 3, 5), (None, 1, 7), (None, 4, 8), (None, 1, 9),
          (None, 3, 9), (None, 5, 9), (None, 2, 10), (None, 4, 10), (None, 1, 11),
          (None, 2, 12), (None, 6, 12), (None, 1, 13), (None, 5, 13), (None, 7, 13),
          (None, 2, 14), (None, 1, 15), (None, 3, 15), (None, 2, 16), (None, 4, 16),
          (None, 1, 17), (None, 3, 17), (None, 2, 18), (None, 1, 19), (None, 2, 20),
          (None, 1, 21), (None, 3, 21), (None, 2, 22), (None, 1, 23), (None, 2, 24),
          (None, 1, 25), (None, 2, 26), (None, 1, 27), (None, 1, 29), (None, 1, 31),
          (None, 1, 33), (None, 1, 35), (None, 1, 37), (None, 1, 39), (None, 1, 41),
          (None, 1, 43)],
        ),
    ],
    ("thm-1.3", 60): [
        ("thm-1.3", {"n_max": 60, "scan_from": 14}, "pass",
         [],
         [(None, 2, 5), (None, 4, 9), (None, 3, 10), (None, 6, 13)],
        ),
    ],
    ("thm-1.4", 60): [
        ("thm-1.4", {"n_max": 60}, "pass", [(None, 1, 1), (None, 1, 2)], []),
    ],
    ("thm-1.5", 60): [
        ("thm-1.5", {"n_max": 60}, "pass", [], []),
    ],
    ("thm-1.7", 60): [
        ("thm-1.7a", {"statistic": "ocrank", "n_max": 60, "scan_from": 2}, "pass",
         [],
         [(None, 0, 1)],
        ),
        ("thm-1.7b", {"statistic": "m2crank", "n_max": 60, "scan_from": 2}, "pass",
         [],
         [],
        ),
    ],
    ("conj-1.8", 60): [
        ("conj-1.8[k=2]", {"k": 2, "n_max": 60}, "pass", [(2, 1, 1)], []),
        ("conj-1.8[k=3]", {"k": 3, "n_max": 60}, "pass", [], []),
        ("conj-1.8[k=4]", {"k": 4, "n_max": 60}, "pass", [], []),
        ("conj-1.8[k=5]", {"k": 5, "n_max": 60}, "pass", [], []),
        ("conj-1.8[k=6]", {"k": 6, "n_max": 60}, "pass", [], []),
    ],
}


@pytest.mark.parametrize("n_max", [0, 13, 60])
def test_sweep_reports_are_pinned(n_max):
    assert {cid for cid, n in SWEEP_PINS if n == n_max} == set(SWEEPS)
    for cid in SWEEPS:
        got = [
            (
                r.check_id,
                r.params,
                r.verdict,
                [(e.get("k"), e["m"], e["n"]) for e in r.exceptions],
                [(e.get("k"), e["m"], e["n"]) for e in r.informational],
            )
            for r in run_checks([cid], n_max=n_max)
        ]
        assert got == SWEEP_PINS[cid, n_max], cid


def test_rank_sweeps_run_at_the_requested_n_max():
    # above the enumeration ceiling of 60: the rank table comes from its GF
    reports = run_checks(["thm-1.1"], n_max=100)
    assert [r.params["n_max"] for r in reports] == [100, 100]
    assert all(r.passed and r.exceptions == [] for r in reports)


def test_sweeps_count_the_cells_they_check():
    # thm-1.2 starts at n = 44: below it nothing is counted, only reported
    (report,) = run_checks(["thm-1.2"], n_max=10)
    assert report.passed and report.cells_checked == 0 and report.informational
    # thm-1.4 compares m = 1..n in rows 0..3: 0 + 1 + 2 + 3 cells
    assert run_sweep(THM_14, 3).cells_checked == 6
    # thm-1.1b counts rows 12 and 13 (13 + 14 cells) less the diagonal n = m + 2
    by_id = {r.check_id: r for r in run_checks(["thm-1.1"], n_max=13)}
    assert by_id["thm-1.1b"].cells_checked == 25
    # thm-1.7 compares rows from n = 2 on; the n = 1 comparison is informational
    assert run_sweep(SWEEPS["thm-1.7"][0], 2).cells_checked == 3


# -- per-cell reference --------------------------------------------------------
#
# The row-by-row scan that the column-slice scan of run_sweep replaced: one
# count() call per compared cell, violations collected in (n, m) order.


def _per_cell_sweep(sweep, n_max, base=None):
    k = sweep.k
    columns = [col.coeffs for col in gf_table(sweep.statistic, n_max, k, base=base)]

    def count(m, n):  # M(m, n), zero outside |m| <= n
        return columns[abs(m)][n] if abs(m) <= n else 0

    stride, diagonal = sweep.stride, sweep.exclude_diagonal
    dn = 0 if stride else 1
    found, informational, cells = [], [], 0
    for n in range(dn, n_max + 1):
        counted = n >= sweep.scan_from
        skip_m = n - diagonal if counted and diagonal is not None else None
        row = range(stride, n + 1 - sweep.m_cut)
        if counted:
            cells += len(row) - (skip_m is not None and skip_m in row)
        for m in row:
            lhs, rhs = count(m - stride, n), count(m, n - dn)
            if lhs >= rhs:
                continue
            entry = {"m": m, "n": n, "lhs": lhs, "rhs": rhs}
            if k is not None:
                entry["k"] = k
            if m == skip_m:
                informational.append(dict(entry, note=f"excluded diagonal n=m+{diagonal}"))
            else:
                (found if counted else informational).append(entry)
    expected = {(m, n) for m, n in sweep.expected if sweep.scan_from <= n <= n_max}
    passed = {(e["m"], e["n"]) for e in found} == expected
    return passed, found, informational, cells


# Every registered sweep, and conj-1.8 at k = 7, past the registered k: the
# k = 6 row carries the exception set of every k >= 3 (none)
_ALL_SWEEPS = [*(s for sweeps in SWEEPS.values() for s in sweeps),
               SWEEPS["conj-1.8"][-1]._replace(k=7)]


# 43 and 44 bracket thm-1.2's scan_from; at 200 (d = 1) and 201 (the m2crank,
# d = 2) a column's stable rows end at R = n_max + 1, so it has no row left
_SIZES = [0, 1, 2, 13, 14, 43, 44, 45, 150, 200, 201]


@pytest.mark.parametrize("n_max", _SIZES)
def test_column_scan_matches_per_cell_reference(n_max):
    for sweep in _ALL_SWEEPS:
        r = run_sweep(sweep, n_max)
        got = (r.passed, r.exceptions, r.informational, r.cells_checked)
        assert got == _per_cell_sweep(sweep, n_max), (sweep.check_id, sweep.k)


# -- the stable rows ------------------------------------------------------------
#
# Below the j = 2 term of its closed form, column m of a GF of form (d, a) is
# one shifted series, which the column passes read as one series U per sweep.


@pytest.mark.parametrize("statistic, k", [("crank", None), ("ocrank", None), ("m2crank", None),
                                          ("kcrank", 2), ("kcrank", 3), ("rank", None)])
def test_low_rows_of_each_column_are_one_shifted_series(statistic, k):
    # rows n < d(2m + 2a - 1) of column m are q**(d(m + c)) * V, V = (1 - q**d) * base
    order = 300
    d, a = bivariate._FORMS[statistic]
    base = bivariate.gf_base(statistic, order, k).coeffs
    v = [b - (base[t - d] if t >= d else 0) for t, b in enumerate(base)]
    for m, column in enumerate(gf_table(statistic, order, k)):
        if statistic == "rank" and m == 0:
            continue  # column 0 adds the empty partition at n = 0
        end = d * (2 * m + 2 * a - 1)
        shifted = [0] * (d * (m + (a - 1) // 2)) + v
        assert column.coeffs[:end] == shifted[: min(end, order + 1)], m
        if end <= order:  # the j = 2 term enters at row end
            assert column.coeffs[end] != shifted[end], m


@pytest.mark.parametrize("sweep", _ALL_SWEEPS, ids=lambda s: f"{s.check_id}-{s.k}")
def test_stable_rows_fail_on_a_corrupted_base(sweep):
    # lowering base[9] makes U negative at t = 9, inside the stable rows of
    # every sweep at n_max = 60: the pass must find what the per-cell
    # reference finds on the columns of that same base
    n_max = 60
    coeffs = bivariate.gf_base(sweep.statistic, n_max, sweep.k).coeffs
    coeffs[9] -= 10**6
    bad = series.Series(n_max, coeffs)
    scan = verify._Scan(sweep, n_max)
    verify._column_pass(sweep.statistic, sweep.k, n_max, [scan],
                        types.SimpleNamespace(base=lambda statistic, k, size: bad))
    r = scan.report()
    got = (r.passed, r.exceptions, r.informational, r.cells_checked)
    assert got == _per_cell_sweep(sweep, n_max, base=bad)
    # some of the violations lie in the rows that U decides, past column 0
    d, a = bivariate._FORMS[sweep.statistic]
    assert any(sweep.stride < e["m"] and e["n"] < d * (2 * (e["m"] - sweep.stride) + 2 * a - 1)
               for e in r.exceptions + r.informational)


# -- full-table reference ------------------------------------------------------
#
# run_sweep as it was before the sweeps streamed: it builds the whole table of
# the sweep's statistic at n_max and compares its column slices.  The streamed
# sweeps of run_checks must give the same reports, runtime_ms aside.


def _full_table_sweep(sweep, n_max):
    k = sweep.k
    cols = gf_table(sweep.statistic, n_max, k)
    t0 = time.perf_counter()
    stride, diagonal = sweep.stride, sweep.exclude_diagonal
    dn = 0 if stride else 1
    found, informational, cells = [], [], 0
    for m in range(stride, n_max + 1 - sweep.m_cut):
        lo = max(m + sweep.m_cut, dn)
        first_counted = max(lo, sweep.scan_from)
        cells += max(0, n_max + 1 - first_counted)
        if diagonal is not None and first_counted <= m + diagonal <= n_max:
            cells -= 1
        lhs_col, rhs_col = cols[m - stride].coeffs, cols[m].coeffs
        for n in compress(count(lo), map(operator.lt, lhs_col[lo:], rhs_col[lo - dn :])):
            entry = {"m": m, "n": n, "lhs": lhs_col[n], "rhs": rhs_col[n - dn]}
            if k is not None:
                entry["k"] = k
            if n < sweep.scan_from:
                informational.append(entry)
            elif diagonal is not None and n == m + diagonal:
                informational.append(dict(entry, note=f"excluded diagonal n=m+{diagonal}"))
            else:
                found.append(entry)
    found.sort(key=verify._BY_CELL)
    informational.sort(key=verify._BY_CELL)
    expected = {(m, n) for m, n in sweep.expected if sweep.scan_from <= n <= n_max}
    values = {"statistic": sweep.statistic, "k": k, "n_max": n_max,
              "scan_from": sweep.scan_from, "relation": verify.RELATIONS[stride]}
    return verify.CheckReport(
        sweep.check_id if k is None else f"{sweep.check_id}[k={k}]",
        {name: values[name] for name in sweep.params},
        passed={(e["m"], e["n"]) for e in found} == expected,
        exceptions=found,
        informational=informational,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        cells_checked=cells,
    )


def _payload(report):
    obj = report.to_json_obj()
    del obj["runtime_ms"]
    return json.dumps(obj)


# Catalog entries that read the crank and ocrank columns: with them in the
# run, those passes run at the catalog's order, above the sweeps' n_max.
_COLUMN_READERS = ["crank-diff-heads", "ocrank-monotone-factored"]


@pytest.mark.parametrize("n_max", _SIZES)
def test_streamed_sweeps_match_full_table_reference(n_max):
    reference = {r.check_id: _payload(r)
                 for r in (_full_table_sweep(sweep, n_max) for sweep in _ALL_SWEEPS)}
    alone = {r.check_id: _payload(r) for r in (run_sweep(sweep, n_max) for sweep in _ALL_SWEEPS)}
    assert alone == reference
    del reference["conj-1.8[k=7]"]  # run_checks sweeps the registered k only
    for order in (n_max, n_max + 17):
        reports = run_checks([*SWEEPS, *_COLUMN_READERS], n_max=n_max, order=order)
        streamed = {r.check_id: _payload(r) for r in reports if r.check_id in reference}
        assert streamed == reference, order
        assert all(r.passed for r in reports if r.check_id in _COLUMN_READERS), order


def test_run_checks_builds_each_gf_once(monkeypatch):
    # one pass per (statistic, k) of the sweeps, at n_max, and one low-column
    # pass per GF the catalog reads, at its order from that GF's column bound.
    # A sweep pass starts at the last column m with a row past the j = 2 term,
    # d(2(m - stride) + 2a - 1) <= n_max: 15 for d = a = 1 (stride 1), 8 for
    # the m2crank (d = 2) and 14 for the rank (a = 3, stride 2)
    passes = []
    real = bivariate.gf_columns

    def counted(statistic, order, k=None, top=None, base=None):
        passes.append((statistic, k, order, top))
        return real(statistic, order, k, top, base)

    monkeypatch.setattr(bivariate, "gf_columns", counted)
    reports = run_checks(["all"], n_max=30, order=40)
    assert len(reports) == 27 and all(r.passed for r in reports)
    assert len(passes) == 11
    assert set(passes) == {
        *((statistic, k, 30, top) for statistic, k, top in (
            ("crank", None, 15), ("ocrank", None, 15), ("m2crank", None, 8), ("rank", None, 14),
            *(("kcrank", k, 15) for k in (2, 3, 4, 5, 6)))),
        ("crank", None, 40, 60), ("ocrank", None, 40, 20),
    }


def test_run_checks_builds_each_base_once(monkeypatch):
    # one store per run: each distinct base (1/(q;q)^k for k = 1..6 and the
    # overpartition series, which ocrank and m2crank share) is built once at
    # the defaults, at the largest size that reads it: 300 for k = 1 (the
    # crank; the rank pass at 40 reads its prefix) and the overpartition
    # series, 200 for k = 2..6.  The catalog, at order 200, reads prefixes.
    builds, bases = [], []
    real_build, real_columns = series.sparse_reciprocal, bivariate.gf_columns

    def counted(order, terms, power=1):
        builds.append((order, power))
        return real_build(order, terms, power)

    def kept(statistic, order, k=None, top=None, base=None):
        bases.append((statistic, k, order, base.coeffs))
        return real_columns(statistic, order, k, top, base)

    monkeypatch.setattr(series, "sparse_reciprocal", counted)
    monkeypatch.setattr(bivariate, "gf_columns", kept)
    reports = run_checks(["all"])
    assert len(reports) == 27 and all(r.passed for r in reports)
    assert sorted(builds) == [*((200, power) for power in (2, 3, 4, 5, 6)), (300, 1), (300, 1)]
    # a pass at a smaller size reads the prefix of the stored base: the
    # same cells as a base built at its own size
    assert len(bases) == 11
    for statistic, k, order, coeffs in bases:
        assert coeffs == bivariate.gf_base(statistic, order, k).coeffs, (statistic, k, order)
    # an order past n_max builds each base that the catalog reads again, at the order
    builds.clear()
    assert all(r.passed for r in run_checks(["all"], n_max=30, order=40))
    assert sorted(builds) == [*((30, power) for power in (1, 1, 2, 3, 4, 5, 6)),
                              *((40, power) for power in (1, 1, 2, 3, 4))]


def test_table_consistency_pass_and_fail():
    gf = list(gf_rows("crank", 10))
    oracle = list(oracle_rows("crank", 10))
    report = check_table_consistency("crank", iter(gf), iter(oracle))
    assert report.passed
    assert (report.check_id, report.params, report.cells_checked) == (
        "crosscheck-crank", {"n_max": 10}, 11 * 12 // 2)

    broken = [list(row) for row in oracle]
    broken[6][6 + 0] += 1
    broken[5][5 + 3] += 1
    broken[5][5 - 3] += 1
    report = check_table_consistency("crank", gf, broken)
    assert not report.passed
    assert report.exceptions[0] == {"m": 3, "n": 5, "lhs": gf[5][8], "rhs": gf[5][8] + 1}
    assert _keys(report.exceptions) == [(3, 5), (0, 6)]  # by row, then by m

    with pytest.raises(ValueError):  # streams of different lengths
        check_table_consistency("crank", gf, oracle_rows("crank", 9))


def test_run_checks_interface():
    reports = run_checks(["thm-1.4", "euler"], n_max=40, order=50)
    assert [r.check_id for r in reports] == ["euler", "thm-1.4"]
    assert all(r.passed for r in reports)
    with pytest.raises(UsageError, match="^unknown check id 'nope'; available: "):
        run_checks(["nope"])


def test_reports_deterministic_modulo_runtime():
    a = run_checks(["thm-1.4"], n_max=50)
    b = run_checks(["thm-1.4"], n_max=50)
    sig = lambda rs: [(r.check_id, r.params, r.passed, r.exceptions, r.informational) for r in rs]
    assert sig(a) == sig(b)


def test_exit_code_contract():
    good = verify.CheckReport("x", {}, True, [])
    bad = verify.CheckReport("y", {}, False, [{"m": 0, "n": 1, "lhs": 0, "rhs": 1}])
    assert identities.exit_code([good]) == 0
    assert identities.exit_code([good, bad]) == 1


def test_report_json_serialization():
    report = verify.CheckReport(
        "x", {"n_max": 3}, False,
        [{"m": 1, "n": 2, "lhs": 10**30, "rhs": 0}],
        informational=[{"m": 0, "n": 1, "lhs": -1, "rhs": 0}],
        runtime_ms=1.234,
        cells_checked=7,
    )
    obj = report.to_json_obj()
    assert obj["verdict"] == "fail"
    assert obj["exceptions"][0]["lhs"] == str(10**30)
    assert obj["informational"][0]["lhs"] == "-1"
    assert obj["cells_checked"] == 7 and "coeffs_checked" not in obj


def test_available_checks_lists_everything():
    ids = verify.available_checks()
    assert "thm-1.4" in ids and "conj-1.8" in ids and "euler" in ids
