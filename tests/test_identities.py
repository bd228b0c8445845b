"""Tests for the identity catalog: every entry must verify exactly."""

import pytest

from cranktab import identities, verify
from cranktab.bivariate import kcrank_gf, overline_crank_gf
from cranktab.identities import CATALOG, CORE_ENTRIES, run_entry
from cranktab.series import Series, distinct_series, partition_series, qpoch_fin
from cranktab.tables import build_table, diff_column

ORDER = 120


@pytest.mark.parametrize("entry_id", sorted(CATALOG))
def test_catalog_entry_passes(entry_id):
    exceptions, checked = run_entry(CATALOG[entry_id], ORDER)
    assert exceptions == [], exceptions[:5]
    assert checked > 0


def test_core_entries_are_registered():
    assert len(CORE_ENTRIES) == 12
    assert set(CORE_ENTRIES) <= set(CATALOG)


def test_lemma_32_exception_values():
    lhs = Series.from_terms(60, {0: 1, 1: -1}).pow(2) * distinct_series(60)
    assert lhs[1] == -1
    assert lhs[4] == -1
    negatives = {n for n, c in enumerate(lhs.coeffs) if c < 0}
    assert negatives == {1, 4}


def test_lemma_33_leading_coefficient():
    lhs = CATALOG["lemma-3.3"].clauses(40)[0].lhs()
    assert lhs[0] == -1
    assert all(c >= 0 for c in lhs.coeffs[1:])


@pytest.mark.parametrize(
    "entry_id, factor",
    [("lemma-3.2", "distinct_series"), ("lemma-3.3", "distinct_series"),
     ("sc-identity", "qpoch_inf")],
)
def test_closed_form_left_side_is_built_once(entry_id, factor, monkeypatch):
    # the closed-form and sign-pattern clauses share one left side per run
    calls = []
    real = getattr(identities, factor)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, factor, counted)
    exceptions, _ = run_entry(CATALOG[entry_id], 60)
    assert exceptions == []
    assert len(calls) == 1


def test_andrews_merca_value_at_5():
    p = partition_series(10).coeffs
    assert p[5] - p[4] - p[3] + p[0] == 0  # 7 - 5 - 3 + 1


def test_andrews_merca_odd_stream_single_exception():
    stream = CATALOG["andrews-merca"].clauses(80)[1].lhs()
    assert stream[1] == -1
    assert all(c >= 0 for n, c in enumerate(stream.coeffs) if n != 1)


def test_crank_decomp_residuals_vanish_below_thresholds():
    # the explicit heads reproduce the difference columns exactly that far
    clauses = CATALOG["crank-diff-decomp"].clauses(ORDER)
    resid_m1 = clauses[0].lhs()
    resid_m2 = clauses[1].lhs()
    assert resid_m1.coeffs[:44] == [0] * 44
    assert resid_m2.coeffs[:27] == [0] * 27


def test_crank_tail_point_values():
    t = build_table("crank", 80, "gf")
    for m in (8, 20, 45):
        d = diff_column(t, m)
        assert d[m - 1] == 1
        assert d[m] == -1
        assert all(c == 0 for c in d.coeffs[: m - 1])


# coeffs_checked of every entry at orders 0, 5, 40 and 200.  What the catalog
# compares is part of its verdict: a change to these numbers must be made on
# purpose, never as a side effect of restructuring the clauses.
PINNED_ORDERS = (0, 5, 40, 200)
PINNED_COEFFS_CHECKED = {
    "andrews-merca": (1, 11, 81, 401),
    "crank-diff-decomp": (0, 0, 14, 331),
    "crank-diff-heads": (2, 12, 68, 71),
    "crank-diff-tails": (0, 0, 1312, 10653),
    "euler": (1, 6, 41, 201),
    "kcrank-reduction": (30, 180, 1230, 6030),
    "lemma-3.2": (2, 12, 82, 402),
    "lemma-3.3": (1, 11, 81, 401),
    "m2-from-ocrank": (10, 60, 410, 2010),
    "m2-head": (1, 6, 41, 201),
    "ocrank-diff-nonneg": (19, 114, 779, 3819),
    "ocrank-head": (1, 6, 41, 201),
    "ocrank-monotone-factored": (21, 126, 861, 4221),
    "sc-identity": (2, 12, 82, 402),
}


@pytest.mark.parametrize("entry_id", sorted(CATALOG))
def test_coeffs_checked_is_pinned(entry_id):
    counts = []
    for order in PINNED_ORDERS:
        exceptions, checked = run_entry(CATALOG[entry_id], order)
        assert exceptions == [], (order, exceptions[:5])
        counts.append(checked)
    assert tuple(counts) == PINNED_COEFFS_CHECKED[entry_id]


def _failing_cells(entry_id, gf, m, n, order):
    """Add 1 to cell (m, n) of a cached GF, run the entry, restore the cell.

    Returns the sorted (clause, n) pairs that failed.
    """
    column = gf.columns[m]
    column[n] += 1
    try:
        exceptions, _ = run_entry(CATALOG[entry_id], order)
    finally:
        column[n] -= 1
    return sorted({(e["clause"], e["n"]) for e in exceptions})


@pytest.mark.parametrize("k", [2, 3, 4], ids=lambda k: f"k={k}")
def test_corrupted_kcrank_cell_fails_only_its_clauses(k):
    # column 3 enters the differences of m = 3 and m = 4 of this k only
    failed = _failing_cells("kcrank-reduction", kcrank_gf(k, 40), 3, 20, 40)
    assert failed == [(f"k={k},m=3", 20), (f"k={k},m=4", 20)]


@pytest.mark.parametrize("m", [0, 7, 20], ids=lambda m: f"m={m}")
def test_corrupted_ocrank_cell_fails_only_its_clause(m):
    # (1-q) times the overline column moves the error to n = 20 and 21
    failed = _failing_cells("ocrank-monotone-factored", overline_crank_gf(40), m, 20, 40)
    assert failed == [(f"m={m}", 20), (f"m={m}", 21)]


def test_sign_clause_reports_missing_and_unexpected_negatives():
    # negatives below nonneg_from are not read; n = 9 is past the order
    clause = identities.Clause(
        "s",
        lambda: Series(5, [-7, -1, 0, 2, -3, 0]),
        nonneg_from=1,
        negative_at=frozenset({0, 1, 2, 9}),
    )
    exceptions, checked = identities.run_clause(clause)
    assert exceptions == [
        {"clause": "s", "n": 2, "lhs": 0, "rhs": 0},
        {"clause": "s", "n": 4, "lhs": -3, "rhs": 0},
    ]
    assert checked == 5


def test_check_identity_report_shape():
    report = verify.check_identity("euler", order=64)
    assert report.passed
    assert report.check_id == "euler"
    assert report.params == {"order": 64}
    assert report.runtime_ms >= 0
    assert report.coeffs_checked == 65  # one exact clause, q^0..q^64
    assert report.to_json_obj()["coeffs_checked"] == 65


def test_identity_without_clauses_checks_no_coefficients():
    # crank-diff-tails has no clause at order 5: it passes having compared nothing
    report = verify.check_identity("crank-diff-tails", order=5)
    assert report.passed and report.coeffs_checked == 0


def test_identity_failure_is_detected():
    # deliberately wrong expected head: the checker must flag the mismatch
    bad = identities.IdentityEntry(
        "bad",
        "wrong on purpose",
        lambda N: [
            identities.Clause("c", lambda: distinct_series(N), lambda: Series.constant(N))
        ],
    )
    exceptions, checked = run_entry(bad, 10)
    assert exceptions and exceptions[0]["n"] == 1
    assert checked == 11


# -- per-j reference for the closed-form right-hand sides ----------------------

# The builders carry each sum's q-Pochhammer prefix from one j to the next.
# The references below rebuild every summand from scratch with qpoch_fin,
# div_one_minus and dense products, O(N^3) in all; the running-prefix
# builders must return the identical Series.


def _poly(order, terms):
    return Series.from_terms(order, terms)


def _one_minus_q_squared_distinct_rhs(order: int) -> Series:
    """Closed form for (1-q)^2 (-q;q)_inf.

    1 - q + q^3 - q^4 + q^5 + q^9 + q^12
      + sum_{j>=6} q^(2j-1) (-q^3;q)_(j-6) (q^(j-3) + q^(j-2) + q^(2j-5)).
    """
    rhs = _poly(order, {0: 1, 1: -1, 3: 1, 4: -1, 5: 1, 9: 1, 12: 1})
    j = 6
    while 3 * j - 4 <= order:
        summand = qpoch_fin(3, 1, j - 6, order, sign=-1) * _poly(
            order, {j - 3: 1, j - 2: 1, 2 * j - 5: 1}
        )
        rhs = rhs + summand.times_monomial(1, 2 * j - 1)
        j += 1
    return rhs


def _div_odd_poch(s: Series, start: int, terms: int) -> Series:
    """Divide by (q^start; q^2)_terms, factor by factor."""
    for t in range(terms):
        s = s.div_one_minus(start + 2 * t)
    return s


def _quintic_distinct_rhs(order: int) -> Series:
    """Closed form for (1-q)(1-q^5)(-1+q^2+q^3+q^4-q^5)(-q;q)_inf.

    All structural terms have nonnegative coefficients except the leading -1.
    """
    rhs = _poly(order, {0: -1, 2: 1, 4: 1, 11: 1})
    rhs = rhs + _poly(order, {10: 1}).div_one_minus(3)
    rhs = rhs + _poly(order, {17: 1}).div_one_minus(3).div_one_minus(7)
    rhs = rhs + _poly(order, {16: 1}).div_one_minus(3).div_one_minus(7).div_one_minus(9)
    rhs = rhs + _poly(order, {13: 1, 20: 1}).div_one_minus(9)  # q^13 (1+q^7) / (1-q^9)
    j = 11
    while j + 4 <= order:
        term = _poly(order, {j + 4: 1}).div_one_minus(3)
        term = _div_odd_poch(term, 7, (j - 11) // 2)
        term = term.div_one_minus(j - 2).div_one_minus(j)
        rhs = rhs + term
        j += 2
    j = 11
    while 2 * j + 3 <= order:
        term = _poly(order, {2 * j + 3: 1}).div_one_minus(3)
        term = _div_odd_poch(term, 7, (j - 5) // 2)
        rhs = rhs + term
        j += 2
    return rhs


def _distinct_odd_rhs(order: int) -> Series:
    """Closed form for (1-q^4)(-q;q^2)_inf.

    1 + q + q^3 + sum_{j>=5 odd} q^j (-q;q^2)_((j-5)/2)
                               (q^(j-4) + q^(j-2) + q^(2j-6)).
    """
    rhs = _poly(order, {0: 1, 1: 1, 3: 1})
    j = 5
    while 2 * j - 4 <= order:
        summand = qpoch_fin(1, 2, (j - 5) // 2, order, sign=-1) * _poly(
            order, {j - 4: 1, j - 2: 1, 2 * j - 6: 1}
        )
        rhs = rhs + summand.times_monomial(1, j)
        j += 2
    return rhs


@pytest.mark.parametrize(
    "builder, reference",
    [
        (identities._one_minus_q_squared_distinct_rhs, _one_minus_q_squared_distinct_rhs),
        (identities._quintic_distinct_rhs, _quintic_distinct_rhs),
        (identities._distinct_odd_rhs, _distinct_odd_rhs),
    ],
    ids=["lemma-3.2", "lemma-3.3", "sc-identity"],
)
def test_closed_form_rhs_matches_per_j_reference(builder, reference):
    for order in [*range(151), 500]:
        assert builder(order) == reference(order), order
