"""Tests for the identity catalog: every entry must verify exactly."""

import pytest

from cranktab import identities, verify
from cranktab.identities import CATALOG, CORE_ENTRIES, run_entry
from cranktab.series import Series, distinct_series, partition_series
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
    clause = CATALOG["lemma-3.3"].clauses(40)[0]
    lhs = clause.build_lhs(40)
    assert lhs[0] == -1
    assert all(c >= 0 for c in lhs.coeffs[1:])


def test_andrews_merca_value_at_5():
    p = partition_series(10).coeffs
    assert p[5] - p[4] - p[3] + p[0] == 0  # 7 - 5 - 3 + 1


def test_andrews_merca_odd_stream_single_exception():
    clause = CATALOG["andrews-merca"].clauses(80)[1]
    stream = clause.build_lhs(80)
    assert stream[1] == -1
    assert all(c >= 0 for n, c in enumerate(stream.coeffs) if n != 1)


def test_crank_decomp_residuals_vanish_below_thresholds():
    # the explicit heads reproduce the difference columns exactly that far
    clauses = CATALOG["crank-diff-decomp"].clauses(ORDER)
    resid_m1 = clauses[0].build_lhs(ORDER)
    resid_m2 = clauses[1].build_lhs(ORDER)
    assert resid_m1.coeffs[:44] == [0] * 44
    assert resid_m2.coeffs[:27] == [0] * 27


def test_crank_tail_point_values():
    t = build_table("crank", 80, "gf")
    for m in (8, 20, 45):
        d = diff_column(t, m)
        assert d[m - 1] == 1
        assert d[m] == -1
        assert all(c == 0 for c in d.coeffs[: m - 1])


def test_run_clause_rejects_unknown_mode():
    clause = identities.Clause("bad", lambda N: Series.zero(N), None, ("bogus",))
    with pytest.raises(ValueError):
        identities.run_clause(clause, 5)


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
        lambda order: [
            identities.Clause(
                "c",
                lambda N: distinct_series(N),
                lambda N: Series.constant(N),
                ("exact",),
            )
        ],
    )
    exceptions, checked = run_entry(bad, 10)
    assert exceptions and exceptions[0]["n"] == 1
    assert checked == 11
