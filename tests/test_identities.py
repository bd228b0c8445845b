"""Tests for the identity catalog: every entry must verify exactly."""

import weakref
from operator import add

import pytest

from cranktab import identities, verify
from cranktab.bivariate import crank_gf, gf_table, overline_crank_gf
from cranktab.identities import CATALOG, check_identity, run_entry
from cranktab.series import (
    Series,
    distinct_series,
    euler_product,
    overpartition_series,
    partition_series,
    pentagonal_numbers,
    qpoch_fin,
    qpoch_inf,
    ring,
)

ORDER = 120


@pytest.mark.parametrize("entry_id", sorted(CATALOG))
def test_catalog_entry_passes(entry_id):
    report = check_identity(entry_id, ORDER)
    assert report.exceptions == [], report.exceptions[:5]
    assert report.coeffs_checked > 0


def _clauses(entry_id, order):
    """The clauses of one entry at ``order``, in a catalog run of its own."""
    entry = CATALOG[entry_id]
    return entry.clauses(order, identities.Run(order))


def test_lemma_32_exception_values():
    lhs = Series.from_terms(60, {0: 1, 1: -1}).pow(2) * distinct_series(60)
    assert lhs[1] == -1
    assert lhs[4] == -1
    negatives = {n for n, c in enumerate(lhs.coeffs) if c < 0}
    assert negatives == {1, 4}


def test_lemma_33_leading_coefficient():
    lhs = _clauses("lemma-3.3", 40)[0].lhs()
    assert lhs[0] == -1
    assert all(c >= 0 for c in lhs.coeffs[1:])


@pytest.mark.parametrize(
    "entry_id, factor",
    [("lemma-3.2", "distinct_series"), ("lemma-3.3", "distinct_series"),
     ("sc-identity", "qpoch_inf")],
)
def test_closed_form_left_side_is_built_once(entry_id, factor, monkeypatch):
    # one clause checks the closed form and the sign pattern of one left side
    calls = []
    real = getattr(identities, factor)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, factor, counted)
    assert check_identity(entry_id, 60).exceptions == []
    assert len(calls) == 1


def test_head_and_tail_clauses_share_one_series(monkeypatch):
    # one clause per column checks head and tail: each of the 53 columns is built once
    calls = []
    real = identities.Run.diff

    def counted(self, statistic, m):
        calls.append((statistic, m))
        return real(self, statistic, m)

    monkeypatch.setattr(identities.Run, "diff", counted)
    assert check_identity("crank-diff-tails", 200).exceptions == []
    assert sorted(calls) == [("crank", m) for m in range(8, 61)]


def test_crank_diff_tails_frees_each_column_when_its_clause_returns(monkeypatch):
    # Series has __slots__ and no weak reference; this subclass can be watched
    class Watched(Series):
        __slots__ = ("__weakref__",)

    refs = []
    real_diff, real_run_clause = identities.Run.diff, identities.run_clause

    def diff(self, statistic, m):
        column = real_diff(self, statistic, m)
        refs.append(weakref.ref(watched := Watched(column.order, column.coeffs)))
        return watched

    def run_clause(clause):
        result = real_run_clause(clause)
        assert [ref() for ref in refs] == [None] * len(refs), "a column outlived its clause"
        return result

    monkeypatch.setattr(identities.Run, "diff", diff)
    monkeypatch.setattr(identities, "run_clause", run_clause)
    assert check_identity("crank-diff-tails", 200).exceptions == []
    assert len(refs) == 53


def test_andrews_merca_value_at_5():
    p = partition_series(10).coeffs
    assert p[5] - p[4] - p[3] + p[0] == 0  # 7 - 5 - 3 + 1


def test_andrews_merca_odd_stream_single_exception():
    stream = _clauses("andrews-merca", 80)[1].lhs()
    assert stream[1] == -1
    assert all(c >= 0 for n, c in enumerate(stream.coeffs) if n != 1)


def test_crank_decomp_residuals_vanish_below_thresholds():
    # the explicit heads reproduce the difference columns exactly that far
    clauses = _clauses("crank-diff-decomp", ORDER)
    resid_m1 = clauses[0].lhs()
    resid_m2 = clauses[1].lhs()
    assert resid_m1.coeffs[:44] == [0] * 44
    assert resid_m2.coeffs[:27] == [0] * 27


def test_crank_tail_point_values():
    cols = gf_table("crank", 80)
    for m in (8, 20, 45):
        d = cols[m - 1] - cols[m]
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
    "crank-diff-heads": (1, 12, 68, 71),
    "crank-diff-tails": (0, 0, 1312, 10653),
    "euler": (1, 6, 41, 201),
    "kcrank-reduction": (3, 18, 123, 603),
    "lemma-3.2": (2, 12, 82, 402),
    "lemma-3.3": (1, 11, 81, 401),
    "m2-from-ocrank": (1, 6, 41, 201),
    "m2-head": (1, 6, 41, 201),
    "ocrank-diff-nonneg": (0, 30, 779, 3819),
    "ocrank-head": (1, 6, 41, 201),
    "ocrank-monotone-factored": (1, 6, 41, 201),
    "sc-identity": (2, 12, 82, 402),
}


@pytest.mark.parametrize("entry_id", sorted(CATALOG))
def test_coeffs_checked_is_pinned(entry_id):
    counts = []
    for order in PINNED_ORDERS:
        report = check_identity(entry_id, order)
        assert report.exceptions == [], (order, report.exceptions[:5])
        counts.append(report.coeffs_checked)
    assert tuple(counts) == PINNED_COEFFS_CHECKED[entry_id]


def _failing_cells(entry_id, statistic, m, n, order, by=1):
    """Add ``by`` to cell (m, n) of the GF of ``statistic`` in the run's tables, run the entry.

    Returns the sorted (clause, n) pairs that failed.
    """
    run = identities.Run(order)
    run.fill(statistic)
    run.tables[statistic][m].coeffs[n] += by
    return sorted({(e["clause"], e["n"]) for e in run_entry(CATALOG[entry_id], run).exceptions})


def _failing_base_cells(entry_id, n, order, *args, **kwargs):
    """Add 1 to coefficient n of the run's stored base ``run.base(*args, **kwargs)``, run the entry.

    Returns the sorted (clause, n) pairs that failed.
    """
    run = identities.Run(order)
    run.base(*args, **kwargs).coeffs[n] += 1
    return sorted({(e["clause"], e["n"]) for e in run_entry(CATALOG[entry_id], run).exceptions})


def _support(series, shift):
    """The exponents ``shift + e``, up to the order, at which ``series`` is nonzero."""
    return {shift + e for e, c in enumerate(series.coeffs) if c and shift + e <= series.order}


@pytest.mark.parametrize("k", [2, 3, 4], ids=lambda k: f"k={k}")
def test_corrupted_kcrank_base_fails_only_its_clause(k):
    # the clause of this k multiplies base_k by (q;q)^(k-2) (q^2;q^2), which
    # spreads the bump at n = 20 over 20 + the support of that unit
    failed = _failing_base_cells("kcrank-reduction", 20, 40, "kcrank", k=k)
    unit = euler_product(40).pow(k - 2) * euler_product(40).stretched(2)
    cells = _support(unit, 20)
    if k == 2:
        assert cells == {20, 22, 24, 30, 34}
    assert failed == [(f"k={k}", n) for n in sorted(cells)]


@pytest.mark.parametrize("n", [1, 5, 10], ids=lambda n: f"n={n}")
def test_corrupted_overpartition_base_fails_m2_from_ocrank(n):
    phi = euler_product(40) * qpoch_inf(1, 1, 40, sign=-1, invert=True)  # (q;q)/(-q;q)
    # m2crank and ocrank share one overpartition base.  The left side is that
    # base times phi(-q); the right side stretches it (n -> 2n) and multiplies
    # it by phi(-q^2).  So a bump at n fails the cells where q^n phi(-q) and
    # q^(2n) phi(-q^2) differ.
    bump = phi.times_monomial(1, n) - phi.stretched(2).times_monomial(1, 2 * n)
    if n == 10:
        assert _support(bump, 0) == {10, 11, 14, 19, 20, 22, 26, 28, 35, 38}
    for statistic in ("m2crank", "ocrank"):
        failed = _failing_base_cells("m2-from-ocrank", n, 40, statistic)
        assert failed == [("bases", e) for e in sorted(_support(bump, 0))]
    # every kcrank clause reads the same ocrank base as its right side
    failed = _failing_base_cells("kcrank-reduction", n, 40, "ocrank")
    assert failed == [(f"k={k}", n) for k in (2, 3, 4)]


@pytest.mark.parametrize("m", [0], ids=lambda m: f"m={m}")
def test_corrupted_ocrank_cell_fails_only_its_clause(m):
    # the one clause reads column 0 and multiplies it by (q;q): 20 + {0,1,2,5,7,12,15}
    failed = _failing_cells("ocrank-monotone-factored", "ocrank", m, 20, 40)
    cells = _support(euler_product(40), 20)
    assert cells == {20, 21, 22, 25, 27, 32, 35}
    assert failed == [(f"m={m}", n) for n in sorted(cells)]


def test_corrupted_crank_cell_fails_only_its_clause():
    # the right side multiplies crank column 0 by (q^2;q^2): 20 + {0,2,4,10,14}
    failed = _failing_cells("ocrank-monotone-factored", "crank", 0, 20, 40)
    cells = _support(euler_product(40).stretched(2), 20)
    assert cells == {20, 22, 24, 30, 34}
    assert failed == [("m=0", n) for n in sorted(cells)]


@pytest.mark.parametrize(
    ("entry_id", "statistic", "m"),
    [("ocrank-diff-nonneg", "ocrank", m) for m in (2, 11, 20)]
    + [("crank-diff-tails", "crank", m) for m in (8, 33, 60)],
    ids=lambda v: f"m={v}" if isinstance(v, int) else v,
)
def test_bumped_column_fails_only_its_clause(entry_id, statistic, m):
    # clause m reads the difference column T[m-1] - T[m]: a large bump to
    # T[m] at a row past every head makes that column negative there, and
    # only raises T[m] - T[m+1]; a clause that read another m would miss it
    failed = _failing_cells(entry_id, statistic, m, 70, 80, by=10**30)
    assert failed == [(f"m={m}", 70)]


def test_run_columns_past_their_bound_raise():
    run = identities.Run(30)
    assert run.column("crank", 5) == crank_gf(30)[5]
    assert run.column("ocrank", 20) == overline_crank_gf(30)[20]
    assert run.tables["ocrank"] == overline_crank_gf(30)[:21]  # the columns m <= 20 only
    # the bound holds at every order, also at an order below it
    for r in (run, identities.Run(5)):
        assert r.column("crank", 60) == Series.zero(r.order)  # above the order: zero by support
        for statistic, m in (("crank", 61), ("ocrank", 21), ("crank", -1)):
            with pytest.raises(IndexError):
                r.column(statistic, m)
    for statistic in ("m2crank", "kcrank", "rank"):
        with pytest.raises(KeyError):  # no column bound: the catalog reads none of it
            run.column(statistic, 1)


def test_run_serves_every_reader_from_one_base():
    run = identities.Run(10)
    # ocrank and m2crank share the overpartition series; a smaller read
    # takes the prefix of the stored base, a larger one replaces it
    stored = run.base("ocrank", size=30)
    assert run.base("m2crank") == overpartition_series(10)
    assert run.base("m2crank", size=30) is stored
    larger = run.base("m2crank", size=31)
    assert larger == overpartition_series(31)
    assert run.base("ocrank", size=30) == stored and run.base("ocrank", size=31) is larger


def test_generic_products_are_built_once_per_run(monkeypatch):
    calls = []
    for name in ("partition_series", "distinct_series", "qpoch_inf"):
        real = getattr(identities, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls.append((name, args, tuple(sorted(kwargs.items()))))
            return real(*args, **kwargs)

        monkeypatch.setattr(identities, name, counted)
    reports = verify.run_checks(sorted(CATALOG), order=60)
    assert all(r.passed for r in reports)
    # 1/(q;q), (-q;q), 1/(q;q^2), (-q;q^2) and 1/(q^2;q^2); the factored
    # entries multiply by sparse units, not by generic products
    assert len(calls) == len(set(calls)) == 5


def test_every_catalog_product_has_a_sparse_operand(monkeypatch):
    # no product of the catalog multiplies two dense series: the sparser
    # operand has at most as many terms as Euler's pentagonal series
    order = 200
    bound = len(list(pentagonal_numbers(order))) + 1
    sparser = []
    real = Series.__mul__

    def counted(a, b):
        sparser.append(min(len(c) - c.count(0) for c in (a.coeffs, b.coeffs)))
        return real(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    reports = verify.run_checks(sorted(CATALOG), order=order)
    assert all(r.passed for r in reports)
    assert sparser and max(sparser) <= bound, (max(sparser), bound)


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


def test_clause_with_both_checks_reports_equality_then_sign():
    # one label; the equality exceptions come first, and both checks are counted
    clause = identities.Clause(
        "both",
        lambda: Series(4, [1, -2, 3, -4, 5]),
        lambda: Series(2, [1, 2, 0]),
        nonneg_from=2,
    )
    exceptions, checked = identities.run_clause(clause)
    assert exceptions == [
        {"clause": "both", "n": 1, "lhs": -2, "rhs": 2},
        {"clause": "both", "n": 2, "lhs": 3, "rhs": 0},
        {"clause": "both", "n": 3, "lhs": -4, "rhs": 0},
    ]
    assert checked == 3 + 3  # q^0..q^2 compared with the right side, q^2..q^4 signed


def test_check_identity_report_shape():
    report = check_identity("euler", order=64)
    assert report.passed
    assert report.check_id == "euler"
    assert report.params == {"order": 64}
    assert report.runtime_ms >= 0
    assert report.coeffs_checked == 65  # one exact clause, q^0..q^64
    assert report.to_json_obj()["coeffs_checked"] == 65


def test_identity_without_clauses_checks_no_coefficients():
    # crank-diff-tails has no clause at order 5: it passes having compared nothing
    report = check_identity("crank-diff-tails", order=5)
    assert report.passed and report.coeffs_checked == 0


def test_identity_failure_is_detected():
    # deliberately wrong expected head: the checker must flag the mismatch
    bad = identities.IdentityEntry(
        "bad",
        "wrong on purpose",
        lambda N, run: [
            identities.Clause("c", lambda: distinct_series(N), lambda: Series.constant(N))
        ],
    )
    report = run_entry(bad, identities.Run(10))
    assert report.exceptions and report.exceptions[0]["n"] == 1
    assert report.coeffs_checked == 11


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
    for order in [*range(151), 500, 1000]:
        assert builder(order) == reference(order), order


def _distinct_product(order, start, step):
    """``(-q^start; q^step)_inf`` by list slices, one factor ``1 + q^e`` at a time."""
    c = [1] + [0] * order
    for e in range(start, order + 1, step):
        c[e:] = map(add, c[e:], c[: order + 1 - e])
    return Series(order, c)


def test_closed_forms_fit_the_packed_slots():
    # the right sides are built on the packed image of qpoch_fin, where each
    # coefficient must fit a slot of ring(order)[0] bits with its sign; the
    # left sides equal them, so check the left sides, built by list products.
    # The width does not fall with the order, so coefficient n fitting
    # ring(n)[0] covers every order from n on.
    order = 3000
    distinct = _distinct_product(order, 1, 1)
    left_sides = {
        "lemma-3.2": _poly(order, {0: 1, 1: -1}).pow(2) * distinct,
        "lemma-3.3": _poly(order, {0: 1, 1: -1}) * _poly(order, {0: 1, 5: -1})
        * _poly(order, {0: -1, 2: 1, 3: 1, 4: 1, 5: -1}) * distinct,
        "sc-identity": _poly(order, {0: 1, 4: -1}) * _distinct_product(order, 1, 2),
    }
    assert distinct == distinct_series(order)
    for entry_id, lhs in left_sides.items():
        for n, c in enumerate(lhs.coeffs):
            half = 1 << (ring(n)[0] - 1)
            assert -half <= c < half, (entry_id, n)
