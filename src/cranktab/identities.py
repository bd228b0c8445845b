"""Catalog of q-series identities and sign claims, machine-checked exactly.

Each catalog entry carries one or more clauses.  A clause builds its left
side (and, for equalities, its right side) as exact truncated series at the
requested order and is judged in one of three modes:

* ``("exact",)``              -- coefficientwise equality;
* ``("nonneg_from", n0)``     -- coefficients of the left side are >= 0 for
                                 all n >= n0;
* ``("nonneg_except", S)``    -- scanning all n, the set of indices with a
                                 negative coefficient must equal S exactly
                                 (restricted to the truncation order).

Closed forms with sums over an unbounded index j instantiate j until the
smallest q-exponent of the summand exceeds the truncation order, so both
sides are exact modulo q^(order+1).  Such a sum is evaluated with a running
prefix: the q-Pochhammer product that the summands share is kept as one
coefficient list and grown (or divided) by one factor per step of j, and
each summand's sparse monomial or trinomial factor is applied as a few
shifted adds of that prefix into a single accumulator.  Every step costs
O(N), so a right-hand side at order N costs O(N^2).

The displayed coefficient heads and the explicit polynomials below are
frozen constants; the whole point of the exact-equality clauses is that the
series machinery must reproduce them term for term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from cranktab import tables
from cranktab.bivariate import crank_gf, kcrank_gf, m2_crank_gf, overline_crank_gf
from cranktab.series import (
    Series,
    _div_factor,
    _mul_factor,
    distinct_series,
    partition_series,
    qpoch_inf,
)

# Head of sum_n (M(0,n) - M(1,n)) q^n through q^43 (crank count differences).
CRANK_DIFF_M1_HEAD = [
    1, -2, 0, 1, 1, 0, 0, -1, 0, -1,
    1, -1, 2, -1, 2, -1, 2, -2, 3, -3,
    3, -2, 3, -3, 6, -4, 6, -2, 7, -4,
    11, -5, 12, -3, 13, -4, 20, -6, 22, -1,
    27, -3, 37, -1,
]

# Head of sum_n (M(1,n) - M(2,n)) q^n through q^26.
CRANK_DIFF_M2_HEAD = [
    0, 1, -1, 0, -1, 1, 0, 1, 0, 1,
    -1, 1, -1, 1, -1, 2, -1, 3, -1, 4,
    -1, 5, -1, 6, -1, 8, -1,
]

# Explicit nonnegative polynomials in the m = 1 decomposition of the
# crank difference column: (1-q)^2 + q^2(1-q)(1-q^5)(-1+q^2+q^3+q^4-q^5)
# + (1-q) F1 + H1 + nonnegative tail from n = 44 on.
F1_TERMS = {10: 1, 14: 1, 16: 2, 18: 3, 20: 2, 22: 3, 24: 4, 26: 2,
            28: 4, 30: 5, 32: 3, 34: 4, 36: 6, 38: 1, 40: 3, 42: 1}
H1_TERMS = {14: 1, 20: 1, 24: 2, 26: 4, 28: 3, 30: 6, 32: 9, 34: 9,
            36: 14, 38: 21, 40: 24, 42: 36}

# Same for m = 2: q(1-q)(1-q^3) + (1-q) F2 + H2 + nonnegative tail from 27.
F2_TERMS = {9: 1, 11: 1, 13: 1, 15: 1, 17: 1, 19: 1, 21: 1, 23: 1, 25: 1}
H2_TERMS = {7: 1, 15: 1, 17: 2, 19: 3, 21: 4, 23: 5, 25: 7}


@dataclass(frozen=True)
class Clause:
    label: str
    build_lhs: Callable[[int], Series]
    build_rhs: Optional[Callable[[int], Series]]
    mode: Tuple


@dataclass(frozen=True)
class IdentityEntry:
    entry_id: str
    summary: str
    clauses: Callable[[int], list]  # order -> [Clause]


def _poly(order: int, terms: dict) -> Series:
    return Series.from_terms(order, terms)


def _crank_diff(order: int, m: int) -> Series:
    t = tables.build_table("crank", order, "gf")
    return tables.diff_column(t, m)


def _ocrank_diff(order: int, m: int) -> Series:
    t = tables.build_table("ocrank", order, "gf")
    return tables.diff_column(t, m)


# -- right-hand sides of the structural closed forms -------------------------


def _add_shifted(acc: list, src: list, shift: int) -> None:
    # acc += q^shift * src, truncated at len(acc)
    acc[shift:] = [a + b for a, b in zip(acc[shift:], src)]


def _one_minus_q_squared_distinct_rhs(order: int) -> Series:
    """Closed form for (1-q)^2 (-q;q)_inf.

    1 - q + q^3 - q^4 + q^5 + q^9 + q^12
      + sum_{j>=6} q^(2j-1) (-q^3;q)_(j-6) (q^(j-3) + q^(j-2) + q^(2j-5)).
    """
    acc = _poly(order, {0: 1, 1: -1, 3: 1, 4: -1, 5: 1, 9: 1, 12: 1}).coeffs
    prefix = [1] + [0] * order  # (-q^3;q)_(j-6)
    j = 6
    while 3 * j - 4 <= order:
        for shift in (3 * j - 4, 3 * j - 3, 4 * j - 6):
            _add_shifted(acc, prefix, shift)
        _mul_factor(prefix, j - 3, -1)
        j += 1
    return Series(order, acc)


def _quintic_distinct_rhs(order: int) -> Series:
    """Closed form for (1-q)(1-q^5)(-1+q^2+q^3+q^4-q^5)(-q;q)_inf.

    -1 + q^2 + q^4 + q^11 + q^10/(1-q^3) + q^17/((1-q^3)(1-q^7))
      + q^16/((1-q^3)(q^7;q^2)_2) + q^13 (1+q^7)/(1-q^9)
      + sum_{j>=11 odd} q^(j+4) / ((1-q^3)(q^7;q^2)_((j-11)/2) (1-q^(j-2))(1-q^j))
      + sum_{j>=11 odd} q^(2j+3) / ((1-q^3)(q^7;q^2)_((j-5)/2)).

    All structural terms have nonnegative coefficients except the leading -1.
    Both sums read the prefix 1/((1-q^3)(q^7;q^2)_t): the first at
    t = (j-11)/2, the second at t = (j-5)/2.
    """
    acc = (
        _poly(order, {0: -1, 2: 1, 4: 1, 11: 1})
        + _poly(order, {10: 1}).div_one_minus(3)
        + _poly(order, {17: 1}).div_one_minus(3).div_one_minus(7)
        + _poly(order, {16: 1}).div_one_minus(3).div_one_minus(7).div_one_minus(9)
        + _poly(order, {13: 1, 20: 1}).div_one_minus(9)
    ).coeffs
    prefix = [1] + [0] * order  # 1/((1-q^3)(q^7;q^2)_t)
    _div_factor(prefix, 3, 1)
    t = 0
    while 2 * t + 15 <= order:
        j = 2 * t + 11  # first sum
        term = prefix[: order - (j + 4) + 1]
        _div_factor(term, j - 2, 1)
        _div_factor(term, j, 1)
        _add_shifted(acc, term, j + 4)
        if t >= 3:  # second sum, j = 2t + 5
            _add_shifted(acc, prefix, 4 * t + 13)
        _div_factor(prefix, 2 * t + 7, 1)
        t += 1
    return Series(order, acc)


def _distinct_odd_rhs(order: int) -> Series:
    """Closed form for (1-q^4)(-q;q^2)_inf.

    1 + q + q^3 + sum_{j>=5 odd} q^j (-q;q^2)_((j-5)/2)
                               (q^(j-4) + q^(j-2) + q^(2j-6)).
    """
    acc = _poly(order, {0: 1, 1: 1, 3: 1}).coeffs
    prefix = [1] + [0] * order  # (-q;q^2)_((j-5)/2)
    j = 5
    while 2 * j - 4 <= order:
        for shift in (2 * j - 4, 2 * j - 2, 3 * j - 6):
            _add_shifted(acc, prefix, shift)
        _mul_factor(prefix, j - 4, -1)
        j += 2
    return Series(order, acc)


# -- entry clause builders ----------------------------------------------------


def _euler_clauses(order):
    return [
        Clause(
            "euler",
            lambda N: distinct_series(N),
            lambda N: qpoch_inf(1, 2, N, invert=True),
            ("exact",),
        )
    ]


def _lemma_32_clauses(order):
    @functools.cache
    def lhs(N):
        # shared by the closed-form and sign-pattern clauses
        return _poly(N, {0: 1, 1: -1}).pow(2) * distinct_series(N)

    return [
        Clause("closed-form", lhs, _one_minus_q_squared_distinct_rhs, ("exact",)),
        Clause("sign-pattern", lhs, None, ("nonneg_except", frozenset({1, 4}))),
    ]


def _lemma_33_clauses(order):
    @functools.cache
    def lhs(N):
        # shared by the closed-form and sign-pattern clauses
        return (
            _poly(N, {0: 1, 1: -1})
            * _poly(N, {0: 1, 5: -1})
            * _poly(N, {0: -1, 2: 1, 3: 1, 4: 1, 5: -1})
            * distinct_series(N)
        )

    return [
        Clause("closed-form", lhs, _quintic_distinct_rhs, ("exact",)),
        Clause("sign-pattern", lhs, None, ("nonneg_from", 1)),
    ]


def _crank_head_clauses(order):
    h1 = min(order, len(CRANK_DIFF_M1_HEAD) - 1)
    h2 = min(order, len(CRANK_DIFF_M2_HEAD) - 1)
    return [
        Clause(
            "m=1",
            lambda N, h=h1: _crank_diff(N, 1).truncated(h),
            lambda N, h=h1: Series(h, CRANK_DIFF_M1_HEAD[: h + 1]),
            ("exact",),
        ),
        Clause(
            "m=2",
            lambda N, h=h2: _crank_diff(N, 2).truncated(h),
            lambda N, h=h2: Series(h, CRANK_DIFF_M2_HEAD[: h + 1]),
            ("exact",),
        ),
    ]


def _crank_decomp_clauses(order):
    def resid_m1(N):
        head = (
            _poly(N, {0: 1, 1: -1}).pow(2)
            + _poly(N, {0: 1, 1: -1})
            * _poly(N, {0: 1, 5: -1})
            * _poly(N, {0: -1, 2: 1, 3: 1, 4: 1, 5: -1}).times_monomial(1, 2)
            + _poly(N, {0: 1, 1: -1}) * _poly(N, F1_TERMS)
            + _poly(N, H1_TERMS)
        )
        return _crank_diff(N, 1) - head

    def resid_m2(N):
        head = (
            _poly(N, {1: 1, 2: -1}) * _poly(N, {0: 1, 3: -1})
            + _poly(N, {0: 1, 1: -1}) * _poly(N, F2_TERMS)
            + _poly(N, H2_TERMS)
        )
        return _crank_diff(N, 2) - head

    return [
        Clause("m=1", resid_m1, None, ("nonneg_from", 44)),
        Clause("m=2", resid_m2, None, ("nonneg_from", 27)),
    ]


def _crank_tail_clauses(order):
    clauses = []
    for m in range(8, min(60, order - 1) + 1):
        clauses.append(
            Clause(
                f"m={m} head",
                lambda N, m=m: _crank_diff(N, m).truncated(m),
                lambda N, m=m: _poly(m, {m - 1: 1, m: -1}),
                ("exact",),
            )
        )
        clauses.append(
            Clause(
                f"m={m} tail",
                lambda N, m=m: _crank_diff(N, m),
                None,
                ("nonneg_from", m + 1),
            )
        )
    return clauses


def _ocrank_nonneg_clauses(order):
    return [
        Clause(f"m={m}", lambda N, m=m: _ocrank_diff(N, m), None, ("nonneg_from", 0))
        for m in range(2, 21)
    ]


def _sc_identity_clauses(order):
    @functools.cache
    def lhs(N):
        # shared by the closed-form and sign-pattern clauses
        return _poly(N, {0: 1, 4: -1}) * qpoch_inf(1, 2, N, sign=-1)

    return [
        Clause("closed-form", lhs, _distinct_odd_rhs, ("exact",)),
        Clause("sign-pattern", lhs, None, ("nonneg_from", 0)),
    ]


def _m2_head_clauses(order):
    head = {0: 1, 2: -1, 4: -1, 6: 1}
    h = min(order, 7)
    return [
        Clause(
            "prefix",
            lambda N, h=h: _ocrank_diff(N, 1).stretched(2).truncated(h),
            lambda N, h=h: _poly(h, head),
            ("exact",),
        ),
        Clause(
            "tail",
            lambda N: _ocrank_diff(N, 1).stretched(2) - _poly(N, head),
            None,
            ("nonneg_from", 8),
        ),
    ]


def _ocrank_monotone_factored_clauses(order):
    # Successive-n difference series of the first residual crank at fixed m,
    # written with the n = 0 term equal to the count at n = 0 (that is,
    # (1-q) * sum_n count(m,n) q^n), which is what the factorization equals.
    def lhs(N, m):
        return _poly(N, {0: 1, 1: -1}) * overline_crank_gf(N).column(m)

    @functools.cache
    def mult(N):
        # shared by all 21 clauses
        return qpoch_inf(3, 2, N, invert=True)

    def rhs(N, m):
        return crank_gf(N).column(m) * mult(N)

    return [
        Clause(
            f"m={m}",
            lambda N, m=m: lhs(N, m),
            lambda N, m=m: rhs(N, m),
            ("exact",),
        )
        for m in range(0, 21)
    ]


def _andrews_merca_clauses(order):
    def negated_diff(N):
        # -(p(n) - p(n-1) - p(n-2) + p(n-5)) must be >= 0 for n >= 1
        return -(_poly(N, {0: 1, 1: -1, 2: -1, 5: 1}) * partition_series(N))

    def odd_stream(N):
        return _poly(N, {1: -1, 3: 1, 5: 1}) * qpoch_inf(2, 2, N, invert=True)

    return [
        Clause("partition-inequality", negated_diff, None, ("nonneg_from", 1)),
        Clause("odd-stream", odd_stream, None, ("nonneg_except", frozenset({1}))),
    ]


def _kcrank_reduction_clauses(order):
    def lhs(N, k, m):
        g = kcrank_gf(k, N)
        return g.column(m - 1) - g.column(m)

    @functools.cache
    def mult(N, k):
        # shared by the ten clauses of one k
        return qpoch_inf(2, 2, N, invert=True) * partition_series(N).pow(k - 2)

    def rhs(N, k, m):
        return _ocrank_diff(N, m) * mult(N, k)

    return [
        Clause(
            f"k={k},m={m}",
            lambda N, k=k, m=m: lhs(N, k, m),
            lambda N, k=k, m=m: rhs(N, k, m),
            ("exact",),
        )
        for k in (2, 3, 4)
        for m in range(1, 11)
    ]


def _ocrank_head_clauses(order):
    head = {0: 1, 1: -1, 2: -1, 3: 1, 5: 1}
    h = min(order, 5)
    return [
        Clause(
            "prefix",
            lambda N, h=h: _ocrank_diff(N, 1).truncated(h),
            lambda N, h=h: _poly(h, head),
            ("exact",),
        ),
        Clause(
            "tail",
            lambda N: _ocrank_diff(N, 1) - _poly(N, head),
            None,
            ("nonneg_from", 6),
        ),
    ]


def _m2_from_ocrank_clauses(order):
    def lhs(N, m):
        g = m2_crank_gf(N)
        return g.column(m - 1) - g.column(m)

    @functools.cache
    def mult(N):
        # shared by all ten clauses
        return qpoch_inf(1, 2, N, sign=-1) * qpoch_inf(1, 2, N, invert=True)

    def rhs(N, m):
        return _ocrank_diff(N, m).stretched(2) * mult(N)

    return [
        Clause(
            f"m={m}",
            lambda N, m=m: lhs(N, m),
            lambda N, m=m: rhs(N, m),
            ("exact",),
        )
        for m in range(1, 11)
    ]


CATALOG = {
    e.entry_id: e
    for e in [
        IdentityEntry(
            "euler",
            "Euler identity: (-q;q)_inf = 1/(q;q^2)_inf",
            _euler_clauses,
        ),
        IdentityEntry(
            "lemma-3.2",
            "(1-q)^2 (-q;q)_inf closed form; negative only at n = 1 and 4",
            _lemma_32_clauses,
        ),
        IdentityEntry(
            "lemma-3.3",
            "(1-q)(1-q^5)(-1+q^2+q^3+q^4-q^5)(-q;q)_inf closed form; nonnegative from n = 1",
            _lemma_33_clauses,
        ),
        IdentityEntry(
            "crank-diff-heads",
            "crank difference columns m = 1, 2 match their displayed heads",
            _crank_head_clauses,
        ),
        IdentityEntry(
            "crank-diff-decomp",
            "crank difference columns minus explicit heads are nonnegative tails",
            _crank_decomp_clauses,
        ),
        IdentityEntry(
            "crank-diff-tails",
            "crank difference columns for m = 8..60: q^(m-1) - q^m then nonnegative",
            _crank_tail_clauses,
        ),
        IdentityEntry(
            "ocrank-diff-nonneg",
            "first-residual-crank difference columns are nonnegative for m >= 2",
            _ocrank_nonneg_clauses,
        ),
        IdentityEntry(
            "sc-identity",
            "(1-q^4)(-q;q^2)_inf closed form; nonnegative coefficients",
            _sc_identity_clauses,
        ),
        IdentityEntry(
            "m2-head",
            "q -> q^2 image of the m = 1 overline difference: 1-q^2-q^4+q^6 then nonnegative",
            _m2_head_clauses,
        ),
        IdentityEntry(
            "ocrank-monotone-factored",
            "overline monotonicity series equals crank column over (q^3;q^2)_inf",
            _ocrank_monotone_factored_clauses,
        ),
        IdentityEntry(
            "andrews-merca",
            "Andrews-Merca inequality p(n) <= p(n-1)+p(n-2)-p(n-5); derived odd stream",
            _andrews_merca_clauses,
        ),
        IdentityEntry(
            "kcrank-reduction",
            "k-crank difference columns factor through the overline differences",
            _kcrank_reduction_clauses,
        ),
        IdentityEntry(
            "ocrank-head",
            "m = 1 overline difference column: 1-q-q^2+q^3+q^5 then nonnegative",
            _ocrank_head_clauses,
        ),
        IdentityEntry(
            "m2-from-ocrank",
            "second-residual differences equal (-q;q^2)/(q;q^2) times stretched overline differences",
            _m2_from_ocrank_clauses,
        ),
    ]
}

# Entries forming the core numbered catalog, in order.
CORE_ENTRIES = [
    "euler",
    "lemma-3.2",
    "lemma-3.3",
    "crank-diff-heads",
    "crank-diff-decomp",
    "crank-diff-tails",
    "ocrank-diff-nonneg",
    "sc-identity",
    "m2-head",
    "ocrank-monotone-factored",
    "andrews-merca",
    "kcrank-reduction",
]


def run_clause(clause: Clause, order: int) -> tuple[list, int]:
    """Evaluate one clause.

    Returns the exception list (empty = clause holds) and the number of
    coefficients compared.
    """
    lhs = clause.build_lhs(order)
    mode = clause.mode[0]
    exceptions = []
    if mode == "exact":
        rhs = clause.build_rhs(order)
        for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
            if a != b:
                exceptions.append(
                    {"clause": clause.label, "n": n, "lhs": a, "rhs": b}
                )
        checked = min(len(lhs.coeffs), len(rhs.coeffs))
    elif mode == "nonneg_from":
        n0 = clause.mode[1]
        for n in range(n0, lhs.order + 1):
            if lhs.coeffs[n] < 0:
                exceptions.append(
                    {"clause": clause.label, "n": n, "lhs": lhs.coeffs[n], "rhs": 0}
                )
        checked = max(0, lhs.order + 1 - n0)
    elif mode == "nonneg_except":
        allowed = {n for n in clause.mode[1] if n <= lhs.order}
        found = {n for n, c in enumerate(lhs.coeffs) if c < 0}
        for n in sorted(found.symmetric_difference(allowed)):
            exceptions.append(
                {"clause": clause.label, "n": n, "lhs": lhs.coeffs[n], "rhs": 0}
            )
        checked = len(lhs.coeffs)
    else:
        raise ValueError(f"unknown clause mode {clause.mode!r}")
    return exceptions, checked


def run_entry(entry: IdentityEntry, order: int) -> tuple[list, int]:
    """Evaluate all clauses of one catalog entry at the given order.

    Returns the exceptions of all clauses and the total number of
    coefficients compared.
    """
    exceptions, checked = [], 0
    for clause in entry.clauses(order):
        found, count = run_clause(clause, order)
        exceptions.extend(found)
        checked += count
    return exceptions, checked
