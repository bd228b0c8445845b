"""Catalog of q-series identities and sign claims, machine-checked exactly.

``CATALOG`` is one table with one row per entry: an id, a one-line summary
and ``clauses(N, run)``, which returns the entry's clauses at truncation
order N.  A clause carries zero-argument builders bound to N and ``run``;
``run_clause`` calls them, so no column is read and nothing is multiplied
until the clause runs.  ``run`` is the :class:`Run` that all entries of one
catalog run share: it gives the crank and ocrank GF columns the entries read
(``run.column``, ``run.diff``), low columns only (:data:`COLUMN_BOUNDS`),
truncated to N, and builds each GF's low columns, each generic product
(``run.product``) and each GF base (``run.base``,
:func:`cranktab.bivariate.gf_base`) once; in ``verify`` the sweeps' column
passes take their bases from the same run.  Only those two reads of a GF
import :mod:`cranktab.bivariate`, so an entry that reads none loads this
module and :mod:`cranktab.series` only.  :func:`run_entry` runs one entry on
a run and returns its :class:`CheckReport`, the one report type of every
check (:mod:`cranktab.verify` uses it too).  A clause checks one claim in
one or both of two ways:

* **equality** -- it has a right side ``rhs``, and both sides must agree on
  every coefficient that both have;
* **sign pattern** -- the indices n >= ``nonneg_from`` at which the left
  side is negative must be exactly ``negative_at`` (restricted to the
  truncation order).

A clause with an ``rhs`` checks its sign pattern too when it has a
``nonneg_from``; a clause with no ``rhs`` checks its sign pattern from
``nonneg_from``, by default 0.  So no clause checks nothing.  A clause
that reads GF columns is made only when the run builds one of them (column
m is built when m <= N), so no clause counts the coefficients of columns
that are zero only because the run never built them.

Most rows are built from two shapes:

* ``_head(label, series, head, tail)`` -- a series starts with a frozen
  head and, with ``tail``, is nonnegative after it;
* ``_factored(label, lhs, factor, left, right)`` -- the left side times the
  sparse units ``left`` equals its factor times the sparse units ``right``:
  a quotient of q-products written with Euler's pentagonal series and
  Gauss's phi(-q), so that no clause multiplies two dense series.

The other rows list their ``Clause(...)`` literals directly.  To add an
entry, append one ``IdentityEntry`` row to ``CATALOG``, pick a shape or
write the clauses, add or raise the GF's bound in :data:`COLUMN_BOUNDS`
if they read a column past it, and bind every loop variable in its builders
(``lambda m=m: ...``): a late-bound variable makes every clause read its
last value.

``kcrank-reduction``, ``m2-from-ocrank`` and ``ocrank-monotone-factored``
state, column by column, an identity between two GFs whose columns m share
the factor S_m(q^d) (see :mod:`cranktab.bivariate`), so each checks it once.
The first two check it between the GF bases.  ``ocrank-monotone-factored``
checks it on column 0: S_0 = (1 - q) - q(1 - q^2) + ... has constant term
1, so col_o(0) (q;q)_inf = col_c(0) (q^2;q^2)_inf holds modulo q^(N+1)
exactly when base_o (q;q)_inf = base_c (q^2;q^2)_inf does; and for every m,
col_o(m) (q;q)_inf - col_c(m) (q^2;q^2)_inf is S_m times
base_o (q;q)_inf - base_c (q^2;q^2)_inf, so the one clause covers every m.
The test ``test_columns_obey_garvans_functional_equation`` certifies the
column form; no report does yet.

Closed forms with sums over an unbounded index j instantiate j until the
smallest q-exponent of the summand exceeds the truncation order, so both
sides are exact modulo q^(order+1).  Such a sum is evaluated with a running
prefix: the q-Pochhammer product that the summands share is kept as one
packed int, the ring image that :mod:`cranktab.series` defines, its one home
(:func:`~cranktab.series.qpoch_fin` uses it too), and grown (or divided) by
one factor per step of j with the factor steps of that module, cut to the
coefficients that later summands still reach.  Each summand's sparse factor
is a few shifted adds of that prefix into two accumulators, and the sum is
unpacked once.  Every step costs O(N) operations on slots of
O(sqrt N) bits, so a right-hand side at order N costs O(N^2) of them.

The displayed coefficient heads and the explicit polynomials below are
frozen constants; the whole point of the equality checks is that the
series machinery must reproduce them term for term.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple
from operator import mul

from cranktab import DEFAULT_IDENTITY_ORDER, UsageError, check_size
from cranktab.series import (
    Series,
    distinct_series,
    div_factor,
    euler_product_pentagonal,
    mul_factor,
    pack,
    partition_series,
    phi_minus_q,
    qpoch_inf,
    ring,
    shifted,
    unpacked,
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


class Clause(namedtuple("Clause", "label lhs rhs nonneg_from negative_at",
                        defaults=(None, None, frozenset()))):
    """One claim; ``lhs`` and ``rhs`` build its sides at the run's order.

    ``lhs`` and ``rhs`` take no argument and return a :class:`Series`.  An
    ``rhs`` adds an equality check, a ``nonneg_from`` a sign check; with
    neither, the sign check starts at 0 (see the module docstring).
    """

    __slots__ = ()


class IdentityEntry(namedtuple("IdentityEntry", "entry_id summary clauses")):
    """One catalog row; ``clauses(N, run)`` returns its list of :class:`Clause`."""

    __slots__ = ()


# The GF columns the catalog reads, by statistic: m = 0..bound (no m2crank or kcrank).
COLUMN_BOUNDS = {"crank": 60, "ocrank": 20}


class Run:
    """What the clauses of one catalog run share, at truncation order ``order``.

    ``tables[statistic]`` lists the low columns of the GF of ``statistic``
    at ``order``, item m the column m, for m up to the GF's bound in
    :data:`COLUMN_BOUNDS` or the order, whichever is smaller.  The first
    :meth:`column` that reads a GF builds them (:meth:`fill`); no other source
    of columns exists.  :meth:`product` builds each generic product once per
    run.

    A run is also the one store of GF bases of a ``verify`` run, shared by
    the sweeps' column passes and the catalog.  :meth:`base` builds each
    distinct base (:func:`cranktab.bivariate.base_name`: ocrank and m2crank
    share one) at the size a reader asks for and keeps the largest it built.
    A reader at that size or below takes its prefix, as the coefficient n of
    a base depends on the coefficients up to n only; a reader past it builds
    the base anew at its own size, which the run then keeps.  A run keeps no
    whole table, and nothing outlives it.
    """

    def __init__(self, order: int):
        self.order = order
        self.tables = {}
        self._products = {}
        self._bases = {}  # base name -> the base at the largest size built

    def base(self, statistic: str, k: int | None = None, size: int | None = None) -> Series:
        """The GF base of ``statistic`` (:func:`cranktab.bivariate.gf_base`) at ``size``.

        ``size`` defaults to the run's order.  The prefix of the stored base
        when that is large enough, else a new base, stored in its place.
        """
        from cranktab import bivariate

        size = self.order if size is None else size
        name = bivariate.base_name(statistic, k)
        stored = self._bases.get(name)
        if stored is None or stored.order < size:
            stored = self._bases[name] = bivariate.gf_base(statistic, size, k)
        return stored if stored.order == size else stored.truncated(size)

    def fill(self, statistic: str) -> None:
        """Build the columns of ``statistic`` that the catalog reads.

        The named builder of :mod:`cranktab.bivariate` runs on the run's base
        at the run's order from the column ``COLUMN_BOUNDS[statistic]`` down,
        so it costs O(order * (bound + sqrt(order))), not the whole GF's
        O(order**2).
        """
        from cranktab import bivariate

        build = bivariate.overline_crank_gf if statistic == "ocrank" else bivariate.crank_gf
        self.tables[statistic] = build(self.order, top=COLUMN_BOUNDS[statistic],
                                       base=self.base(statistic))

    def column(self, statistic: str, m: int) -> Series:
        """Column m of one statistic's GF, truncated to the run's order.

        A GF with no :data:`COLUMN_BOUNDS` entry raises ``KeyError``, and an m
        outside 0..bound raises ``IndexError``, at every order.  Past the
        order the column is zero, by the |m| <= n support.
        """
        bound = COLUMN_BOUNDS[statistic]
        if not 0 <= m <= bound:
            raise IndexError(f"column m={m} of {statistic} is past the stored bound {bound}")
        if m > self.order:
            return Series.zero(self.order)
        if statistic not in self.tables:
            self.fill(statistic)
        return self.tables[statistic][m]

    def diff(self, statistic: str, m: int) -> Series:
        """The difference column ``n -> T[m-1][n] - T[m][n]`` of one statistic."""
        return self.column(statistic, m - 1) - self.column(statistic, m)

    def product(self, build, *args, **kwargs) -> Series:
        """``build(*args, order, **kwargs)``, built once per run."""
        key = (build, args, tuple(sorted(kwargs.items())))
        if key not in self._products:
            self._products[key] = build(*args, self.order, **kwargs)
        return self._products[key]


def _poly(order: int, terms: dict) -> Series:
    return Series.from_terms(order, terms)


# -- right-hand sides of the structural closed forms -------------------------
#
# On the packed ring image of cranktab.series.  A summand's sparse
# factor splits into a "near" and a "far" power of q, each times a fixed
# polynomial; the two sums are kept apart and multiplied by their
# polynomials once, at the end.


def _one_minus_q_squared_distinct_rhs(order: int) -> Series:
    """Closed form for (1-q)^2 (-q;q)_inf.

    1 - q + q^3 - q^4 + q^5 + q^9 + q^12
      + sum_{j>=6} q^(2j-1) (-q^3;q)_(j-6) (q^(j-3) + q^(j-2) + q^(2j-5)),

    summed as (1 + q) sum_j q^(3j-4) P_j + sum_j q^(4j-6) P_j, P_j = (-q^3;q)_(j-6).
    """
    w, mask = ring(order)
    near = far = 0
    prefix, j = 1, 6
    cut = mask >> 14 * w  # P_j reaches the slots below q^(order+1-(3j-4))
    while cut:
        near += prefix << w * (3 * j - 4)
        far += shifted(prefix, 4 * j - 6, w, mask)
        cut >>= 3 * w
        prefix = mul_factor(prefix, j - 3, -1, w, cut)
        j += 1
    head = pack({0: 1, 1: -1, 3: 1, 4: -1, 5: 1, 9: 1, 12: 1}, w)
    return unpacked(order, head + near + (near << w) + far, w)


def _quintic_distinct_rhs(order: int) -> Series:
    """Closed form for (1-q)(1-q^5)(-1+q^2+q^3+q^4-q^5)(-q;q)_inf.

    -1 + q^2 + q^4 + q^11 + q^10/(1-q^3) + q^17/((1-q^3)(1-q^7))
      + q^16/((1-q^3)(q^7;q^2)_2) + q^13 (1+q^7)/(1-q^9)
      + sum_{j>=11 odd} q^(j+4) / ((1-q^3)(q^7;q^2)_((j-11)/2) (1-q^(j-2))(1-q^j))
      + sum_{j>=11 odd} q^(2j+3) / ((1-q^3)(q^7;q^2)_((j-5)/2)).

    All structural terms have nonnegative coefficients except the leading -1.
    With P_s = 1/((1-q^3)(q^7;q^2)_s), the terms j = 2s+5 of the two sums are
    q^(2s+9) (1 - q^(2s+1)) P_s and q^(4s+13) P_s, s >= 3, and q^10, q^17 and
    q^16 multiply P_0, P_1 and P_2.  So the sums are one running prefix,
    sum_s q^(a_s) P_s + (q^3 - 1) sum_{s>=3} q^(4s+10) P_s, with
    a_s = 10, 17, 16 for s < 3 and 2s + 9 from then on: one division per step.
    """
    w, mask = ring(order)
    near = far = 0
    cut = mask >> 9 * w  # P_s reaches the slots below q^(order+1-(2s+9))
    prefix, s = div_factor(1, 3, w, cut), 0
    while cut:
        if s < 3:
            near += shifted(prefix, (10, 17, 16)[s], w, mask)
        else:
            near += prefix << w * (2 * s + 9)
            far += shifted(prefix, 4 * s + 10, w, mask)
        cut >>= 2 * w
        prefix = div_factor(prefix, 2 * s + 7, w, cut)
        s += 1
    head = pack({0: -1, 2: 1, 4: 1, 11: 1}, w) + div_factor(pack({13: 1, 20: 1}, w), 9, w, mask)
    return unpacked(order, head + near + (far << 3 * w) - far, w)


def _distinct_odd_rhs(order: int) -> Series:
    """Closed form for (1-q^4)(-q;q^2)_inf.

    1 + q + q^3 + sum_{j>=5 odd} q^j (-q;q^2)_((j-5)/2)
                               (q^(j-4) + q^(j-2) + q^(2j-6)),

    summed as (1 + q^2) sum_j q^(2j-4) P_j + sum_j q^(3j-6) P_j, P_j = (-q;q^2)_((j-5)/2).
    """
    w, mask = ring(order)
    near = far = 0
    prefix, j = 1, 5
    cut = mask >> 6 * w  # P_j reaches the slots below q^(order+1-(2j-4))
    while cut:
        near += prefix << w * (2 * j - 4)
        far += shifted(prefix, 3 * j - 6, w, mask)
        cut >>= 4 * w
        prefix = mul_factor(prefix, j - 4, -1, w, cut)
        j += 2
    return unpacked(order, pack({0: 1, 1: 1, 3: 1}, w) + near + (near << 2 * w) + far, w)


# -- clause shapes ------------------------------------------------------------


def _head(label: str, series, head: list, tail: bool = True) -> Clause:
    """``series`` starts with ``head``; with ``tail``, it is nonnegative after it.

    A head past the order is compared as far as the series reaches.  The tail
    reads the series itself: subtracting a head of degree len(head) - 1
    changes no coefficient above it.
    """
    return Clause(label, series, lambda: Series(len(head) - 1, head),
                  nonneg_from=len(head) if tail else None)


def _factored(label: str, lhs, factor, left, right) -> Clause:
    """The exact clause ``lhs * left = factor * right``.

    ``left`` and ``right`` are tuples of sparse units: series with constant
    term 1 and O(sqrt N) nonzero terms, each applied by one multiply, so a
    clause costs O(N**1.5).  A unit V is invertible modulo q^(N+1), so
    ``lhs * V = factor * W`` holds exactly when ``lhs = factor * W / V``:
    the clause checks that identity with no dense product.
    """
    return Clause(
        label,
        lambda: functools.reduce(mul, left, lhs()),
        lambda: functools.reduce(mul, right, factor()),
    )


def _euler(N: int, d: int = 1) -> Series:
    """The sparse unit ``(q^d; q^d)_inf``, by Euler's pentagonal number theorem."""
    return euler_product_pentagonal(N).stretched(d)


# -- the catalog --------------------------------------------------------------


CATALOG = {
    e.entry_id: e
    for e in [
        IdentityEntry(
            "euler",
            "Euler identity: (-q;q)_inf = 1/(q;q^2)_inf",
            lambda N, r: [
                Clause(
                    "euler",
                    lambda: r.product(distinct_series),
                    lambda: r.product(qpoch_inf, 1, 2, invert=True),
                )
            ],
        ),
        IdentityEntry(
            "lemma-3.2",
            "(1-q)^2 (-q;q)_inf closed form; negative only at n = 1 and 4",
            lambda N, r: [
                Clause(
                    "closed-form",
                    lambda: _poly(N, {0: 1, 1: -1}).pow(2) * r.product(distinct_series),
                    lambda: _one_minus_q_squared_distinct_rhs(N),
                    nonneg_from=0,
                    negative_at=frozenset({1, 4}),
                )
            ],
        ),
        IdentityEntry(
            "lemma-3.3",
            "(1-q)(1-q^5)(-1+q^2+q^3+q^4-q^5)(-q;q)_inf closed form; nonnegative from n = 1",
            lambda N, r: [
                Clause(
                    "closed-form",
                    lambda: _poly(N, {0: 1, 1: -1})
                    * _poly(N, {0: 1, 5: -1})
                    * _poly(N, {0: -1, 2: 1, 3: 1, 4: 1, 5: -1})
                    * r.product(distinct_series),
                    lambda: _quintic_distinct_rhs(N),
                    nonneg_from=1,
                )
            ],
        ),
        IdentityEntry(
            "crank-diff-heads",
            "crank difference columns m = 1, 2 match their displayed heads",
            lambda N, r: [
                _head(f"m={m}", lambda m=m: r.diff("crank", m), head, tail=False)
                for m, head in ((1, CRANK_DIFF_M1_HEAD), (2, CRANK_DIFF_M2_HEAD))
                if m <= N + 1
            ],
        ),
        IdentityEntry(
            "crank-diff-decomp",
            "crank difference columns minus explicit heads are nonnegative tails",
            lambda N, r: [
                Clause(
                    "m=1",
                    lambda: r.diff("crank", 1)
                    - (
                        _poly(N, {0: 1, 1: -1}).pow(2)
                        + _poly(N, {0: 1, 1: -1})
                        * _poly(N, {0: 1, 5: -1})
                        * _poly(N, {0: -1, 2: 1, 3: 1, 4: 1, 5: -1}).times_monomial(1, 2)
                        + _poly(N, {0: 1, 1: -1}) * _poly(N, F1_TERMS)
                        + _poly(N, H1_TERMS)
                    ),
                    nonneg_from=44,
                ),
                Clause(
                    "m=2",
                    lambda: r.diff("crank", 2)
                    - (
                        _poly(N, {1: 1, 2: -1}) * _poly(N, {0: 1, 3: -1})
                        + _poly(N, {0: 1, 1: -1}) * _poly(N, F2_TERMS)
                        + _poly(N, H2_TERMS)
                    ),
                    nonneg_from=27,
                ),
            ][: N + 1],  # the clause of m reads columns m - 1 and m, built when m - 1 <= N
        ),
        IdentityEntry(
            "crank-diff-tails",
            "crank difference columns for m = 8..60: q^(m-1) - q^m then nonnegative",
            lambda N, r: [
                _head(f"m={m}", lambda m=m: r.diff("crank", m), [0] * (m - 1) + [1, -1])
                for m in range(8, min(COLUMN_BOUNDS["crank"], N - 1) + 1)
            ],
        ),
        IdentityEntry(
            "ocrank-diff-nonneg",
            "first-residual-crank difference columns are nonnegative for m >= 2",
            lambda N, r: [
                Clause(f"m={m}", lambda m=m: r.diff("ocrank", m))
                for m in range(2, min(COLUMN_BOUNDS["ocrank"], N + 1) + 1)
            ],
        ),
        IdentityEntry(
            "sc-identity",
            "(1-q^4)(-q;q^2)_inf closed form; nonnegative coefficients",
            lambda N, r: [
                Clause(
                    "closed-form",
                    lambda: _poly(N, {0: 1, 4: -1}) * r.product(qpoch_inf, 1, 2, sign=-1),
                    lambda: _distinct_odd_rhs(N),
                    nonneg_from=0,
                )
            ],
        ),
        IdentityEntry(
            "m2-head",
            "q -> q^2 image of the m = 1 overline difference: 1-q^2-q^4+q^6 then nonnegative",
            lambda N, r: [
                _head("m=1", lambda: r.diff("ocrank", 1).stretched(2), [1, 0, -1, 0, -1, 0, 1, 0])
            ],
        ),
        IdentityEntry(
            "ocrank-monotone-factored",
            "overline column m times (q;q)_inf = crank column m times (q^2;q^2)_inf; both"
            " columns are their GF base times S_m, and S_0 has constant term 1, so it is"
            " checked once, on column 0: that clause holds exactly when the z-free identity"
            " base_o (q;q)_inf = base_c (q^2;q^2)_inf does, and that gives every column m"
            " through the column form",
            # The paper's form: (1-q) times the overline column (its
            # successive-n differences) equals the crank column over
            # (q^3;q^2)_inf.  Times the unit (q^3;q^2)_inf (q^2;q^2)_inf it is
            # this clause: (1-q)(q^3;q^2)_inf (q^2;q^2)_inf = (q;q)_inf.
            lambda N, r: [
                _factored("m=0", lambda: r.column("ocrank", 0), lambda: r.column("crank", 0),
                          left=(_euler(N),), right=(_euler(N, 2),))
            ],
        ),
        IdentityEntry(
            "andrews-merca",
            "Andrews-Merca inequality p(n) <= p(n-1)+p(n-2)-p(n-5); derived odd stream",
            lambda N, r: [
                # p(n-1) + p(n-2) - p(n-5) - p(n) >= 0 for n >= 1
                Clause(
                    "partition-inequality",
                    lambda: -(_poly(N, {0: 1, 1: -1, 2: -1, 5: 1}) * r.product(partition_series)),
                    nonneg_from=1,
                ),
                Clause(
                    "odd-stream",
                    lambda: _poly(N, {1: -1, 3: 1, 5: 1}) * r.product(qpoch_inf, 2, 2, invert=True),
                    negative_at=frozenset({1}),
                ),
            ],
        ),
        IdentityEntry(
            "kcrank-reduction",
            "k-crank difference columns times (q;q)_inf^(k-2) (q^2;q^2)_inf = overline ones;"
            " both share S_m, so it is checked once per k on the bases:"
            " base_k (q;q)_inf^(k-2) (q^2;q^2)_inf = base_o, and the per-column form"
            " follows from the column form",
            lambda N, r: [
                _factored(f"k={k}", lambda k=k: r.base("kcrank", k=k), lambda: r.base("ocrank"),
                          left=(_euler(N),) * (k - 2) + (_euler(N, 2),), right=())
                for k in (2, 3, 4)
            ],
        ),
        IdentityEntry(
            "ocrank-head",
            "m = 1 overline difference column: 1-q-q^2+q^3+q^5 then nonnegative",
            lambda N, r: [_head("m=1", lambda: r.diff("ocrank", 1), [1, -1, -1, 1, 0, 1])],
        ),
        IdentityEntry(
            "m2-from-ocrank",
            "second-residual differences times phi(-q) = stretched overline ones times"
            " phi(-q^2), phi(-q) = (q;q)/(-q;q); both share S_m(q^2), so it is checked"
            " once on the bases: base_m2 phi(-q) = base_o(q^2) phi(-q^2), and the per-column"
            " form follows from the column form",
            lambda N, r: [
                _factored("bases", lambda: r.base("m2crank"), lambda: r.base("ocrank").stretched(2),
                          left=(phi_minus_q(N),), right=(phi_minus_q(N).stretched(2),))
            ],
        ),
    ]
}


def run_clause(clause: Clause) -> tuple[list, int]:
    """Evaluate one clause: its equality check, then its sign check.

    Returns the exception list (empty = clause holds) and the number of
    coefficients compared by both checks.
    """
    lhs, label, n0 = clause.lhs(), clause.label, clause.nonneg_from
    exceptions, checked = [], 0
    if clause.rhs is not None:
        rhs = clause.rhs().coeffs
        exceptions = [
            {"clause": label, "n": n, "lhs": a, "rhs": b}
            for n, (a, b) in enumerate(zip(lhs.coeffs, rhs))
            if a != b
        ]
        checked = min(len(lhs.coeffs), len(rhs))
    elif n0 is None:  # a clause with no rhs is a sign clause from 0
        n0 = 0
    if n0 is not None:
        found = {n for n in range(n0, lhs.order + 1) if lhs.coeffs[n] < 0}
        allowed = {n for n in clause.negative_at if n0 <= n <= lhs.order}
        exceptions.extend(
            {"clause": label, "n": n, "lhs": lhs.coeffs[n], "rhs": 0}
            for n in sorted(found ^ allowed)
        )
        checked += max(0, lhs.order + 1 - n0)
    return exceptions, checked


# -- reports ------------------------------------------------------------------


class CheckReport(namedtuple("CheckReport", "check_id params passed exceptions informational "
                                            "runtime_ms cells_checked coeffs_checked",
                             defaults=((), 0.0, None, None))):
    """The verdict of one check, the entries behind it and what it covered."""

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_obj(self) -> dict:
        def fmt(entries):
            out = []
            for e in entries:
                d = dict(e)
                for key in ("lhs", "rhs"):
                    if key in d:
                        d[key] = str(d[key])
                out.append(d)
            return out

        obj = {
            "check_id": self.check_id,
            "params": self.params,
            "verdict": self.verdict,
            "exceptions": fmt(self.exceptions),
            "runtime_ms": round(self.runtime_ms, 3),
        }
        if self.informational:
            obj["informational"] = fmt(self.informational)
        for key in ("cells_checked", "coeffs_checked"):
            if getattr(self, key) is not None:
                obj[key] = getattr(self, key)
        return obj


def run_entry(entry: IdentityEntry, run: Run) -> CheckReport:
    """The report of one entry's clauses, on the catalog run ``run`` at its order."""
    t0 = time.perf_counter()
    exceptions, checked = [], 0
    for clause in entry.clauses(run.order, run):
        found, count = run_clause(clause)
        exceptions.extend(found)
        checked += count
    return CheckReport(
        entry.entry_id,
        {"order": run.order},
        passed=not exceptions,
        exceptions=exceptions,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        coeffs_checked=checked,
    )


def check_identity(entry_id, order=DEFAULT_IDENTITY_ORDER) -> CheckReport:
    """Run one catalog entry on a run of its own; a bad id or order raises ``UsageError``."""
    entry = CATALOG.get(entry_id)
    if entry is None:
        raise UsageError(f"unknown identity {entry_id!r}; available: {', '.join(sorted(CATALOG))}")
    check_size("order", order)
    return run_entry(entry, Run(order))


def reports_to_json_obj(reports):
    return {
        "checks": [r.to_json_obj() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def exit_code(reports) -> int:
    """0 when every verdict is pass, 1 otherwise."""
    return 0 if all(r.passed for r in reports) else 1
