"""Crank-statistic tables by statistic name, and their difference series.

:func:`build_table` gives the :class:`~cranktab.bivariate.CrankTable` of one
statistic for n = 0..n_max, built either from its generating function
(``provenance="gf"``: a fresh table from its builder, whose support is
checked when it is built) or from the enumeration oracle
(``provenance="oracle"``: the enumerated rows transposed into the columns
m >= 0, with their support and their symmetry m <-> -m checked on the way).
Neither path makes a table that violates them.  ``cranktab table``,
``crosscheck`` and the tests build whole tables here; ``cranktab verify``
does not, it scans the GF columns as they stream (:mod:`cranktab.verify`).
"""

from __future__ import annotations

from functools import lru_cache

from cranktab import STATISTICS, bivariate
from cranktab.bivariate import CrankTable
from cranktab.series import Series


def _compress_full_rows(full_rows, statistic) -> list:
    """Columns m = 0..n_max of rows given as {m: count} dicts, verifying invariants."""
    for n, row in enumerate(full_rows):
        for m, c in row.items():
            if c and abs(m) > n:
                raise ValueError(
                    f"{statistic}: support violated at n={n}, m={m} (count {c})"
                )
            if row.get(-m, 0) != c:
                raise ValueError(f"{statistic}: asymmetric row at n={n}, m={m}")
    return [[row.get(m, 0) for row in full_rows] for m in range(len(full_rows))]


@lru_cache(maxsize=None)
def _oracle_table(statistic, n_max, k) -> CrankTable:
    from cranktab import brute

    cols = _compress_full_rows(brute.oracle_rows(statistic, n_max, k=k), statistic)
    label = f"kcrank({k})" if statistic == "kcrank" else statistic
    return CrankTable(label, n_max, "oracle", cols)


def build_table(statistic, n_max, provenance="gf", k=None) -> CrankTable:
    """The table of one statistic for n = 0..n_max; ``k`` (>= 2) is for kcrank only.

    A GF table is built afresh on each call.  An oracle table is cached and
    shared, because the enumeration is slow; treat it as immutable.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    bivariate.check_k(statistic, k)
    if provenance == "oracle":
        return _oracle_table(statistic, n_max, k)
    if provenance != "gf":
        raise ValueError(f"unknown provenance {provenance!r}")
    if statistic == "crank":
        return bivariate.crank_gf(n_max)
    if statistic == "ocrank":
        return bivariate.overline_crank_gf(n_max)
    if statistic == "m2crank":
        return bivariate.m2_crank_gf(n_max)
    if statistic == "kcrank":
        return bivariate.kcrank_gf(k, n_max)
    return bivariate.rank_gf(n_max)


def diff_column(table: CrankTable, m: int) -> Series:
    """The series ``n -> T[m-1][n] - T[m][n]`` for fixed m >= 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return table.column(m - 1) - table.column(m)


def monotone_diff_row(table: CrankTable, m: int) -> Series:
    """The series of successive-n differences ``T[m][n] - T[m][n-1]``.

    Starts at n = 1; the n = 0 coefficient is 0.
    """
    col = table.column(m).coeffs
    return Series(table.order, [0] + [b - a for a, b in zip(col, col[1:])])
