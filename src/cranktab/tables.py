"""Crank-statistic tables stored as the m >= 0 columns of their counts.

A :class:`CrankTable` holds the weighted counts T[n][m] for one statistic,
built either from its generating function (``provenance="gf"``) or from the
enumeration oracle (``provenance="oracle"``).  Every statistic has symmetric
rows (m <-> -m), so only the columns m >= 0 are stored.  A GF-built table
holds the GF's own column lists, not a copy; its |m| <= n support is checked
when the table is built, one slice per column (the column form is symmetric
by construction).  An oracle-built table transposes the enumerated rows into
columns and checks both the support and the symmetry on the way.  Neither
builder constructs a table that violates them.

Exports (:meth:`CrankTable.write`) stream row by row: CSV with header
``n,m,count`` in (n asc, m asc) order with the full -n..n range expanded, and
JSON ``{statistic, n_max, rows: [{n, counts}]}`` with counts serialized as
decimal strings so consumers never face integer overflow.
"""

from __future__ import annotations

import json
from functools import lru_cache

from cranktab import bivariate, brute
from cranktab.series import Series

GF_BUILDERS = {  # statistic -> its GF at a truncation order; k is for kcrank only
    "crank": lambda order, k: bivariate.crank_gf(order),
    "ocrank": lambda order, k: bivariate.overline_crank_gf(order),
    "m2crank": lambda order, k: bivariate.m2_crank_gf(order),
    "kcrank": lambda order, k: bivariate.kcrank_gf(k, order),
    "rank": lambda order, k: bivariate.rank_gf(order),
}
STATISTICS = tuple(GF_BUILDERS)


class CrankTable:
    """Weighted counts of one crank-type statistic for n = 0..n_max.

    ``columns[m][n]`` is T[n][m] for 0 <= m <= n_max; it is 0 for n < m, and a
    column may run past n_max when the GF was built to a higher order.
    """

    __slots__ = ("statistic", "k", "n_max", "provenance", "columns")

    def __init__(self, statistic, n_max, provenance, columns, k=None):
        self.statistic = statistic
        self.k = k
        self.n_max = n_max
        self.provenance = provenance
        self.columns = columns

    @property
    def label(self) -> str:
        return f"kcrank({self.k})" if self.statistic == "kcrank" else self.statistic

    def count(self, m: int, n: int) -> int:
        """T[m][n]; symmetric in m, zero outside |m| <= n."""
        if not 0 <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range 0..{self.n_max}")
        m = abs(m)
        return self.columns[m][n] if m <= n else 0

    def column(self, m: int) -> list:
        """The counts T[n][m] for n = 0..n_max (all 0 when |m| > n_max)."""
        m = abs(m)
        if m > self.n_max:
            return [0] * (self.n_max + 1)
        return self.columns[m][: self.n_max + 1]

    def write(self, fh, fmt: str) -> None:
        """Export to the text stream ``fh`` ("csv" or "json"), one row at a time.

        The JSON bytes are those of ``json.dumps(obj, indent=2) + "\\n"`` for
        ``obj = {"statistic", "n_max", "rows": [{"n", "counts": {m: count}}]}``
        with m and count as decimal strings.
        """
        if fmt == "csv":
            fh.write("n,m,count\n")
        elif fmt == "json":
            fh.write(f'{{\n  "statistic": {json.dumps(self.label)},\n'
                     f'  "n_max": {self.n_max},\n  "rows": [\n')
        else:
            raise ValueError(f"unknown format {fmt!r}")
        cols = self.columns
        for n in range(self.n_max + 1):
            half = [cols[m][n] for m in range(n + 1)]
            cells = zip(range(-n, n + 1), half[:0:-1] + half)
            if fmt == "csv":
                fh.write("".join(f"{n},{m},{c}\n" for m, c in cells))
            else:
                sep = ",\n" if n else ""
                counts = ",\n".join(f'        "{m}": "{c}"' for m, c in cells)
                fh.write(f'{sep}    {{\n      "n": {n},\n      "counts": {{\n{counts}\n'
                         f'      }}\n    }}')
        if fmt == "json":
            fh.write("\n  ]\n}\n")


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
def _build_table_cached(statistic, n_max, provenance, k, order) -> CrankTable:
    if provenance == "gf":
        cols = GF_BUILDERS[statistic](order, k).nonneg_columns()
        for m, col in enumerate(cols):
            if any(col[:m]):  # column m must vanish below q**m
                raise ValueError(f"{statistic}: GF support violated in column m={m}")
        cols = cols[: n_max + 1]
    elif provenance == "oracle":
        cols = _compress_full_rows(brute.oracle_rows(statistic, n_max, k=k), statistic)
    else:
        raise ValueError(f"unknown provenance {provenance!r}")
    return CrankTable(statistic, n_max, provenance, cols, k=k)


def build_table(statistic, n_max, provenance="gf", k=None, order=None) -> CrankTable:
    """Build (or fetch from cache) the table for one statistic.

    ``order`` is the truncation order of the underlying generating function
    and defaults to ``n_max``; it must not be smaller.  Tables are cached and
    shared; treat them as immutable.
    """
    if statistic not in GF_BUILDERS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if statistic == "kcrank":
        if k is None or k < 2:
            raise ValueError("kcrank needs k >= 2")
    else:
        k = None
    if order is None:
        order = n_max
    if n_max > order:
        raise ValueError(f"n_max={n_max} exceeds truncation order {order}")
    return _build_table_cached(statistic, n_max, provenance, k, order)


def diff_column(table: CrankTable, m: int) -> Series:
    """The series ``n -> T[m-1][n] - T[m][n]`` for fixed m >= 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return Series(table.n_max, [a - b for a, b in zip(table.column(m - 1), table.column(m))])


def monotone_diff_row(table: CrankTable, m: int) -> Series:
    """The series of successive-n differences ``T[m][n] - T[m][n-1]``.

    Starts at n = 1; the n = 0 coefficient is 0.
    """
    col = table.column(m)
    return Series(table.n_max, [0] + [b - a for a, b in zip(col, col[1:])])
