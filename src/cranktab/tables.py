"""Crank-statistic tables with symmetry-compressed storage and export.

A :class:`CrankTable` holds the weighted counts T[n][m] for one statistic,
built either from its generating function (``provenance="gf"``) or from the
enumeration oracle (``provenance="oracle"``).  Every statistic has symmetric
rows (m <-> -m), so only m >= 0 is stored.  Both builders verify the |m| <= n
support while compressing, and the oracle builder also verifies the symmetry
(GF columns are symmetric by construction); neither constructs a table that
violates them.

Exports: CSV with header ``n,m,count`` in (n asc, m asc) order with the full
-n..n range expanded, and JSON ``{statistic, n_max, rows: [{n, counts}]}``
with counts serialized as decimal strings so consumers never face integer
overflow.
"""

from __future__ import annotations

import io
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
    """Weighted counts of one crank-type statistic for n = 0..n_max."""

    __slots__ = ("statistic", "k", "n_max", "provenance", "_half")

    def __init__(self, statistic, n_max, provenance, half_rows, k=None):
        self.statistic = statistic
        self.k = k
        self.n_max = n_max
        self.provenance = provenance
        self._half = half_rows  # _half[n][m] for 0 <= m <= n

    @property
    def label(self) -> str:
        return f"kcrank({self.k})" if self.statistic == "kcrank" else self.statistic

    def count(self, m: int, n: int) -> int:
        """T[m][n]; symmetric in m, zero outside |m| <= n."""
        if not 0 <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range 0..{self.n_max}")
        m = abs(m)
        return self._half[n][m] if m <= n else 0

    def row_dict(self, n: int) -> dict:
        """Nonzero entries of row n over the full -n..n range."""
        out = {}
        for m in range(-n, n + 1):
            c = self.count(m, n)
            if c:
                out[m] = c
        return out

    def row_sum(self, n: int) -> int:
        half = self._half[n]
        return half[0] + 2 * sum(half[1:])

    # -- export -------------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,m,count\n")
        for n in range(self.n_max + 1):
            for m in range(-n, n + 1):
                buf.write(f"{n},{m},{self.count(m, n)}\n")
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        rows = []
        for n in range(self.n_max + 1):
            counts = {str(m): str(self.count(m, n)) for m in range(-n, n + 1)}
            rows.append({"n": n, "counts": counts})
        return {"statistic": self.label, "n_max": self.n_max, "rows": rows}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


def _compress_full_rows(full_rows, statistic) -> list:
    """Symmetry-compress rows given as {m: count} dicts, verifying invariants."""
    half = []
    for n, row in enumerate(full_rows):
        for m, c in row.items():
            if c and abs(m) > n:
                raise ValueError(
                    f"{statistic}: support violated at n={n}, m={m} (count {c})"
                )
            if row.get(-m, 0) != c:
                raise ValueError(f"{statistic}: asymmetric row at n={n}, m={m}")
        half.append([row.get(m, 0) for m in range(n + 1)])
    return half


def _compress_gf(g: bivariate.BivariateSeries, n_max: int, statistic: str) -> list:
    """Half rows n = 0..n_max of a GF, read off its m >= 0 columns.

    The column form is symmetric by construction; the support is checked:
    column m must vanish below ``q**m``.
    """
    cols = [g.column(m).coeffs for m in range(g.bound + 1)]
    for m, col in enumerate(cols):
        for n in range(min(m, n_max + 1)):
            if col[n]:
                raise ValueError(f"{statistic}: GF support violated at n={n}, m={m}")
    return [[cols[m][n] for m in range(n + 1)] for n in range(n_max + 1)]


@lru_cache(maxsize=None)
def _build_table_cached(statistic, n_max, provenance, k, order) -> CrankTable:
    if provenance == "gf":
        half = _compress_gf(GF_BUILDERS[statistic](order, k), n_max, statistic)
    elif provenance == "oracle":
        rows = brute.oracle_rows(statistic, n_max, k=k)
        half = _compress_full_rows(rows, statistic)
    else:
        raise ValueError(f"unknown provenance {provenance!r}")
    return CrankTable(statistic, n_max, provenance, half, k=k)


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
    return Series(
        table.n_max,
        [table.count(m - 1, n) - table.count(m, n) for n in range(table.n_max + 1)],
    )


def monotone_diff_row(table: CrankTable, m: int) -> Series:
    """The series of successive-n differences ``T[m][n] - T[m][n-1]``.

    Starts at n = 1; the n = 0 coefficient is 0.
    """
    c = [0] * (table.n_max + 1)
    for n in range(1, table.n_max + 1):
        c[n] = table.count(m, n) - table.count(m, n - 1)
    return Series(table.n_max, c)
