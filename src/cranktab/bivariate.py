"""Two-variable crank and rank generating functions, truncated in q.

The coefficient of ``z**m q**n`` is the weighted count of objects of size n
with crank (or rank) m.  Every generating function here is built one column
(fixed power of z) at a time from a Lambert-type closed form, the crank's
(Garvan, Trans. AMS 305, 1988; Andrews-Garvan, Bull. AMS 18, 1988) with a = 1
or the rank's (Atkin-Swinnerton-Dyer, Proc. LMS 4, 1954) with a = 3::

    sum_n M(m, n) q**n = S_m(q) / (q;q)_inf,
    S_m(q) = sum_{j>=1} (-1)**(j-1) q**((a j**2 - j)/2 + j|m|) (1 - q**j).

Column m of each statistic is ``base * S_m(q**d)``:

    statistic  builder            base                    d  a
    crank      crank_gf           1/(q;q)_inf             1  1
    ocrank     overline_crank_gf  (-q;q)_inf / (q;q)_inf  1  1
    m2crank    m2_crank_gf        (-q;q)_inf / (q;q)_inf  2  1
    kcrank     kcrank_gf          1/(q;q)_inf**k          1  1
    rank       rank_gf            1/(q;q)_inf             1  3  plus 1 at z**0 q**0

No column sums its terms one by one.  With
``R_m(q) = sum_{j>=1} (-1)**(j-1) q**((a j**2 - j)/2 + j m)`` the column factor
is ``S_m = R_m - R_(m+1)``, and shifting j by one gives
``R_m = q**(m + c) (1 - R_(m+s))`` with (c, s) = (0, 1) for a = 1 and (1, 3)
for a = 3.  So the cumulative column ``B_m = base * R_m(q**d)`` is one
shifted subtraction from ``B_(m+s)``, and column m is ``B_m - B_(m+1)``:
O(N) per column and O(N**2) for the whole GF, one operation per stored cell.
Each base is the reciprocal of a sparse series with O(sqrt(N)) terms (see
:mod:`cranktab.series`): ``1/(q;q)_inf`` and ``1/(q;q)_inf**k`` of Euler's
pentagonal series, the overpartition base of Gauss's ``phi(-q)``; a base
costs O(k N sqrt(N)).

Each builder's docstring gives the product form it equals.  The row for
``q**1`` comes out as ``z - 1 + 1/z`` from the j = 1, 2 terms: the crank GF
itself encodes the conventional signed counts at n = 1 and no special-casing
is needed downstream.  The rank's columns sum to ``1/(q;q)_inf - 1``: they
miss the empty partition, which ``rank_gf`` adds at ``z**0 q**0``.

Every builder returns a :class:`CrankTable`, the one count-table type of the
package (:mod:`cranktab.tables` also makes it from the enumeration oracle).
Every statistic here has rows symmetric in m, so a table stores the columns
m >= 0 only, and it checks the |m| <= n support when it is made.  Exports
(:meth:`CrankTable.write`) stream row by row: CSV with header ``n,m,count``
in (n asc, m asc) order over the full -n..n range, and JSON
``{statistic, n_max, rows: [{n, counts}]}`` with counts as decimal strings,
so consumers never face integer overflow.

Builders are memoized; the returned tables are shared and must be treated
as immutable.
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache
from operator import sub

from cranktab.series import (
    Series,
    overpartition_series_theta,
    partition_series_pentagonal,
)


class CrankTable:
    """Weighted counts M(m, n) of one statistic for n = 0..order.

    ``columns[m][n]`` is M(m, n) = M(-m, n) for 0 <= m <= order: the rows
    are symmetric in m, so only the columns m >= 0 are stored.  The |m| <= n
    support (column m vanishes below q**m) is checked here, when the table is
    made.  ``bound``, the largest stored |m|, equals ``order``.
    """

    __slots__ = ("label", "order", "provenance", "columns")

    def __init__(self, label: str, order: int, provenance: str, columns: list):
        for m, col in enumerate(columns):
            if any(col[:m]):
                raise ValueError(f"{label}: support violated in column m={m}")
        self.label = label
        self.order = order
        self.provenance = provenance
        self.columns = columns

    @property
    def bound(self) -> int:
        return len(self.columns) - 1

    def _check_row(self, n: int) -> None:
        if not 0 <= n <= self.order:
            raise IndexError(f"n={n} outside table range 0..{self.order}")

    def _cells(self, n: int):
        """The pairs (m, M(m, n)) for m = -n..n."""
        half = [col[n] for col in self.columns[: n + 1]]
        return zip(range(-n, n + 1), half[:0:-1] + half)

    def count(self, m: int, n: int) -> int:
        """M(m, n); zero outside |m| <= n."""
        self._check_row(n)
        m = abs(m)
        return self.columns[m][n] if m <= n else 0

    def row(self, n: int) -> dict:
        """The nonzero counts ``{m: M(m, n)}`` of one row, m ascending."""
        self._check_row(n)
        return {m: c for m, c in self._cells(n) if c}

    def column(self, m: int) -> Series:
        """The series ``n -> M(m, n)``; zero when |m| exceeds the order."""
        m = abs(m)
        if m > self.order:
            return Series.zero(self.order)
        return Series(self.order, self.columns[m])

    def row_sum_series(self) -> Series:
        """Specialization z = 1: the series of row sums."""
        return Series(self.order, [2 * sum(cells) - cells[0] for cells in zip(*self.columns)])

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
                     f'  "n_max": {self.order},\n  "rows": [\n')
        else:
            raise ValueError(f"unknown format {fmt!r}")
        for n in range(self.order + 1):
            cells = self._cells(n)
            if fmt == "csv":
                fh.write("".join(f"{n},{m},{c}\n" for m, c in cells))
            else:
                sep = ",\n" if n else ""
                counts = ",\n".join(f'        "{m}": "{c}"' for m, c in cells)
                fh.write(f'{sep}    {{\n      "n": {n},\n      "counts": {{\n{counts}\n'
                         f'      }}\n    }}')
        if fmt == "json":
            fh.write("\n  ]\n}\n")


def _columns(order: int, base_of, d: int, a: int = 1) -> list:
    """Columns m = 0..order of the GF whose column m is ``base_of(order) * S_m(q**d)``.

    ``B_m = base * R_m(q**d)`` obeys ``B_m = q**(d*(m + c)) * (base - B_(m+s))``
    with ``s = a`` and ``c = (a - 1) / 2``, and column m is ``B_m - B_(m+1)``.
    Filling m from the top down keeps only the s latest B lists.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    size = order + 1
    base = base_of(order).coeffs
    zero = [0] * size
    window = deque([zero] * a, maxlen=a)  # B_(m+1), ..., B_(m+s)
    half = [None] * size
    for m in range(order, -1, -1):
        e = d * (m + (a - 1) // 2)
        b = [0] * e + list(map(sub, base[: size - e], window[-1])) if e < size else zero
        half[m] = list(map(sub, b, window[0]))
        window.appendleft(b)
    return half


@lru_cache(maxsize=None)
def crank_gf(order: int) -> CrankTable:
    """Crank generating function ``(q;q)_inf / ((zq;q)_inf (q/z;q)_inf)``."""
    return CrankTable("crank", order, "gf", _columns(order, partition_series_pentagonal, 1))


@lru_cache(maxsize=None)
def overline_crank_gf(order: int) -> CrankTable:
    """First-residual-crank GF: the crank GF times ``(-q;q)_inf``."""
    return CrankTable("ocrank", order, "gf", _columns(order, overpartition_series_theta, 1))


@lru_cache(maxsize=None)
def m2_crank_gf(order: int) -> CrankTable:
    """Second-residual-crank GF.

    The crank GF with ``q -> q**2`` (odd rows vanish) times
    ``(-q;q)_inf / (q;q**2)_inf``.  Since ``(q**2;q**2)_inf (q;q**2)_inf``
    is ``(q;q)_inf``, its columns are ``S_m(q**2)`` times the overpartition
    series.
    """
    return CrankTable("m2crank", order, "gf", _columns(order, overpartition_series_theta, 2))


@lru_cache(maxsize=None)
def kcrank_gf(k: int, order: int) -> CrankTable:
    """k-crank GF for k-colored partitions: crank GF times ``(q;q)_inf**(1-k)``."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    cols = _columns(order, lambda n: partition_series_pentagonal(n, k), 1)
    return CrankTable(f"kcrank({k})", order, "gf", cols)


@lru_cache(maxsize=None)
def rank_gf(order: int) -> CrankTable:
    """Dyson-rank GF ``sum_n q**(n*n) / ((zq;q)_n (q/z;q)_n)``."""
    cols = _columns(order, partition_series_pentagonal, 1, a=3)
    cols[0][0] += 1  # the empty partition, of rank 0
    return CrankTable("rank", order, "gf", cols)
