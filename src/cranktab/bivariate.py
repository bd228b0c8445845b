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
It may start at any column ``top`` from the seeds B_(top+1), ..., B_(top+s),
each a sum of O(sqrt(N)) shifted copies of ``base`` (zero at top = N).
Each base is a power of the reciprocal of a sparse series with O(sqrt(N))
terms (see :mod:`cranktab.series`): ``1/(q;q)_inf`` and ``1/(q;q)_inf**k``
of Euler's pentagonal series, the overpartition base of Gauss's
``phi(-q)``.  One pass of the power recurrence builds it, O(N**1.5) for
every k.

Each builder's docstring gives the product form it equals.  The row for
``q**1`` comes out as ``z - 1 + 1/z`` from the j = 1, 2 terms: the crank GF
itself encodes the conventional signed counts at n = 1 and no special-casing
is needed downstream.  The rank's columns sum to ``1/(q;q)_inf - 1``: they
miss the empty partition, which ``rank_gf`` adds at ``z**0 q**0``.

Every builder returns a :class:`CrankTable`, the one count-table type of the
package (:func:`cranktab.brute.oracle_table` also makes it by enumeration).
Every statistic here has rows symmetric in m, so a table stores the columns
m >= 0 only, and it checks the |m| <= n support when it is made.  Exports
(:meth:`CrankTable.write`) stream one ``%`` format per row: CSV with header
``n,m,count`` in (n asc, m asc) order over the full -n..n range, and JSON
``{statistic, n_max, rows: [{n, counts}]}`` with counts as decimal strings,
so consumers never face integer overflow.

:func:`gf_columns` streams one GF's columns from m = top down to 0;
:func:`gf_table`, which takes the statistic by name, and each builder
collect them into a fresh table (the columns m <= ``top`` only, for the
identity catalog, when given), and nothing is memoized, so a table lives
only as long as its caller keeps it.  ``cranktab verify`` scans the stream
itself and never holds a whole table (see :mod:`cranktab.verify`).
"""

from __future__ import annotations

import json
from collections import deque
from operator import add, sub

from cranktab.series import (
    Series,
    overpartition_series_theta,
    partition_series_pentagonal,
)


class CrankTable:
    """Weighted counts M(m, n) of one statistic for n = 0..order.

    ``columns[m][n]`` is M(m, n) = M(-m, n) for 0 <= m <= ``bound`` <= ``order``:
    the rows are symmetric in m, so only the columns m >= 0 are stored.  The
    |m| <= n support (column m vanishes below q**m) is checked when the table
    is made.  A whole table has ``bound == order``; on a low-column one, a
    read of a column bound < |m| <= order raises ``IndexError``, and
    :meth:`row`, :meth:`row_sum_series` and :meth:`write`, which need every
    column, raise ``ValueError``.
    """

    __slots__ = ("label", "order", "columns")

    def __init__(self, label: str, order: int, columns: list):
        for m, col in enumerate(columns):
            if any(col[:m]):
                raise ValueError(f"{label}: support violated in column m={m}")
        self.label = label
        self.order = order
        self.columns = columns

    @property
    def bound(self) -> int:
        return len(self.columns) - 1

    def _check_row(self, n: int) -> None:
        if not 0 <= n <= self.order:
            raise IndexError(f"n={n} outside table range 0..{self.order}")

    def _stored(self, m: int) -> int:
        m = abs(m)
        if self.bound < m <= self.order:
            raise IndexError(f"{self.label}: column m={m} is past the stored bound {self.bound}")
        return m

    def _check_whole(self) -> None:
        if self.bound < self.order:
            raise ValueError(f"{self.label}: only the columns m <= {self.bound} are stored")

    def _cells(self, n: int):
        """The pairs (m, M(m, n)) for m = -n..n."""
        half = [col[n] for col in self.columns[: n + 1]]
        return zip(range(-n, n + 1), half[:0:-1] + half)

    def count(self, m: int, n: int) -> int:
        """M(m, n); zero outside |m| <= n."""
        self._check_row(n)
        m = self._stored(m)
        return self.columns[m][n] if m <= n else 0

    def row(self, n: int) -> dict:
        """The nonzero counts ``{m: M(m, n)}`` of one row, m ascending."""
        self._check_whole()
        self._check_row(n)
        return {m: c for m, c in self._cells(n) if c}

    def column(self, m: int) -> Series:
        """The series ``n -> M(m, n)``; zero when |m| exceeds the order."""
        m = self._stored(m)
        if m > self.order:
            return Series.zero(self.order)
        return Series(self.order, self.columns[m])

    def row_sum_series(self) -> Series:
        """Specialization z = 1: the series of row sums."""
        self._check_whole()
        return Series(self.order, [2 * sum(cells) - cells[0] for cells in zip(*self.columns)])

    def write(self, fh, fmt: str) -> None:
        """Export to the text stream ``fh`` ("csv" or "json"), one row at a time.

        The JSON bytes are those of ``json.dumps(obj, indent=2) + "\\n"`` for
        ``obj = {"statistic", "n_max", "rows": [{"n", "counts": {m: count}}]}``
        with m and count as decimal strings.  The per-m text of a cell is
        made once per export, and each row n is one ``%`` format of the
        template joined from the slice m = -n..n with the row's counts.
        """
        self._check_whole()
        if fmt == "csv":
            fh.write("n,m,count\n")
            labels = [f"{m}," for m in range(-self.order, self.order + 1)]
        elif fmt == "json":
            fh.write(f'{{\n  "statistic": {json.dumps(self.label)},\n'
                     f'  "n_max": {self.order},\n  "rows": [\n')
            labels = [f'        "{m}": "%d"' for m in range(-self.order, self.order + 1)]
        else:
            raise ValueError(f"unknown format {fmt!r}")
        for n, row in enumerate(zip(*self.columns)):
            cells = labels[self.order - n : self.order + n + 1]
            if fmt == "csv":
                template = f"{n}," + f"%d\n{n},".join(cells) + "%d\n"
            else:
                sep = ",\n" if n else ""
                template = (f'{sep}    {{\n      "n": {n},\n      "counts": {{\n'
                            + ",\n".join(cells) + "\n      }\n    }")
            fh.write(template % (row[n:0:-1] + row[: n + 1]))
        if fmt == "json":
            fh.write("\n  ]\n}\n")


# statistic -> (d, a) of its column form; see the module docstring
_FORMS = {"crank": (1, 1), "ocrank": (1, 1), "m2crank": (2, 1), "kcrank": (1, 1),
          "rank": (1, 3)}


def check_k(statistic: str, k: int | None) -> None:
    """Raise ``ValueError`` unless k >= 2 is given for the k-crank and only for it."""
    if (statistic == "kcrank") != (k is not None) or (k is not None and k < 2):
        raise ValueError(f"{statistic}: k={k}; kcrank needs k >= 2, and no other statistic takes k")


def _cumulative(base: list, a: int, d: int, m: int) -> list:
    """``B_m = base * R_m(q**d)``, one shifted add or subtract of ``base`` per term of R_m."""
    size = len(base)
    b = [0] * size
    j = 1
    while (e := d * ((a * j * j - j) // 2 + j * m)) < size:
        b[e:] = map(add if j % 2 else sub, b[e:], base)
        j += 1
    return b


def gf_columns(statistic: str, order: int, k: int | None = None, top: int | None = None):
    """Yield ``(m, column m)`` of the GF of one statistic for m = top down to 0.

    Column m is a list of the counts M(m, n) for n = 0..order.  ``k`` is the
    number of colors of the k-crank.  ``top`` defaults to ``order`` and is
    clamped to it.  ``B_m = base * R_m(q**d)`` obeys
    ``B_m = q**(d*(m + c)) * (base - B_(m+s))`` with ``s = a`` and
    ``c = (a - 1) / 2``, and column m is ``B_m - B_(m+1)``.  The window
    starts from B_(top+1), ..., B_(top+s) (:func:`_cumulative`; zero at
    top = order).  Filling m from the top down keeps only the s latest B
    lists, so a consumer that keeps few columns runs in O(order) memory, and
    a pass costs O(order * (top + sqrt(order))).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if top is not None and top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    if statistic not in _FORMS:
        raise ValueError(f"unknown statistic {statistic!r}")
    check_k(statistic, k)
    d, a = _FORMS[statistic]
    if statistic in ("ocrank", "m2crank"):
        base = overpartition_series_theta(order).coeffs
    else:
        base = partition_series_pentagonal(order, k or 1).coeffs
    top = order if top is None else min(top, order)
    size = order + 1
    zero = [0] * size
    # B_(m+1), ..., B_(m+s)
    window = deque((_cumulative(base, a, d, top + i) for i in range(1, a + 1)), maxlen=a)
    for m in range(top, -1, -1):
        e = d * (m + (a - 1) // 2)
        b = [0] * e + list(map(sub, base[: size - e], window[-1])) if e < size else zero
        column = list(map(sub, b, window[0]))
        if statistic == "rank" and m == 0:
            column[0] += 1  # the empty partition, of rank 0
        yield m, column
        window.appendleft(b)


def gf_table(statistic: str, order: int, k: int | None = None, top: int | None = None) -> CrankTable:
    """A fresh table of the GF of one statistic: the columns m <= ``top`` of :func:`gf_columns`."""
    columns = [column for _, column in gf_columns(statistic, order, k, top)][::-1]
    label = statistic if k is None else f"{statistic}({k})"
    return CrankTable(label, order, columns)


def crank_gf(order: int, top: int | None = None) -> CrankTable:
    """Crank generating function ``(q;q)_inf / ((zq;q)_inf (q/z;q)_inf)``."""
    return gf_table("crank", order, top=top)


def overline_crank_gf(order: int, top: int | None = None) -> CrankTable:
    """First-residual-crank GF: the crank GF times ``(-q;q)_inf``."""
    return gf_table("ocrank", order, top=top)


def m2_crank_gf(order: int, top: int | None = None) -> CrankTable:
    """Second-residual-crank GF.

    The crank GF with ``q -> q**2`` (odd rows vanish) times
    ``(-q;q)_inf / (q;q**2)_inf``.  Since ``(q**2;q**2)_inf (q;q**2)_inf``
    is ``(q;q)_inf``, its columns are ``S_m(q**2)`` times the overpartition
    series.
    """
    return gf_table("m2crank", order, top=top)


def kcrank_gf(k: int, order: int, top: int | None = None) -> CrankTable:
    """k-crank GF for k-colored partitions: crank GF times ``(q;q)_inf**(1-k)``."""
    return gf_table("kcrank", order, k, top)


def rank_gf(order: int) -> CrankTable:
    """Dyson-rank GF ``sum_n q**(n*n) / ((zq;q)_n (q/z;q)_n)``."""
    return gf_table("rank", order)
