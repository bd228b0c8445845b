"""Two-variable crank and rank generating functions, truncated in q.

The coefficient of ``z**m q**n`` is the weighted count of objects of size n
with crank (or rank) m.  Every generating function here is built one column
(fixed power of z) at a time from a Lambert-type closed form, the crank's
(Garvan, Trans. AMS 305, 1988; Andrews-Garvan, Bull. AMS 18, 1988) with a = 1
or the rank's (Atkin-Swinnerton-Dyer, Proc. LMS 4, 1954) with a = 3::

    sum_n M(m, n) q**n = S_m(q) / (q;q)_inf,
    S_m(q) = sum_{j>=1} (-1)**(j-1) q**((a j**2 - j)/2 + j|m|) (1 - q**j).

Column m of each statistic is ``base * S_m(q**d)`` (:func:`gf_base` gives
the base); the GF equals the product form beside it::

    statistic  base                    d  a  product form
    crank      1/(q;q)_inf             1  1  (q;q)_inf / ((zq;q)_inf (q/z;q)_inf)
    ocrank     (-q;q)_inf / (q;q)_inf  1  1  the crank GF times (-q;q)_inf
    m2crank    (-q;q)_inf / (q;q)_inf  2  1  the crank GF at q -> q**2, times
                                             (-q;q)_inf / (q;q**2)_inf; the base as
                                             (q**2;q**2)_inf (q;q**2)_inf = (q;q)_inf
    kcrank     1/(q;q)_inf**k          1  1  the crank GF times (q;q)_inf**(1-k)
    rank       1/(q;q)_inf             1  3  sum_n q**(n*n) / ((zq;q)_n (q/z;q)_n),
                                             plus 1 at z**0 q**0

No column sums its terms one by one.  With
``R_m(q) = sum_{j>=1} (-1)**(j-1) q**((a j**2 - j)/2 + j m)`` the column factor
is ``S_m = R_m - R_(m+1)``, and shifting j by one gives
``R_m = q**(m + c) (1 - R_(m+s))`` with (c, s) = (0, 1) for a = 1 and (1, 3)
for a = 3.  So the cumulative column ``B_m = base * R_m(q**d)`` is one
shifted subtraction from ``B_(m+s)``, and column m is ``B_m - B_(m+1)``.
B_m vanishes below ``q**(d(m + c))``, so it is kept and subtracted from that
cell on only: O(N) per column and O(N**2) for the whole GF, about 0.75 N**2
subtractions for d = 1 and 0.375 N**2 for d = 2.  It may start at any
column ``top`` from the seeds B_(top+1), ..., B_(top+s), each a sum of
O(sqrt(N)) shifted copies of ``base`` (zero at top = N).
Each base is a power of the reciprocal of a sparse series with O(sqrt(N))
terms (see :mod:`cranktab.series`): ``1/(q;q)_inf`` and ``1/(q;q)_inf**k``
of Euler's pentagonal series, the overpartition base of Gauss's
``phi(-q)``.  One pass of the power recurrence builds it, O(N**1.5) for
every k.  A caller that holds a base already, such as the store of a
``verify`` run (:class:`cranktab.identities.Run`), hands it to the pass,
which then builds none.

The row for ``q**1`` comes out as ``z - 1 + 1/z`` from the j = 1, 2 terms:
the crank GF itself encodes the conventional signed counts at n = 1 and no
special-casing is needed downstream.  The rank's columns sum to
``1/(q;q)_inf - 1``: they miss the empty partition, which column 0 adds at
``z**0 q**0``.

A GF is read in one of two shapes, each streamed and never held whole.
:func:`gf_columns` yields its columns from m = top down to 0, and
``cranktab verify`` scans them as they pass (see :mod:`cranktab.verify`).
:func:`gf_rows` yields row n, the counts for m = -n..n, straight from the
same closed form, for the consumers that read whole rows: export and the
cross-check with :func:`cranktab.brute.oracle_rows`, which gives rows of
the same shape.  :func:`write_rows` exports either source with one ``%``
format per row: CSV with header ``n,m,count`` in (n asc, m asc) order over
the full -n..n range, and JSON ``{statistic, n_max, rows: [{n, counts}]}``
with counts as decimal strings, so consumers never face integer overflow.
Both check their arguments at the call, before building anything: a bad
statistic, order, ``top`` or k (:func:`cranktab.check_k`) raises ``UsageError``.

:func:`gf_table`, which takes the statistic by name, and the named builders
:func:`crank_gf` and :func:`overline_crank_gf` collect the columns m <= ``top``
of one pass into a fresh list of :class:`~cranktab.series.Series`, item m the
column m, for the identity catalog's few low columns.  Every statistic here
has rows symmetric in m, so column m is also column -m; the |m| <= n support
is checked as the list is made.  Nothing is memoized, so a list lives only
as long as its caller keeps it.
"""

from __future__ import annotations

import json
from collections import deque
from operator import add, sub

from cranktab import UsageError, check_k, check_size
from cranktab.series import (
    Series,
    overpartition_series_theta,
    partition_series_pentagonal,
)


# statistic -> (d, a) of its column form; see the module docstring
_FORMS = {"crank": (1, 1), "ocrank": (1, 1), "m2crank": (2, 1), "kcrank": (1, 1),
          "rank": (1, 3)}


def table_label(statistic: str, k: int | None = None) -> str:
    """The name of one statistic's table: the statistic, with k for the k-crank."""
    return statistic if k is None else f"{statistic}({k})"


def _check(statistic: str, order: int, k: int | None) -> None:
    """Raise ``UsageError`` for a bad statistic, order or k (:func:`cranktab.check_k`)."""
    check_size("order", order)
    if statistic not in _FORMS:
        raise UsageError(f"unknown statistic {statistic!r}")
    check_k(statistic, k)


def base_name(statistic: str, k: int | None = None) -> str:
    """The series that :func:`gf_base` builds for ``statistic``; ocrank and m2crank share one."""
    return "overpartition" if statistic in ("ocrank", "m2crank") else f"partition^{k or 1}"


def gf_base(statistic: str, order: int, k: int | None = None) -> Series:
    """The base of one statistic's GF (see the table above); checks the arguments first."""
    _check(statistic, order, k)
    if base_name(statistic) == "overpartition":
        return overpartition_series_theta(order)
    return partition_series_pentagonal(order, k or 1)


def _form(statistic: str, order: int, k: int | None, base: Series | None) -> tuple:
    """``(d, a, base coefficients)`` of one statistic at ``order``, once its arguments pass.

    The base is built unless ``base``, the :func:`gf_base` of the same
    arguments, is given; one at another order raises ``ValueError``.
    """
    if base is None:
        base = gf_base(statistic, order, k)  # checks the arguments first
    else:
        _check(statistic, order, k)
        if base.order != order:
            raise ValueError(f"the base is at order {base.order}, not {order}")
    return (*_FORMS[statistic], base.coeffs)


def _cumulative(base: list, a: int, d: int, m: int) -> list:
    """``B_m = base * R_m(q**d)``, one shifted add or subtract of ``base`` per term of R_m."""
    size = len(base)
    b = [0] * size
    j = 1
    while (e := d * ((a * j * j - j) // 2 + j * m)) < size:
        b[e:] = map(add if j % 2 else sub, b[e:], base)
        j += 1
    return b


def gf_columns(statistic: str, order: int, k: int | None = None, top: int | None = None,
               base: Series | None = None):
    """Yield ``(m, column m)`` of the GF of one statistic for m = top down to 0.

    Column m is a list of the counts M(m, n) for n = 0..order.  ``k`` is the
    number of colors of the k-crank.  ``top`` defaults to ``order`` and is
    clamped to it.  ``base``, when given, is the GF's base at ``order``
    (:func:`gf_base`), which the pass then does not build.

    ``B_m = base * R_m(q**d)`` obeys ``B_m = q**(d*(m + c)) * (base - B_(m+s))``
    with ``s = a`` and ``c = (a - 1) / 2``, and column m is ``B_m - B_(m+1)``.
    B_m vanishes below q**start(m), ``start(j) = min(d*(j + c), order + 1)``,
    so the pass keeps only its tail ``t_m = B_m[start(m):]``: with
    ``e = start(m)`` and ``f = start(m + s)``, ``t_m = base[:f] + (base[f:] -
    t_(m+s))`` cut to ``order + 1 - e`` cells, and column m is e zeros, then
    ``t_m[:d]``, then ``t_m[d:] - t_(m+1)``.  No cell below the start of
    either operand is subtracted: about 0.75 * order**2 subtractions for d = 1
    and 0.375 * order**2 for d = 2.  The window starts from the tails of
    B_(top+1), ..., B_(top+s) (:func:`_cumulative`; empty at top = order).
    Filling m from the top down keeps only the s latest tails, so a consumer
    that keeps few columns runs in O(order) memory, and a pass costs
    O(order * (top + sqrt(order))).  Bad arguments raise
    :class:`~cranktab.UsageError` at the call.
    """
    if top is not None:
        check_size("top", top)
    d, a, base = _form(statistic, order, k, base)
    top = order if top is None else min(top, order)
    size = order + 1

    def start(j):
        return min(d * (j + (a - 1) // 2), size)

    def columns():
        # the tails t_(m+1), ..., t_(m+s)
        window = deque((_cumulative(base, a, d, j)[start(j):] for j in range(top + 1, top + a + 1)),
                       maxlen=a)
        for m in range(top, -1, -1):
            e, f = start(m), start(m + a)
            tail = base[: min(f, size - e)]
            tail += map(sub, base[f : size - e], window[-1])
            column = [0] * e
            column += tail[:d]
            column += map(sub, tail[d:], window[0])
            if statistic == "rank" and m == 0:
                column[0] += 1  # the empty partition, of rank 0
            yield m, column
            window.appendleft(tail)

    return columns()


def gf_rows(statistic: str, order: int, k: int | None = None):
    """Yield row n of the GF of one statistic for n = 0..order.

    Row n is a list of the counts M(m, n) for m = -n..n.  At row n the
    cumulative column B_m (see :func:`gf_columns`) is a sum over j of
    ``(-1)**(j-1) base[n - e_j - d*j*m]`` with ``e_j = d*(a*j*j - j)/2``, so
    the strided slice ``base[n - e_j :: -d*j]`` gives term j for every m at
    once, and M(m, n) = B_m[n] - B_(m+1)[n].  Only the base and one row are
    held.  A row costs O(n log n), so rows cost about 3 times the column
    pass (2.3 to 3.4 times, base included, over the statistics at orders
    1000 and 2000); they serve the consumers that read whole rows.  Bad
    arguments raise :class:`~cranktab.UsageError` at the call.
    """
    d, a, base = _form(statistic, order, k, None)
    e = d * ((a - 1) // 2)  # e_1

    def rows():
        for n in range(order + 1):
            acc = base[n - e :: -d] if n >= e else []  # B_m[n] for m = 0..n+1
            acc += [0] * (n + 2 - len(acc))
            j = 2
            while (start := n - d * ((a * j * j - j) // 2)) >= 0:
                terms = base[start :: -d * j]
                acc[: len(terms)] = map(add if j % 2 else sub, acc, terms)
                j += 1
            half = list(map(sub, acc, acc[1:]))
            if statistic == "rank" and n == 0:
                half[0] += 1  # the empty partition, of rank 0
            yield half[:0:-1] + half

    return rows()


def write_rows(fh, fmt: str, label: str, n_max: int, rows) -> None:
    """Export the rows n = 0..n_max of one table to the text stream ``fh``.

    ``fmt`` is "csv" or "json"; row n of ``rows`` lists the counts M(m, n)
    for m = -n..n.  The JSON bytes are those of ``json.dumps(obj, indent=2)
    + "\\n"`` for ``obj = {"statistic", "n_max", "rows": [{"n", "counts":
    {m: count}}]}`` with m and count as decimal strings.  Each row is one
    ``%`` format of a template joined from per-m cell texts made once.
    """
    if fmt == "csv":
        fh.write("n,m,count\n")
        labels = [f"{m}," for m in range(-n_max, n_max + 1)]
    elif fmt == "json":
        fh.write(f'{{\n  "statistic": {json.dumps(label)},\n'
                 f'  "n_max": {n_max},\n  "rows": [\n')
        labels = [f'        "{m}": "%d"' for m in range(-n_max, n_max + 1)]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    for n, row in zip(range(n_max + 1), rows, strict=True):
        cells = labels[n_max - n : n_max + n + 1]
        if fmt == "csv":
            template = f"{n}," + f"%d\n{n},".join(cells) + "%d\n"
        else:
            sep = ",\n" if n else ""
            template = (f'{sep}    {{\n      "n": {n},\n      "counts": {{\n'
                        + ",\n".join(cells) + "\n      }\n    }")
        fh.write(template % tuple(row))
    if fmt == "json":
        fh.write("\n  ]\n}\n")


def gf_table(statistic: str, order: int, k: int | None = None, top: int | None = None,
             base: Series | None = None) -> list:
    """The columns m = 0..min(top, order) of :func:`gf_columns`, as a list of :class:`Series`.

    Each column m is checked to vanish below q**m (the |m| <= n support);
    a violation raises ``ValueError`` naming the table and m.
    """
    columns = []
    for m, column in gf_columns(statistic, order, k, top, base):
        if any(column[:m]):
            raise ValueError(f"{table_label(statistic, k)}: support violated in column m={m}")
        columns.append(Series(order, column))
    return columns[::-1]


def crank_gf(order: int, top: int | None = None, base: Series | None = None) -> list:
    """Crank generating function ``(q;q)_inf / ((zq;q)_inf (q/z;q)_inf)``."""
    return gf_table("crank", order, top=top, base=base)


def overline_crank_gf(order: int, top: int | None = None, base: Series | None = None) -> list:
    """First-residual-crank GF: the crank GF times ``(-q;q)_inf``."""
    return gf_table("ocrank", order, top=top, base=base)

