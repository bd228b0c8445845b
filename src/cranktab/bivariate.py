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

Builders are memoized; the returned objects are shared and must be treated
as immutable.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import sub

from cranktab.series import (
    Series,
    overpartition_series_theta,
    partition_series_pentagonal,
)


class BivariateSeries:
    """Series in q whose coefficients are Laurent polynomials in z.

    Stored by column: ``columns[bound + m]`` lists the coefficients of
    ``z**m q**n`` for n = 0..order.  The builders below put one list at both
    ``m`` and ``-m``.
    """

    __slots__ = ("order", "bound", "_columns")

    def __init__(self, order: int, columns):
        self.order = order
        self.bound = len(columns) // 2
        self._columns = columns

    def row(self, n: int) -> dict:
        """The nonzero coefficients ``{m: [z**m q**n]}`` of one power of q."""
        return {m - self.bound: col[n] for m, col in enumerate(self._columns) if col[n]}

    def coeff(self, n: int, m: int) -> int:
        """Coefficient of ``z**m q**n``; zero whenever ``|m|`` exceeds the bound."""
        if not 0 <= n <= self.order:
            raise IndexError(f"exponent {n} outside truncation order {self.order}")
        if abs(m) > self.bound:
            return 0
        return self._columns[self.bound + m][n]

    def column(self, m: int) -> Series:
        """Fixed-z-power slice: the series ``n -> [z**m q**n]``."""
        if abs(m) > self.bound:
            return Series.zero(self.order)
        return Series(self.order, self._columns[self.bound + m])

    def nonneg_columns(self) -> list:
        """The coefficient lists of columns m = 0..bound: shared, not copied."""
        return self._columns[self.bound:]

    def row_sum_series(self) -> Series:
        """Specialization z = 1: the series of row sums."""
        return Series(self.order, [sum(cells) for cells in zip(*self._columns)])


def _from_columns(order: int, base_of, d: int, a: int = 1) -> BivariateSeries:
    """The GF whose column m is ``base_of(order) * S_|m|(q**d)``.

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
    return BivariateSeries(order, half[:0:-1] + half)


@lru_cache(maxsize=None)
def crank_gf(order: int) -> BivariateSeries:
    """Crank generating function ``(q;q)_inf / ((zq;q)_inf (q/z;q)_inf)``."""
    return _from_columns(order, partition_series_pentagonal, 1)


@lru_cache(maxsize=None)
def overline_crank_gf(order: int) -> BivariateSeries:
    """First-residual-crank GF: the crank GF times ``(-q;q)_inf``."""
    return _from_columns(order, overpartition_series_theta, 1)


@lru_cache(maxsize=None)
def m2_crank_gf(order: int) -> BivariateSeries:
    """Second-residual-crank GF.

    The crank GF with ``q -> q**2`` (odd rows vanish) times
    ``(-q;q)_inf / (q;q**2)_inf``.  Since ``(q**2;q**2)_inf (q;q**2)_inf``
    is ``(q;q)_inf``, its columns are ``S_m(q**2)`` times the overpartition
    series.
    """
    return _from_columns(order, overpartition_series_theta, 2)


@lru_cache(maxsize=None)
def kcrank_gf(k: int, order: int) -> BivariateSeries:
    """k-crank GF for k-colored partitions: crank GF times ``(q;q)_inf**(1-k)``."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return _from_columns(order, lambda n: partition_series_pentagonal(n, k), 1)


@lru_cache(maxsize=None)
def rank_gf(order: int) -> BivariateSeries:
    """Dyson-rank GF ``sum_n q**(n*n) / ((zq;q)_n (q/z;q)_n)``."""
    g = _from_columns(order, partition_series_pentagonal, 1, a=3)
    g._columns[g.bound][0] += 1  # the empty partition, of rank 0
    return g


def check_gf_invariants(g: BivariateSeries) -> None:
    """Raise if a crank-type GF violates z <-> 1/z symmetry or |m| <= n support."""
    for m in range(g.bound + 1):
        pos, neg = g.column(m), g.column(-m)
        for n in range(g.order + 1):
            if pos[n] != neg[n]:
                raise ValueError(f"symmetry violated at n={n}, m={m}")
            if n < m and pos[n]:
                raise ValueError(f"support violated at n={n}, m={m}")
