"""Brute-force enumeration of partitions, overpartitions and colored partitions.

Everything in this module is deliberately independent of the generating
function machinery: objects are generated one by one and their statistics are
read straight off the definitions.  The resulting tables are the ground truth
that the series-built tables are checked against.  :func:`oracle_rows` gives
them as rows, row n the counts for m = -n..n, the shape of
:func:`cranktab.bivariate.gf_rows`, so one writer exports both and the
cross-check compares them row by row, up to n = :data:`ORACLE_CEILINGS`
of the statistic at most.  Each generator checks its arguments at the call.
This module imports no GF code.

Representations:

* a partition is a weakly decreasing tuple of positive ints;
* an overpartition is a weakly decreasing tuple of ``(value, overlined)``
  pairs where at most one copy of each value is overlined and, among equal
  values, the overlined copy comes first;
* a k-colored partition is a k-tuple of partitions.

Signed counting convention: a bare ``(1,)`` (as a partition, or as the
relevant subpartition of an overpartition) contributes weight -1 at crank 0
and +1 at cranks -1 and +1, so that the tables match the generating
functions' signed counts at n = 1.  The empty (sub)partition counts +1 at
crank 0.  Every object's weights sum to +1, so row sums still count objects.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Sequence

from cranktab import UsageError, check_k, check_size

Partition = tuple[int, ...]
Overpartition = tuple[tuple[int, bool], ...]

ORACLE_CEILINGS = {
    "crank": 60,
    "rank": 60,
    "ocrank": 25,
    "m2crank": 25,
    "kcrank": 25,
}


# -- generation --------------------------------------------------------------


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, weakly decreasing tuples.

    Deterministic order: descending lexicographic by part tuple.
    """
    check_size("n", n)
    return _partitions(n)


def _partitions(n: int) -> Iterator[Partition]:
    """The partitions of n in descending lexicographic order, stepped in place.

    A step lowers the last part above 1 by one and refills the rest greedily.
    """
    parts, ones = ([n], 0) if n > 1 else ([], n)  # the parts above 1; the count of 1s
    yield tuple(parts) + (1,) * ones
    while parts:
        part = parts.pop() - 1
        if part > 1:  # copies of it while they fit, then what remains
            copies, ones = divmod(part + 1 + ones, part)
            parts += [part] * copies
            if ones > 1:
                parts.append(ones)
                ones = 0
        else:  # a 2 became two 1s
            ones += 2
        yield tuple(parts) + (1,) * ones


def overpartitions(n: int) -> Iterator[Overpartition]:
    """All overpartitions of n, in canonical representation.

    For each base partition, every subset of its distinct part values may be
    overlined (on the first occurrence of the value).
    """
    check_size("n", n)
    return _overpartitions(n)


def _overpartitions(n: int) -> Iterator[Overpartition]:
    for base in _partitions(n):
        distinct = sorted(set(base), reverse=True)
        for mask in range(1 << len(distinct)):
            overlined = {v for i, v in enumerate(distinct) if mask >> i & 1}
            out = []
            seen: set[int] = set()
            for v in base:
                if v in overlined and v not in seen:
                    out.append((v, True))
                    seen.add(v)
                else:
                    out.append((v, False))
            yield tuple(out)


def colored_partitions(n: int, k: int) -> Iterator[tuple[Partition, ...]]:
    """All k-tuples of partitions with total size n.

    Fine for small n; the k-crank oracle table below counts by part-number
    histograms instead of materializing these tuples.
    """
    check_size("n", n)
    check_size("k", k)
    return _colored_partitions(n, k)


def _colored_partitions(n: int, k: int) -> Iterator[tuple[Partition, ...]]:
    if k == 0:
        if n == 0:
            yield ()
        return
    for size in range(n, -1, -1):
        for head in _partitions(size):
            for rest in _colored_partitions(n - size, k - 1):
                yield (head,) + rest


# -- statistics --------------------------------------------------------------


def rank(parts: Sequence[int]) -> int:
    """Dyson rank: largest part minus the number of parts."""
    if not parts:
        raise ValueError("rank of the empty partition is undefined")
    return parts[0] - len(parts)


def crank(parts: Sequence[int]) -> int:
    """Andrews-Garvan crank.

    The largest part when there are no ones; otherwise the number of parts
    larger than the number of ones, minus the number of ones.
    """
    if not parts:
        raise ValueError("crank of the empty partition is undefined")
    ones = sum(1 for p in parts if p == 1)
    if ones == 0:
        return parts[0]
    larger = sum(1 for p in parts if p > ones)
    return larger - ones


def kcrank(components: Sequence[Partition]) -> int:
    """k-crank of a k-colored partition: len(first) - len(second)."""
    if len(components) < 2:
        raise ValueError("k-crank needs at least 2 components")
    return len(components[0]) - len(components[1])


def crank_contributions(parts: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Weighted crank contributions of a partition, as (m, weight) pairs.

    Implements the signed convention at n = 1; see the module docstring.
    """
    parts = tuple(parts)
    if parts == ():
        return ((0, 1),)
    if parts == (1,):
        return ((0, -1), (-1, 1), (1, 1))
    return ((crank(parts), 1),)


def nonoverlined_subpartition(op: Overpartition) -> Partition:
    return tuple(v for v, over in op if not over)


def halved_even_subpartition(op: Overpartition) -> Partition:
    """Even non-overlined parts divided by two, as a partition."""
    return tuple(sorted((v // 2 for v, over in op if not over and v % 2 == 0), reverse=True))


def first_residual_contributions(op: Overpartition) -> tuple[tuple[int, int], ...]:
    """First residual crank weights: crank of the non-overlined subpartition."""
    return crank_contributions(nonoverlined_subpartition(op))


def second_residual_contributions(op: Overpartition) -> tuple[tuple[int, int], ...]:
    """Second residual crank weights: crank of the halved even non-overlined parts."""
    return crank_contributions(halved_even_subpartition(op))


# -- oracle tables ------------------------------------------------------------


def _rank_contributions(parts: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Rank weight of a partition; the empty partition is assigned rank 0."""
    return ((rank(parts) if parts else 0, 1),)


def _weighted_rows(n_max: int, objects: Callable[[int], Iterator],
                   contributions: Callable) -> Iterator[Counter]:
    """Row n sums the (m, weight) pairs of ``contributions`` over ``objects(n)``."""
    for n in range(n_max + 1):
        row: Counter = Counter()
        for obj in objects(n):
            for m, w in contributions(obj):
                row[m] += w
        yield row


def part_count_histograms(n_max: int) -> list[Counter]:
    """hist[n][length] = number of partitions of n with that many parts."""
    return [Counter(len(p) for p in _partitions(n)) for n in range(n_max + 1)]


def _rows_kcrank(n_max: int, k: int) -> Iterator[Counter]:
    """k-crank oracle rows via part-number histograms.

    The k-crank depends only on the part counts of the first two components,
    so the table is assembled from enumerated histograms: pair_diff[s][m]
    counts (first, second) component pairs of total size s with part-count
    difference m, and the remaining k-2 components contribute a tuple count
    per leftover size: the enumerated p(n) list raised to the power k - 2,
    by repeated squaring, so log k truncated convolutions.  Materializing
    all k-tuples would be hopeless already at k = 4, n = 25.  A k below 2
    is refused: the power k - 2 would never shift down to 0.
    """
    check_k("kcrank", k)
    hist = part_count_histograms(n_max)
    p_count = [sum(h.values()) for h in hist]

    pair_diff: list[Counter] = []
    for s in range(n_max + 1):
        row: Counter = Counter()
        for a in range(s + 1):
            for l1, c1 in hist[a].items():
                for l2, c2 in hist[s - a].items():
                    row[l1 - l2] += c1 * c2
        pair_diff.append(row)

    def times(a, b):  # the product of two count lists, truncated at n_max
        return [sum(a[i] * b[r - i] for i in range(r + 1)) for r in range(n_max + 1)]

    tuples = [1] + [0] * n_max  # number of (k-2)-tuples of partitions per size
    square, power = p_count, k - 2
    while power:
        if power & 1:
            tuples = times(tuples, square)
        power >>= 1
        if power:
            square = times(square, square)

    for n in range(n_max + 1):
        row = Counter()
        for s in range(n + 1):
            w = tuples[n - s]
            if w:
                for m, c in pair_diff[s].items():
                    row[m] += c * w
        yield row


def _checked_row(statistic: str, n: int, counts: Counter) -> list[int]:
    """The counts of row n for m = -n..n, once its support and symmetry hold."""
    for m, c in counts.items():
        if c and abs(m) > n:
            raise ValueError(f"{statistic}: support violated at n={n}, m={m} (count {c})")
        if counts.get(-m, 0) != c:
            raise ValueError(f"{statistic}: asymmetric row at n={n}, m={m}")
    return [counts.get(m, 0) for m in range(-n, n + 1)]


def oracle_rows(statistic: str, n_max: int, k: int | None = None) -> Iterator[list[int]]:
    """Weighted count rows for n = 0..n_max, by enumeration, one at a time.

    Row n lists the counts M(m, n) for m = -n..n, the shape of
    :func:`cranktab.bivariate.gf_rows`.  A row is enumerated only when it is
    drawn, so a consumer that times its reads times the enumeration.  Each
    row's support (no count at |m| > n) and its symmetry m <-> -m are
    checked as it is enumerated; a violation raises ``ValueError`` naming
    the statistic, n and m.  A bad statistic, k or n_max (below 0 or above
    :data:`ORACLE_CEILINGS`) raises :class:`~cranktab.UsageError` at the call.
    """
    check_size("n_max", n_max)
    if (ceiling := ORACLE_CEILINGS.get(statistic)) is None:
        raise UsageError(f"unknown statistic {statistic!r}")
    check_k(statistic, k)
    if n_max > ceiling:
        raise UsageError(f"n_max {n_max} exceeds the enumeration ceiling {ceiling} for {statistic}")
    if statistic == "kcrank":
        rows = _rows_kcrank(n_max, k)
    else:
        rows = _weighted_rows(n_max, *{
            "crank": (partitions, crank_contributions),
            "rank": (partitions, _rank_contributions),
            "ocrank": (overpartitions, first_residual_contributions),
            "m2crank": (overpartitions, second_residual_contributions),
        }[statistic])
    return (_checked_row(statistic, n, row) for n, row in enumerate(rows))
