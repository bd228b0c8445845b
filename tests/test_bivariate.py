"""Tests for the two-variable generating functions."""

from functools import lru_cache

import pytest

from cranktab.bivariate import (
    CrankTable,
    crank_gf,
    kcrank_gf,
    m2_crank_gf,
    overline_crank_gf,
    rank_gf,
)
from cranktab.brute import oracle_rows
from cranktab.series import (
    Series,
    distinct_series,
    euler_product,
    overpartition_series,
    partition_series,
    qpoch_inf,
)


def test_crank_gf_small_rows():
    g = crank_gf(6)
    assert g.row(0) == {0: 1}
    assert g.row(1) == {-1: 1, 0: -1, 1: 1}
    # partitions of 3: (3) -> 3, (2,1) -> 0, (1,1,1) -> -3
    assert g.row(3) == {-3: 1, 0: 1, 3: 1}


def test_overline_crank_gf_rows():
    g = overline_crank_gf(6)
    assert g.row(1) == {-1: 1, 1: 1}
    assert g.count(0, 4) == 2
    assert g.count(1, 4) == 2
    assert g.row_sum_series()[4] == 14


def test_m2_crank_gf_rows():
    g = m2_crank_gf(6)
    assert g.row(0) == {0: 1}
    assert g.row(1) == {0: 2}
    assert g.row(2) == {-1: 1, 0: 2, 1: 1}


def test_kcrank_gf_rows():
    g = kcrank_gf(2, 10)
    assert g.row(0) == {0: 1}
    assert g.row(1) == {-1: 1, 1: 1}
    # row sums count pairs of partitions with total size n
    expected = (partition_series(10) * partition_series(10)).coeffs
    assert g.row_sum_series().coeffs == expected
    with pytest.raises(ValueError):
        kcrank_gf(1, 5)


def test_symmetry_and_support_invariants():
    for g in (crank_gf(30), overline_crank_gf(30), m2_crank_gf(30), kcrank_gf(3, 30),
              rank_gf(300)):
        assert len(g.columns) == g.order + 1
        for m, col in enumerate(g.columns):
            assert not any(col[:m]), (g.label, m)  # column m vanishes below q**m
            assert g.column(-m) == g.column(m)


def test_specialization_row_sums():
    order = 25
    assert crank_gf(order).row_sum_series() == partition_series(order)
    # the rank's column form misses the empty partition; rank_gf adds it at n = 0
    assert rank_gf(300).row_sum_series() == partition_series(300)
    over = overpartition_series(order)
    assert overline_crank_gf(order).row_sum_series() == over
    assert m2_crank_gf(order).row_sum_series() == over
    for k in (2, 3, 4):
        assert kcrank_gf(k, order).row_sum_series() == partition_series(order).pow(k)


def test_column_extraction():
    g = crank_gf(10)
    assert g.column(0)[1] == -1
    for m in range(0, 11):
        assert g.column(m) == g.column(-m)
    assert g.column(99) == Series.zero(10)
    with pytest.raises(IndexError):
        g.count(0, 11)


def test_rows_outside_the_order_raise():
    g = crank_gf(10)
    assert g.row(10) == {m: g.count(m, 10) for m in range(-10, 11) if g.count(m, 10)}
    for n in (-1, 11):
        with pytest.raises(IndexError):
            g.row(n)
        with pytest.raises(IndexError):
            g.count(0, n)


def test_overline_diff_head():
    g = overline_crank_gf(10)
    head = (g.column(0) - g.column(1)).coeffs[:6]
    assert head == [1, -1, -1, 1, 0, 1]


def test_gf_matches_oracle_tables():
    cases = [
        ("crank", crank_gf(18), None),
        ("ocrank", overline_crank_gf(18), None),
        ("m2crank", m2_crank_gf(18), None),
        ("kcrank", kcrank_gf(2, 18), 2),
        ("kcrank", kcrank_gf(4, 18), 4),
        ("rank", rank_gf(18), None),
    ]
    for stat, g, k in cases:
        rows = oracle_rows(stat, 18, k=k)
        for n in range(19):
            assert g.row(n) == rows[n], (stat, n)


# -- product-form reference ---------------------------------------------------
#
# The builders use the column closed form.  The reference below expands the
# product form directly: seed rows centered at z**0, multiplied by
# 1/(1 - z**(+-1) q**j) for j = 1..N, then by the z-free multiplier of each
# statistic.  It is O(N**3) and meant for small orders only.  A reference is
# the tuple of its columns m = -order..order, each a Series; it keeps every
# column twice, so its z <-> 1/z symmetry is a fact to check, not a given.


@lru_cache(maxsize=None)
def _crank_fold(order):
    """Columns m = -order..order of ``(q;q)_inf / ((zq;q)_inf (q/z;q)_inf)``."""
    width = 2 * order + 1
    rows = [[0] * width for _ in range(order + 1)]
    for n, c in enumerate(euler_product(order).coeffs):
        rows[n][order] = c
    for j in range(1, order + 1):
        for step in (1, -1):
            # r[n][m] += r[n-j][m-step], walking n upward to accumulate powers
            for n in range(j, order + 1):
                src, tgt = rows[n - j], rows[n]
                for i in range(max(step, 0), width + min(step, 0)):
                    tgt[i] += src[i - step]
    return tuple(Series(order, col) for col in zip(*rows))


def _reference(stat, order, k=None):
    if stat == "m2crank":
        # crank GF at q**2 (order and bound order // 2), padded to `order`
        half = order // 2
        pad = [Series.zero(order)] * (order - half)
        cols = pad + [
            Series(order, [0 if i % 2 else c[i // 2] for i in range(order + 1)])
            for c in _crank_fold(half)
        ] + pad
        multiplier = distinct_series(order) * qpoch_inf(1, 2, order, invert=True)
    else:
        cols = _crank_fold(order)
        if stat == "crank":
            multiplier = Series.constant(order)
        elif stat == "ocrank":
            multiplier = distinct_series(order)
        else:
            multiplier = partition_series(order).pow(k - 1)
    return tuple(c * multiplier for c in cols)


def _reference_row(ref, n):
    bound = len(ref) // 2
    return {m - bound: c[n] for m, c in enumerate(ref) if c[n]}


def _check_symmetry_and_support(ref):
    """Raise if a reference breaks z <-> 1/z symmetry or |m| <= n support."""
    bound = len(ref) // 2
    for m in range(bound + 1):
        pos, neg = ref[bound + m], ref[bound - m]
        for n in range(pos.order + 1):
            if pos[n] != neg[n]:
                raise ValueError(f"symmetry violated at n={n}, m={m}")
            if n < m and pos[n]:
                raise ValueError(f"support violated at n={n}, m={m}")


def _builder(stat, order, k=None):
    if stat == "crank":
        return crank_gf(order)
    if stat == "rank":
        return rank_gf(order)
    if stat == "ocrank":
        return overline_crank_gf(order)
    if stat == "m2crank":
        return m2_crank_gf(order)
    return kcrank_gf(k, order)


PARITY_CASES = [("crank", None), ("ocrank", None), ("m2crank", None)] + [
    ("kcrank", k) for k in range(2, 7)
]


@pytest.mark.parametrize("stat,k", PARITY_CASES)
def test_column_form_matches_product_form(stat, k):
    for order in range(41):
        g, ref = _builder(stat, order, k), _reference(stat, order, k)
        assert (g.order, g.bound, len(ref)) == (order, order, 2 * order + 1)
        for m in range(-order, order + 1):
            assert g.column(m) == ref[order + m], (stat, k, order, m)


# -- Lambert-sum reference ------------------------------------------------------
#
# The builders fill the columns from the cumulative-column recurrence.  The
# reference below adds the shifted copies of the base series that S_m(q**d)
# stands for, one pair per term j, over bases built by the generic products.


def _column(base, m, d, a):
    """Coefficients of ``base * S_m(q**d)``, truncated to the length of ``base``."""
    size = len(base)
    out = [0] * size
    j = 1
    while True:
        e = d * ((a * j * j - j) // 2 + j * m)
        if e >= size:
            return out
        sign = 1 if j % 2 else -1
        for shift, c in ((e, sign), (e + d * j, -sign)):
            out[shift:] = [x + c * y for x, y in zip(out[shift:], base)]
        j += 1


def _lambert_columns(stat, order, k=None):
    """Columns m = 0..order of one statistic's GF, each summed term by term."""
    base = {
        "crank": partition_series,
        "rank": partition_series,
        "ocrank": overpartition_series,
        "m2crank": overpartition_series,
        "kcrank": lambda n: partition_series(n).pow(k),
    }[stat](order).coeffs
    d = 2 if stat == "m2crank" else 1
    a = 3 if stat == "rank" else 1
    half = [_column(base, m, d, a) for m in range(order + 1)]
    if stat == "rank":
        half[0][0] += 1  # the empty partition
    return half


@pytest.mark.parametrize("stat,k", PARITY_CASES + [("rank", None)])
def test_cumulative_columns_match_lambert_sum(stat, k):
    for order in [*range(41), 300]:
        g, ref = _builder(stat, order, k), _lambert_columns(stat, order, k)
        assert (g.order, g.bound) == (order, order)
        assert g.columns == ref, (stat, k, order)
        for m in range(1, order + 1):
            assert g.column(-m) == g.column(m)


def test_product_form_reference_is_sound():
    assert _reference_row(_reference("crank", 6), 1) == {-1: 1, 0: -1, 1: 1}
    for stat, k in PARITY_CASES:
        _check_symmetry_and_support(_reference(stat, 40, k))
    for stat, k in [("crank", None), ("ocrank", None), ("m2crank", None),
                    ("kcrank", 2), ("kcrank", 4)]:
        ref = _reference(stat, 18, k)
        assert [_reference_row(ref, n) for n in range(19)] == oracle_rows(stat, 18, k=k)


def test_invariant_check_detects_violations():
    # a table checks the |m| <= n support of its columns when it is made
    t = CrankTable("crank", 1, "gf", [[1, -1], [0, 1]])
    assert t.row(1) == {-1: 1, 0: -1, 1: 1}
    with pytest.raises(ValueError, match="support violated in column m=1"):
        CrankTable("bogus", 1, "gf", [[1, -1], [1, 1]])
    # the reference's own check sees both faults
    _check_symmetry_and_support(tuple(Series(1, c) for c in ([0, 1], [1, -1], [0, 1])))
    with pytest.raises(ValueError, match="symmetry"):
        _check_symmetry_and_support(tuple(Series(1, c) for c in ([0, 1], [1, -1], [0, 2])))
    with pytest.raises(ValueError, match="support"):
        _check_symmetry_and_support(tuple(Series(1, c) for c in ([1, 1], [1, -1], [1, 1])))
