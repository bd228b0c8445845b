"""Tests for the two-variable generating functions."""

import io
from functools import lru_cache
from operator import sub

import pytest

from cranktab import bivariate
from cranktab.bivariate import (
    crank_gf,
    gf_columns,
    gf_rows,
    gf_table,
    overline_crank_gf,
    write_rows,
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


def _nonzero(row):
    """Nonzero entries ``{m: count}`` of a row over its full -n..n range."""
    n = len(row) // 2
    return {m: c for m, c in zip(range(-n, n + 1), row) if c}


def test_crank_gf_small_rows():
    rows = [_nonzero(row) for row in gf_rows("crank", 6)]
    assert rows[0] == {0: 1}
    assert rows[1] == {-1: 1, 0: -1, 1: 1}
    # partitions of 3: (3) -> 3, (2,1) -> 0, (1,1,1) -> -3
    assert rows[3] == {-3: 1, 0: 1, 3: 1}


def test_overline_crank_gf_rows():
    rows = list(gf_rows("ocrank", 6))
    assert _nonzero(rows[1]) == {-1: 1, 1: 1}
    assert rows[4][4 + 0] == 2
    assert rows[4][4 + 1] == 2
    assert sum(rows[4]) == 14


def test_m2_crank_gf_rows():
    rows = [_nonzero(row) for row in gf_rows("m2crank", 6)]
    assert rows[0] == {0: 1}
    assert rows[1] == {0: 2}
    assert rows[2] == {-1: 1, 0: 2, 1: 1}


def test_kcrank_gf_rows():
    rows = list(gf_rows("kcrank", 10, 2))
    assert _nonzero(rows[0]) == {0: 1}
    assert _nonzero(rows[1]) == {-1: 1, 1: 1}
    # row sums count pairs of partitions with total size n
    expected = (partition_series(10) * partition_series(10)).coeffs
    assert [sum(row) for row in rows] == expected
    with pytest.raises(ValueError):
        gf_table("kcrank", 5, 1)
    with pytest.raises(ValueError):
        next(gf_rows("kcrank", 5, 1))


def test_symmetry_and_support_invariants():
    for label, g in (("crank", crank_gf(30)), ("ocrank", overline_crank_gf(30)),
                     ("m2crank", gf_table("m2crank", 30)), ("kcrank(3)", gf_table("kcrank", 30, 3)),
                     ("rank", gf_table("rank", 300))):
        order = len(g) - 1
        for m, col in enumerate(g):
            assert col.order == order, (label, m)
            assert not any(col.coeffs[:m]), (label, m)  # column m vanishes below q**m


def test_specialization_row_sums():
    # z = 1: each row sums to the coefficient of the product form
    def row_sums(stat, order, k=None):
        return [sum(row) for row in gf_rows(stat, order, k)]

    order = 25
    assert row_sums("crank", order) == partition_series(order).coeffs
    # the rank's column form misses the empty partition; gf_rows adds it at n = 0
    assert row_sums("rank", 300) == partition_series(300).coeffs
    over = overpartition_series(order).coeffs
    assert row_sums("ocrank", order) == over
    assert row_sums("m2crank", order) == over
    for k in (2, 3, 4):
        assert row_sums("kcrank", order, k) == partition_series(order).pow(k).coeffs


def test_column_extraction():
    # item m of a builder's list is column m, a series truncated at the order
    g = crank_gf(10)
    assert len(g) == 11 and all(col.order == 10 for col in g)
    assert g[0][1] == -1
    assert g[3].coeffs[:7] == [0, 0, 0, 1, 0, 1, 1]


def test_rows_outside_the_order_raise():
    # the stream ends at the order, and the writer refuses a stream that
    # ends before its n_max or runs past it
    rows = list(gf_rows("crank", 10))
    assert [len(row) for row in rows] == [2 * n + 1 for n in range(11)]
    assert rows[10] == [crank_gf(10)[abs(m)][10] for m in range(-10, 11)]
    for n_max in (9, 11):
        with pytest.raises(ValueError):
            write_rows(io.StringIO(), "csv", "crank", n_max, iter(rows))


def test_overline_diff_head():
    g = overline_crank_gf(10)
    head = (g[0] - g[1]).coeffs[:6]
    assert head == [1, -1, -1, 1, 0, 1]


def test_gf_matches_oracle_tables():
    cases = [
        ("crank", crank_gf(18), None),
        ("ocrank", overline_crank_gf(18), None),
        ("m2crank", gf_table("m2crank", 18), None),
        ("kcrank", gf_table("kcrank", 18, 2), 2),
        ("kcrank", gf_table("kcrank", 18, 4), 4),
        ("rank", gf_table("rank", 18), None),
    ]
    for stat, g, k in cases:
        rows = list(oracle_rows(stat, 18, k=k))
        assert list(gf_rows(stat, 18, k)) == rows, stat
        for n in range(19):
            assert [g[abs(m)][n] for m in range(-n, n + 1)] == rows[n], (stat, n)


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
    """The counts of row n for m = -n..n."""
    bound = len(ref) // 2
    return [ref[bound + m][n] for m in range(-n, n + 1)]


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
    if stat == "ocrank":
        return overline_crank_gf(order)
    return gf_table(stat, order, k)


PARITY_CASES = [("crank", None), ("ocrank", None), ("m2crank", None)] + [
    ("kcrank", k) for k in range(2, 7)
]


@pytest.mark.parametrize("stat,k", PARITY_CASES)
def test_column_form_matches_product_form(stat, k):
    for order in range(41):
        g, ref = _builder(stat, order, k), _reference(stat, order, k)
        assert (len(g), len(ref)) == (order + 1, 2 * order + 1)
        for m in range(-order, order + 1):
            assert g[abs(m)] == ref[order + m], (stat, k, order, m)


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
        assert [col.order for col in g] == [order] * (order + 1)
        assert [col.coeffs for col in g] == ref, (stat, k, order)


def test_product_form_reference_is_sound():
    assert _reference_row(_reference("crank", 6), 1) == [1, -1, 1]
    for stat, k in PARITY_CASES:
        _check_symmetry_and_support(_reference(stat, 40, k))
    for stat, k in [("crank", None), ("ocrank", None), ("m2crank", None),
                    ("kcrank", 2), ("kcrank", 4)]:
        ref = _reference(stat, 18, k)
        assert [_reference_row(ref, n) for n in range(19)] == list(oracle_rows(stat, 18, k=k))


def test_invariant_check_detects_violations(monkeypatch):
    # gf_table checks the |m| <= n support of each column as it collects it
    def pass_of(columns):
        return lambda statistic, order, k=None, top=None, base=None: iter(columns)

    monkeypatch.setattr(bivariate, "gf_columns", pass_of([(1, [0, 1]), (0, [1, -1])]))
    assert [col.coeffs for col in gf_table("crank", 1)] == [[1, -1], [0, 1]]
    monkeypatch.setattr(bivariate, "gf_columns", pass_of([(1, [1, 1]), (0, [1, -1])]))
    with pytest.raises(ValueError, match=r"^kcrank\(3\): support violated in column m=1$"):
        gf_table("kcrank", 1, 3)
    # the reference's own check sees both faults
    _check_symmetry_and_support(tuple(Series(1, c) for c in ([0, 1], [1, -1], [0, 1])))
    with pytest.raises(ValueError, match="symmetry"):
        _check_symmetry_and_support(tuple(Series(1, c) for c in ([0, 1], [1, -1], [0, 2])))
    with pytest.raises(ValueError, match="support"):
        _check_symmetry_and_support(tuple(Series(1, c) for c in ([1, 1], [1, -1], [1, 1])))


# -- Garvan's functional equation -----------------------------------------------
#
# The crank GF F(z, q) = (q;q)_inf / ((zq;q)_inf (q/z;q)_inf) obeys
# (1 - z) F(zq, q) = -z (1 - zq) F(z, q), read off the product form.  With
# C_m = sum_n M(m, n) q**n its z**m coefficient is
# C_m - q C_(m-1) = q**m (C_m - q C_(m+1)).  A z-free factor keeps it, and
# q -> q**2 turns each q into q**d, so every crank-family GF obeys it with
# its d.  The relation leaves column 0 free, so the row sums pin it to the
# generic products.  The rank obeys another equation and is left out.

CRANK_FAMILY = [("crank", None, 1), ("ocrank", None, 1), ("m2crank", None, 2)] + [
    ("kcrank", k, 1) for k in range(2, 7)
]


def _shifted(column, e):
    """``q**e`` times a column, truncated to its length."""
    return ([0] * e + column)[: len(column)]


def _functional_equation_violations(columns, d, ms):
    """The cells (m, n) at which ``C_m - q**d C_(m-1) = q**(d*m) (C_m - q**d C_(m+1))`` fails."""
    zero = [0] * len(columns[0])
    found = []
    for m in ms:
        above = columns[m + 1] if m + 1 < len(columns) else zero
        lhs = map(sub, columns[m], _shifted(columns[m - 1], d))
        rhs = _shifted(list(map(sub, columns[m], _shifted(above, d))), d * m)
        found += [(m, n) for n, (x, y) in enumerate(zip(lhs, rhs)) if x != y]
    return found


@pytest.mark.parametrize("stat,k,d", CRANK_FAMILY)
def test_columns_obey_garvans_functional_equation(stat, k, d):
    order = 300
    columns = [col.coeffs for col in gf_table(stat, order, k)]
    assert _functional_equation_violations(columns, d, range(1, order + 1)) == []
    if stat == "kcrank":
        product = partition_series(order).pow(k)
    else:
        product = partition_series(order) if stat == "crank" else overpartition_series(order)
    sums = [2 * sum(cells) - cells[0] for cells in zip(*columns)]
    assert sums == product.coeffs


def test_seeded_low_columns_obey_the_functional_equation():
    # the pass from top = 60 starts from seeds summed from the closed form
    columns = [col.coeffs for col in gf_table("crank", 4000, top=60)]
    assert _functional_equation_violations(columns, 1, range(1, 60)) == []


def test_functional_equation_sees_one_wrong_cell():
    columns = [col.coeffs for col in crank_gf(300)]
    columns[3][50] += 1
    assert _functional_equation_violations(columns, 1, range(1, 301)) == [
        (2, 53), (3, 50), (3, 53), (4, 51)]


# -- low-column passes ----------------------------------------------------------


@pytest.mark.parametrize("stat,k", [("crank", None), ("ocrank", None), ("m2crank", None),
                                    ("kcrank", 2), ("kcrank", 6), ("rank", None)])
def test_seeded_pass_matches_the_full_pass(stat, k):
    # a pass from column top starts from B_(top+1), ..., B_(top+s) summed from
    # the closed form; the rank's three-term seed (s = 3) is checked here too
    for order in (0, 1, 2, 5, 40, 1000):
        full = [column for _, column in gf_columns(stat, order, k)]
        for top in sorted({0, 1, 2, 3, 10, 20, 60, max(order - 1, 0), order, order + 5}):
            low = list(gf_columns(stat, order, k, top))
            assert [m for m, _ in low] == list(range(min(top, order), -1, -1))
            assert [column for _, column in low] == full[order - min(top, order):], (
                order, top)
    with pytest.raises(ValueError, match="top must be >= 0"):
        next(gf_columns(stat, 5, k, -1))


@pytest.mark.parametrize("stat,k", [("crank", None), ("ocrank", None), ("m2crank", None),
                                    ("kcrank", 2), ("kcrank", 6), ("rank", None)])
def test_columns_are_differences_of_cumulative_columns(stat, k):
    # column m = B_m - B_(m+1), each B summed on its own from the closed form
    # over whole columns; this covers the m2crank columns past order/2,
    # tails that clamp to empty and the rank's three-wide window with its +1
    form = bivariate.FORMS[stat]
    for order in (0, 1, 2, 3, 7, 40, 301):
        base = bivariate.gf_base(stat, order, k).coeffs
        cumulative = [bivariate._cumulative(base, form, m) for m in range(order + 2)]
        ref = [list(map(sub, cumulative[m], cumulative[m + 1])) for m in range(order + 1)]
        if stat == "rank":
            ref[0][0] += 1  # the empty partition
        prebuilt = bivariate.gf_base(stat, order, k)  # a prebuilt base gives the same columns
        assert list(gf_columns(stat, order, k, base=prebuilt)) == [
            (m, ref[m]) for m in range(order, -1, -1)]
        with pytest.raises(ValueError, match=f"^the base is at order {order}, not {order + 1}$"):
            gf_columns(stat, order + 1, k, base=prebuilt)
        for top in {0, 1, 2, 3, 10, order // 2, order - 1, order, order + 5}:
            if top >= 0:
                columns = list(gf_columns(stat, order, k, top))
                assert columns == [(m, ref[m]) for m in range(min(top, order), -1, -1)], (
                    order, top)


@pytest.mark.parametrize("statistic, k", [("crank", None), ("ocrank", None), ("m2crank", None),
                                          ("kcrank", 2), ("kcrank", 3), ("rank", None)])
def test_low_rows_of_each_column_are_one_shifted_series(statistic, k):
    # below the j = 2 term of its closed form, in the rows n < start(2, m),
    # column m is q**start(1, m) * V, V = (1 - q**d) * base; verify's sweeps
    # decide those rows through one series per sweep on this premise
    order = 300
    form = bivariate.FORMS[statistic]
    base = bivariate.gf_base(statistic, order, k).coeffs
    v = [b - (base[t - form.d] if t >= form.d else 0) for t, b in enumerate(base)]
    for m, column in enumerate(gf_table(statistic, order, k)):
        if statistic == "rank" and m == 0:
            continue  # column 0 adds the empty partition at n = 0
        end = form.start(2, m)
        shifted = [0] * form.start(1, m) + v
        assert column.coeffs[:end] == shifted[: min(end, order + 1)], m
        if end <= order:  # the j = 2 term enters at row end
            assert column.coeffs[end] != shifted[end], m


def test_low_column_table_refuses_reads_past_its_bound():
    # the columns m <= top are the head of the whole table, and no more
    g, whole = crank_gf(30, top=10), crank_gf(30)
    assert len(g) == 11 and g == whole[:11]
    assert len(crank_gf(5, top=10)) == 6  # top is clamped to the order
    with pytest.raises(IndexError):
        g[11]


# -- rows ---------------------------------------------------------------------


@pytest.mark.parametrize("stat,k", PARITY_CASES + [("rank", None)])
def test_rows_are_the_transposed_columns(stat, k):
    # gf_rows sums the closed form along a row; gf_columns is the reference
    for order in (0, 1, 2, 3, 7, 40, 300):
        columns = [column for _, column in gf_columns(stat, order, k)][::-1]
        rows = list(gf_rows(stat, order, k))
        assert len(rows) == order + 1
        for n, row in enumerate(rows):
            half = [column[n] for column in columns[: n + 1]]
            assert row == half[:0:-1] + half, (stat, k, order, n)
