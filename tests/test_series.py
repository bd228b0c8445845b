"""Tests for exact truncated series arithmetic and the q-Pochhammer builders."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranktab.brute import partitions
from cranktab.series import (
    OrderMismatch,
    Series,
    distinct_series,
    div_factor,
    euler_product,
    euler_product_pentagonal,
    mul_factor,
    overpartition_series,
    overpartition_series_theta,
    pack,
    partition_series,
    partition_series_pentagonal,
    phi_minus_q,
    qpoch_fin,
    qpoch_inf,
    ring,
    sparse_reciprocal,
    unpacked,
)


def test_constant_series():
    assert Series.constant(5, 1).coeffs == [1, 0, 0, 0, 0, 0]
    assert Series.constant(0, 7).coeffs == [7]
    assert Series.zero(3).coeffs == [0, 0, 0, 0]


def test_add_sub_neg():
    a = Series(1, [1, 2])
    b = Series(1, [0, 3])
    assert (a + b).coeffs == [1, 5]
    assert (a + (-a)).is_zero()
    assert (Series(2, [1, -2, 0]) - Series(2, [1, 0, 1])).coeffs == [0, -2, -1]


def test_order_mismatch_raises():
    a = Series.constant(3)
    b = Series.constant(4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(OrderMismatch):
            op()


def test_mul_telescoping():
    one_minus_q = Series.from_terms(5, {0: 1, 1: -1})
    geometric = Series(5, [1] * 6)
    assert (one_minus_q * geometric) == Series.constant(5)


def test_mul_monomials():
    q = Series.from_terms(3, {1: 1})
    assert (q * q).coeffs == [0, 0, 1, 0]


def test_mul_product_with_reciprocal_is_one():
    n = 50
    assert euler_product(n) * partition_series(n) == Series.constant(n)


def test_times_monomial():
    a = Series(2, [1, 1, 1])
    assert a.times_monomial(2, 1).coeffs == [0, 2, 2]
    assert a.times_monomial(1, 0) == a
    assert a.times_monomial(0, 3).is_zero()
    assert a.times_monomial(5, 2).coeffs == [0, 0, 5]
    for shift in (3, 4, 9):  # past the order
        assert a.times_monomial(2, shift).is_zero()


def test_div_one_minus():
    assert Series(3, [1, 0, 0, 0]).div_one_minus(1).coeffs == [1, 1, 1, 1]
    assert Series(5, [0, 1, 0, 0, 0, 0]).div_one_minus(2).coeffs == [0, 1, 0, 1, 0, 1]
    with pytest.raises(ValueError):
        Series.constant(3).div_one_minus(0)


def test_div_mul_round_trip():
    order = 40
    a = Series(order, [(i * i * 7919) % 11 - 5 for i in range(order + 1)])
    for e in range(1, order + 1):
        one_minus = Series.from_terms(order, {0: 1, e: -1})
        assert a.div_one_minus(e) * one_minus == a


# distinct-partition counts d(0..8), by enumeration
DISTINCT_COUNTS = [1, 1, 1, 2, 2, 3, 4, 5, 6]


def test_distinct_series_matches_enumeration():
    assert distinct_series(8).coeffs == DISTINCT_COUNTS
    for n, expected in enumerate(DISTINCT_COUNTS):
        assert sum(1 for p in partitions(n) if len(set(p)) == len(p)) == expected


def test_euler_product_head():
    # pentagonal-number signs at 1, 2, 5, 7
    assert euler_product(7).coeffs == [1, -1, -1, 0, 0, 1, 0, 1]


def test_partition_series_matches_enumeration():
    p = partition_series(10)
    assert p.coeffs == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n in range(11):
        assert sum(1 for _ in partitions(n)) == p.coeffs[n]


def test_pentagonal_fast_paths_agree_with_generic_products():
    # the GF bases and the catalog's sparse units against the
    # factor-by-factor products and Series.pow
    for order in [*range(61), 200, 500]:
        assert euler_product_pentagonal(order) == euler_product(order)
        assert phi_minus_q(order) * distinct_series(order) == euler_product(order), order
        p = partition_series(order)
        assert partition_series_pentagonal(order) == p, order
        assert overpartition_series_theta(order) == overpartition_series(order), order
        for k in range(11):
            assert partition_series_pentagonal(order, k) == p.pow(k), (order, k)


def test_sparse_reciprocal():
    assert sparse_reciprocal(5, {1: -1}).coeffs == [1] * 6
    assert sparse_reciprocal(5, {1: -1}, 2).coeffs == [1, 2, 3, 4, 5, 6]
    assert sparse_reciprocal(4, {2: 3}, 0) == Series.constant(4)
    assert sparse_reciprocal(0, {1: 5}, 3) == Series.constant(0)
    d = Series.from_terms(30, {0: 1, 3: 2, 7: -5, 40: 1})
    assert sparse_reciprocal(30, {3: 2, 7: -5, 40: 1}, 2) * d * d == Series.constant(30)
    # D is not the pentagonal series: a dense head, gaps, and big coefficients
    terms = {1: 3, 2: -1, 5: 4, 9: -7, 11: 2}
    d = Series.from_terms(40, {0: 1, **terms})
    for power in (1, 3, 7):
        assert sparse_reciprocal(40, terms, power) * d.pow(power) == Series.constant(40), power
    with pytest.raises(ValueError):
        sparse_reciprocal(5, {0: 1})
    with pytest.raises(ValueError):
        sparse_reciprocal(5, {1: -1}, -1)


def test_euler_identity():
    order = 200
    assert distinct_series(order) == qpoch_inf(1, 2, order, invert=True)


def test_overpartition_series_value_at_4():
    assert overpartition_series(8).coeffs[4] == 14


def test_qpoch_fin():
    assert qpoch_fin(1, 1, 0, 6).coeffs == [1, 0, 0, 0, 0, 0, 0]
    assert qpoch_fin(1, 1, 2, 3, sign=-1).coeffs == [1, 1, 1, 1]
    expected = Series.from_terms(16, {0: 1, 7: -1, 9: -1, 16: 1})
    assert qpoch_fin(7, 2, 2, 16) == expected


def test_qpoch_inf_argument_validation():
    with pytest.raises(ValueError):
        qpoch_inf(0, 1, 10)
    with pytest.raises(ValueError):
        qpoch_inf(1, 0, 10)
    with pytest.raises(ValueError):
        qpoch_fin(1, 1, -1, 10)


def test_stretched():
    a = Series(6, [1, 2, 3, 4, 5, 6, 7])
    assert a.stretched(2).coeffs == [1, 0, 2, 0, 3, 0, 4]
    assert a.stretched(3).coeffs == [1, 0, 0, 2, 0, 0, 3]
    assert a.stretched(1) == a
    assert a.stretched(7).coeffs == [1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        a.stretched(0)


def test_truncated():
    a = Series(5, [1, 2, 3, 4, 5, 6])
    assert a.truncated(2).coeffs == [1, 2, 3]
    with pytest.raises(ValueError):
        a.truncated(6)


small_series = st.integers(min_value=0, max_value=24).flatmap(
    lambda order: st.lists(
        st.integers(min_value=-9, max_value=9),
        min_size=order + 1,
        max_size=order + 1,
    ).map(lambda c: Series(order, c))
)


@given(small_series, st.data())
def test_mul_commutative(a, data):
    b = data.draw(
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=a.order + 1,
            max_size=a.order + 1,
        ).map(lambda c: Series(a.order, c))
    )
    assert a * b == b * a


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=12), st.data())
def test_mul_associative(order, data):
    coeff_list = st.lists(
        st.integers(min_value=-5, max_value=5), min_size=order + 1, max_size=order + 1
    )
    a = Series(order, data.draw(coeff_list))
    b = Series(order, data.draw(coeff_list))
    c = Series(order, data.draw(coeff_list))
    assert (a * b) * c == a * (b * c)


def _schoolbook(a, b):
    """Reference product: the shift-and-add Cauchy product over every term of a."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        seg = b[: n - i]
        if ai == 1:
            out[i:] = [x + y for x, y in zip(out[i:], seg)]
        else:
            out[i:] = [x + ai * y for x, y in zip(out[i:], seg)]
    return out


def _assert_mul_matches(a, b):
    order = len(a) - 1
    expected = _schoolbook(a, b)
    assert (Series(order, a) * Series(order, b)).coeffs == expected
    assert (Series(order, b) * Series(order, a)).coeffs == expected


def _mixed(rng, n, low, high):
    # signed coefficients with magnitudes spread over [10**low, 10**high]
    return [rng.choice((-1, 1)) * 10 ** rng.randint(low, high) + rng.randint(-3, 3)
            for _ in range(n)]


def test_mul_matches_schoolbook_reference():
    rng = random.Random(8)
    # order 0 and the zero series
    _assert_mul_matches([-7], [5])
    for n in (1, 2, 40, 201):
        _assert_mul_matches([0] * n, _mixed(rng, n, 0, 30))
        _assert_mul_matches([0] * n, [0] * n)
    # all-negative operands
    for n in (30, 61, 201):
        _assert_mul_matches([-rng.randint(1, 10**20) for _ in range(n)],
                            [-rng.randint(1, 10**5) for _ in range(n)])
    # coefficients at and just past the edge of a bit length, with one sign
    # and with alternating signs, n = 2**L - 1 terms each
    for n in (31, 63):
        for ka in range(1, 17):
            for kb in range(ka, ka + 8):  # ka + kb + L takes every residue mod 8
                for va, vb in ((2**ka - 1, 2**kb - 1), (2**ka, 2**kb)):
                    _assert_mul_matches([va] * n, [vb] * n)
                    _assert_mul_matches([va] * n, [-vb] * n)
                    _assert_mul_matches([(-1) ** i * va for i in range(n)], [vb] * n)
    # mixed magnitudes from 1 to 10**120
    for n in (30, 101, 201):
        _assert_mul_matches(_mixed(rng, n, 0, 120), _mixed(rng, n, 0, 120))
    # a sparser operand with 24 and with 25 nonzeros
    n = 90
    dense = _mixed(rng, n, 0, 40)
    for nonzeros in (24, 25):
        sparse = [0] * n
        for e in rng.sample(range(n), nonzeros):
            sparse[e] = rng.choice((-1, 1)) * rng.randint(1, 10**12)
        _assert_mul_matches(sparse, dense)
        _assert_mul_matches(sparse, sparse)
    # every order 1..60, then 200 and 1000
    for order in [*range(1, 61), 200, 1000]:
        n = order + 1
        _assert_mul_matches(_mixed(rng, n, 0, 25), _mixed(rng, n, 0, 3))
    top = partition_series(1000).coeffs
    _assert_mul_matches(top, [-x for x in top])


signed_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**130), max_value=2**130),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=80), st.data())
def test_mul_matches_schoolbook_on_random_signed_lists(order, data):
    coeff_list = st.lists(signed_coeffs, min_size=order + 1, max_size=order + 1)
    _assert_mul_matches(data.draw(coeff_list), data.draw(coeff_list))


# -- reference: the per-coefficient factor loops -------------------------------
#
# qpoch_fin and the closed forms of the identity catalog step one packed
# integer (mul_factor, div_factor); both must equal these loops, which apply
# one factor one coefficient at a time.


def _reference_mul_factor(c, exponent, sign):
    # multiply by (1 - sign*q^exponent); descending scan keeps reads pristine
    for i in range(len(c) - 1, exponent - 1, -1):
        v = c[i - exponent]
        if v:
            c[i] -= sign * v


def _reference_div_factor(c, exponent, sign):
    # divide by (1 - sign*q^exponent) via the geometric recurrence
    for i in range(exponent, len(c)):
        v = c[i - exponent]
        if v:
            c[i] += sign * v


def _reference_qpoch_fin(a, d, terms, order, sign=1, invert=False):
    c = [1] + [0] * order
    for k in range(terms):
        e = a + k * d
        if e > order:
            break
        (_reference_div_factor if invert else _reference_mul_factor)(c, e, sign)
    return c


QPOCH_FORMS = [(1, 1), (1, 2), (2, 2), (3, 2), (7, 2), (5, 3)]


@pytest.mark.parametrize("order", [*range(41), 500, 2000])
def test_packed_qpoch_fin_matches_factor_loops(order):
    cutoffs = (0, 1, 3, order + 1) if order <= 40 else (0, 7, order + 1)
    for a, d in QPOCH_FORMS:
        for sign in (1, -1):
            for invert in (False, True):
                for terms in cutoffs:
                    got = qpoch_fin(a, d, terms, order, sign, invert).coeffs
                    want = _reference_qpoch_fin(a, d, terms, order, sign, invert)
                    assert got == want, (a, d, terms, sign, invert)


def test_packed_factor_helpers_match_factor_loops():
    # each packed step, at every exponent, at the full width and cut to fewer
    # slots, equals the per-coefficient loop on the list cut to that width
    rng = random.Random(14)
    w = 16  # every value below stays under 2**15 in absolute value
    for size in (0, 1, 2, 3, 8, 9, 10, 24, 25, 61):
        for n in sorted({size, max(size - 3, 0), size // 2}):
            mask = (1 << w * n) - 1
            for exponent in range(1, size + 2):
                c = [rng.randint(-50, 50) for _ in range(size)]
                x = sum(v << w * i for i, v in enumerate(c))  # may be < 0: high bits all ones
                for sign, got, reference in (
                    (1, mul_factor(x, exponent, 1, w, mask), _reference_mul_factor),
                    (-1, mul_factor(x, exponent, -1, w, mask), _reference_mul_factor),
                    (1, div_factor(x, exponent, w, mask), _reference_div_factor),
                ):
                    want = c[:n]
                    reference(want, exponent, sign)
                    assert 0 <= got <= mask
                    assert (unpacked(n - 1, got, w).coeffs if n else []) == want, (
                        reference.__name__, size, n, exponent, sign)


def test_packed_slot_holds_every_coefficient():
    # a qpoch_fin coefficient at order N is at most p(N) in absolute value,
    # and its slot must hold it with its sign
    for order, p in enumerate(partition_series_pentagonal(3000).coeffs):
        assert p.bit_length() + 1 < ring(order)[0], order


@pytest.mark.parametrize("order", [0, 1, 40, 500])
def test_ring_round_trip_at_the_slot_limits(order):
    # every slot at its least or its greatest value, alternating, so that a
    # borrow or a carry between neighbouring slots would show
    w, mask = ring(order)
    half = 1 << (w - 1)
    for first in (-half, half - 1):
        c = [first if i % 2 == 0 else -1 - first for i in range(order + 1)]
        x = pack(dict(enumerate(c)), w)
        assert unpacked(order, x, w).coeffs == c
        assert unpacked(order, x & mask, w).coeffs == c
