"""Exact truncated formal power series and q-Pochhammer products.

A :class:`Series` of order N stores the integer coefficients of
``c0 + c1*q + ... + cN*q**N``; every operation is exact modulo ``q**(N+1)``.
Coefficients are plain Python ints, so nothing overflows and nothing is
rounded.  Values are treated as immutable after construction: all operations
return fresh objects and never mutate their inputs.

Combining series of different orders is an error rather than a silent
truncation; mixed orders in this codebase almost always indicate a bug in a
caller, and quietly dropping coefficients would hide it.

A product of two dense series is done by Kronecker substitution
(:func:`_kronecker_product`): each coefficient list is packed into one Python
int with slots wide enough for every product coefficient and its sign, the
two ints are multiplied once, and the low N+1 slots are read back.  Its cost
is CPython's Karatsuba multiply of two ``(N+1)*B``-bit ints, B the slot width
in bits, rather than N**2 coefficient products.  When one operand has at most
``_SPARSE_CUTOFF`` nonzero coefficients (the explicit polynomial factors of
the identity catalog), the product stays a shift-and-add over its terms.

Two paths build the named series.  The generic one multiplies or divides
factor by factor (:func:`qpoch_inf`, :func:`partition_series`,
:func:`overpartition_series`, :meth:`Series.pow`), independent of any
identity, so the tests and the identity catalog compare against it.  The
fast one, which the generating-function bases use, is
:func:`sparse_reciprocal`: division by a series with constant term 1 and
O(sqrt(N)) terms, O(N**1.5) per division.  ``1/(q;q)_inf**k`` is k divisions
by Euler's pentagonal series (:func:`partition_series_pentagonal`), and the
overpartition series is one division by Gauss's theta series
``phi(-q) = (q;q)_inf / (-q;q)_inf`` (:func:`overpartition_series_theta`).
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Mapping


class OrderMismatch(ValueError):
    """Two series of different truncation orders were combined."""


class Series:
    """Truncated power series in q with exact integer coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int]):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(
                f"expected {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls(order, [0] * (order + 1))

    @classmethod
    def constant(cls, order: int, value: int = 1) -> "Series":
        c = [0] * (order + 1)
        c[0] = value
        return cls(order, c)

    @classmethod
    def from_terms(cls, order: int, terms: Mapping[int, int]) -> "Series":
        """Series from an {exponent: coefficient} map.

        Terms beyond the truncation order are dropped, consistent with the
        everything-mod-q^(N+1) semantics.
        """
        c = [0] * (order + 1)
        for e, v in terms.items():
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if e <= order:
                c[e] += v
        return cls(order, c)

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = []
        for e, v in enumerate(self.coeffs):
            if v:
                shown.append(f"{v}*q^{e}" if e else str(v))
            if len(shown) == 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"Series(order={self.order}: {body})"

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"exponent {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _check_order(self, other: "Series") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        return Series(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        if a.count(0) < b.count(0):
            a, b = b, a  # a is the sparser operand
        n = len(a)
        if n - a.count(0) > _SPARSE_CUTOFF:
            return Series(self.order, _kronecker_product(a, b))
        out = [0] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            seg = b[: n - i]
            if ai == 1:
                out[i:] = [x + y for x, y in zip(out[i:], seg)]
            else:
                out[i:] = [x + ai * y for x, y in zip(out[i:], seg)]
        return Series(self.order, out)

    def pow(self, exponent: int) -> "Series":
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        out = Series.constant(self.order)
        for _ in range(exponent):
            out = out * self
        return out

    def times_monomial(self, scalar: int, shift: int = 0) -> "Series":
        """Return ``scalar * q**shift * self`` truncated at the same order."""
        if shift < 0:
            raise ValueError(f"shift must be >= 0, got {shift}")
        c = [0] * (self.order + 1)
        if scalar:
            for i in range(self.order + 1 - shift):
                v = self.coeffs[i]
                if v:
                    c[i + shift] = scalar * v
        return Series(self.order, c)

    def div_one_minus(self, exponent: int) -> "Series":
        """Divide by ``1 - q**exponent`` (multiply by the geometric series)."""
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        c = list(self.coeffs)
        for i in range(exponent, self.order + 1):
            c[i] += c[i - exponent]
        return Series(self.order, c)

    # -- reshaping ---------------------------------------------------------

    def truncated(self, new_order: int) -> "Series":
        if not 0 <= new_order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {new_order}")
        return Series(new_order, self.coeffs[: new_order + 1])

    def stretched(self, factor: int) -> "Series":
        """Substitute q -> q**factor, keeping the truncation order."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        c = [0] * (self.order + 1)
        for i in range(self.order // factor + 1):
            c[i * factor] = self.coeffs[i]
        return Series(self.order, c)


# -- products of raw coefficient lists ---------------------------------------

# A product whose sparser operand has at most this many nonzero coefficients
# is done by shift-and-add: one pass over the dense operand per nonzero term.
# Measured against Kronecker substitution (2-vCPU host, Python 3.11, a k-term
# factor times a dense series), the crossover is near k = 16-20 at order 100,
# k = 20-28 at order 200, and k = 32 to beyond 64 at order 1000, rising with
# the size of the dense coefficients.  The products that the identity
# catalog makes are far from it on both sides: its explicit polynomial
# factors have at most 16 nonzero terms, and in ``verify --check all`` every
# other product's sparser operand has at least 91 (at the default order 200).
_SPARSE_CUTOFF = 24


def _max_abs(c: list) -> int:
    return max(max(c), -min(c))


def _kronecker_product(a: list, b: list) -> list:
    """The first ``len(a)`` coefficients of ``a * b``, by one integer multiply.

    Each list is packed into the integer ``sum c[i] * 2**(8*w*i)``: slot i
    holds ``c[i] + half`` as w little-endian bytes, ``half = 2**(8*w - 1)``,
    and subtracting ``half`` in every slot at once restores the signed value.
    The two integers are multiplied once (CPython uses Karatsuba at these
    sizes), and slot k of the result is the Cauchy sum ``sum_i a[i]*b[k-i]``.
    Every such sum has at most n = len(a) terms, so
    ``|c_k| <= n * max|a| * max|b| < 2**(bits - 1) <= half`` for the ``bits``
    below (the final 1 is the sign).  Adding ``half`` to the low n slots
    therefore makes each of them a value in ``[0, 2**(8*w))`` with no borrow
    between slots, and they are read back as unsigned bytes.
    """
    n = len(a)
    bits = _max_abs(a).bit_length() + _max_abs(b).bit_length() + n.bit_length() + 1
    w = (bits + 7) // 8  # slot width in bytes
    half = 1 << (8 * w - 1)
    offset = int.from_bytes(half.to_bytes(w, "little") * n, "little")  # half in every slot

    def pack(c: list) -> int:
        raw = b"".join([(x + half).to_bytes(w, "little") for x in c])
        return int.from_bytes(raw, "little") - offset

    low = (pack(a) * pack(b) + offset) & ((1 << (8 * w * n)) - 1)
    raw = low.to_bytes(w * n, "little")
    return [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * n, w)]


# -- in-place helpers on raw coefficient lists ------------------------------


def _mul_factor(c: list, exponent: int, sign: int) -> None:
    # multiply by (1 - sign*q^exponent); descending scan keeps reads pristine
    for i in range(len(c) - 1, exponent - 1, -1):
        v = c[i - exponent]
        if v:
            c[i] -= sign * v


def _div_factor(c: list, exponent: int, sign: int) -> None:
    # divide by (1 - sign*q^exponent) via the geometric recurrence
    for i in range(exponent, len(c)):
        v = c[i - exponent]
        if v:
            c[i] += sign * v


def qpoch_inf(a: int, d: int, order: int, sign: int = 1, invert: bool = False) -> Series:
    """Infinite q-Pochhammer product ``(sign*q**a; q**d)_inf`` truncated.

    Builds ``prod_{k>=0} (1 - sign*q**(a + k*d))``, or its reciprocal when
    ``invert`` is set.  ``sign=+1`` gives products like ``(q; q)_inf`` and
    ``sign=-1`` gives ``(-q; q)_inf``.  Factors are applied in increasing
    exponent order and the product stops once the exponent passes the
    truncation order, after which further factors cannot change anything.
    With a, d >= 1 that happens within the first ``order + 1`` factors, so
    this is that finite product.
    """
    return qpoch_fin(a, d, order + 1, order, sign, invert)


def qpoch_fin(
    a: int, d: int, terms: int, order: int, sign: int = 1, invert: bool = False
) -> Series:
    """Finite q-Pochhammer product ``(sign*q**a; q**d)_terms`` truncated.

    The empty product (``terms=0``) is the constant series 1.  Factors whose
    exponent exceeds the truncation order are skipped; they are congruent to
    1 modulo ``q**(order+1)``.
    """
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    if a < 1 or d < 1:
        raise ValueError("exponents must be >= 1")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    c = [0] * (order + 1)
    c[0] = 1
    for k in range(terms):
        e = a + k * d
        if e > order:
            break
        if invert:
            _div_factor(c, e, sign)
        else:
            _mul_factor(c, e, sign)
    return Series(order, c)


# -- named series used throughout -------------------------------------------


def euler_product(order: int) -> Series:
    """``(q; q)_inf``: the Euler product, by the generic factor-by-factor path."""
    return qpoch_inf(1, 1, order)


def partition_series(order: int) -> Series:
    """``1/(q; q)_inf``: coefficients count the partitions of n."""
    return qpoch_inf(1, 1, order, invert=True)


def distinct_series(order: int) -> Series:
    """``(-q; q)_inf``: coefficients count partitions into distinct parts."""
    return qpoch_inf(1, 1, order, sign=-1)


def overpartition_series(order: int) -> Series:
    """``(-q; q)_inf / (q; q)_inf``: coefficients count overpartitions."""
    return distinct_series(order) * partition_series(order)


def pentagonal_numbers(limit: int):
    """Yield (generalized pentagonal number, sign) pairs up to ``limit``."""
    k = 1
    while True:
        g = k * (3 * k - 1) // 2
        if g > limit:
            return
        sign = -1 if k % 2 else 1
        yield g, sign
        g = k * (3 * k + 1) // 2
        if g <= limit:
            yield g, sign
        k += 1


def euler_product_pentagonal(order: int) -> Series:
    """``(q; q)_inf`` via the pentagonal number theorem.

    Optional fast path; must agree with :func:`euler_product` exactly.
    """
    c = [0] * (order + 1)
    c[0] = 1
    for g, sign in pentagonal_numbers(order):
        c[g] = sign
    return Series(order, c)


def sparse_reciprocal(order: int, terms: Mapping[int, int], power: int = 1) -> Series:
    """``1 / D(q)**power`` for the sparse series ``D = 1 + sum_e terms[e] q**e``.

    Each division by ``D`` solves ``D * c = previous`` for c from the bottom
    up, in place: ``c[n] -= sum_e terms[e] * c[n - e]``.  It costs one
    multiply-add per term of ``D`` per coefficient, O(t*N) for t terms below
    ``q**N``, so a reciprocal with O(sqrt(N)) terms costs O(power * N**1.5).
    """
    if power < 0:
        raise ValueError("negative powers are not supported")
    if any(e < 1 for e in terms):
        raise ValueError("terms must have exponents >= 1 (the constant term is 1)")
    pairs = sorted((e, v) for e, v in terms.items() if v and e <= order)
    c = [0] * (order + 1)
    c[0] = 1
    for _ in range(power):
        for n in range(1, order + 1):
            total = c[n]
            for e, v in pairs:
                if e > n:
                    break
                total -= v * c[n - e]
            c[n] = total
    return Series(order, c)


def partition_series_pentagonal(order: int, power: int = 1) -> Series:
    """``1/(q; q)_inf**power`` as the reciprocal of Euler's pentagonal series.

    The fast path for the GF bases; must agree with :func:`partition_series`
    (raised to ``power`` by :meth:`Series.pow`) exactly.
    """
    return sparse_reciprocal(order, dict(pentagonal_numbers(order)), power)


def overpartition_series_theta(order: int) -> Series:
    """``(-q; q)_inf / (q; q)_inf`` as the reciprocal of a theta series.

    Gauss: ``(q; q)_inf / (-q; q)_inf = phi(-q) = 1 + 2 sum_{j>=1} (-1)**j q**(j*j)``.
    The fast path for the GF bases; must agree with
    :func:`overpartition_series` exactly.
    """
    return sparse_reciprocal(order, {j * j: 2 * (-1) ** j for j in range(1, isqrt(order) + 1)})
