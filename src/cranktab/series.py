"""Exact truncated formal power series and q-Pochhammer products.

A :class:`Series` of order N stores the integer coefficients of
``c0 + c1*q + ... + cN*q**N``; every operation is exact modulo ``q**(N+1)``.
Coefficients are plain Python ints, so nothing overflows and nothing is
rounded.  Values are treated as immutable after construction: all operations
return fresh objects and never mutate their inputs.

Combining series of different orders is an error rather than a silent
truncation; mixed orders in this codebase almost always indicate a bug in a
caller, and quietly dropping coefficients would hide it.

A product is a shift-and-add over the nonzero terms of its sparser operand,
one slice of the other operand per term: t*N additions for t terms.  Each
product of the identity catalog has a sparse operand, an explicit polynomial
or a unit with O(sqrt N) terms (:func:`euler_product_pentagonal`,
:func:`phi_minus_q`), so it costs O(N**1.5).  Only the generic
:func:`overpartition_series` multiplies two dense series, in O(N**2).

Two paths build the named series.  The generic one multiplies or divides
factor by factor (:func:`qpoch_inf`, :func:`partition_series`,
:func:`overpartition_series`, :meth:`Series.pow`), independent of any
identity, so the tests and the identity catalog compare against it; each
factor is a few shifts and adds of one packed int (:func:`mul_factor`,
:func:`div_factor`).  That int, the packed ring image (:func:`ring`,
:func:`pack`, :func:`shifted`, :func:`unpacked`), is defined here only; the
catalog's closed forms build their right sides on it too.  The fast one,
which the generating-function bases use, is :func:`sparse_reciprocal`: any
power of the reciprocal of a series with constant term 1 and t terms, in
one pass of the power recurrence, O(t*N) whatever the power.
``1/(q;q)_inf**k`` is that pass over Euler's pentagonal series
(:func:`partition_series_pentagonal`), O(N**1.5) for every k, and the
overpartition series is the reciprocal of Gauss's theta series
``phi(-q) = (q;q)_inf / (-q;q)_inf`` (:func:`phi_minus_q`,
:func:`overpartition_series_theta`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import accumulate, repeat
from math import isqrt
from operator import add, mul, neg, sub


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
        return Series(self.order, map(add, self.coeffs, other.coeffs))

    def __sub__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(self.order, map(sub, self.coeffs, other.coeffs))

    def __neg__(self) -> "Series":
        return Series(self.order, map(neg, self.coeffs))

    def __mul__(self, other: "Series") -> "Series":
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        if a.count(0) < b.count(0):
            a, b = b, a  # a is the sparser operand
        out = [0] * len(a)
        for i, ai in enumerate(a):  # out += ai * q**i * b, truncated
            if ai == 1 or ai == -1:
                out[i:] = map(add if ai == 1 else sub, out[i:], b)
            elif ai:
                out[i:] = map(add, out[i:], map(mul, repeat(ai), b))
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
        if scalar and shift <= self.order:
            c[shift:] = map(mul, repeat(scalar), self.coeffs[: self.order + 1 - shift])
        return Series(self.order, c)

    def div_one_minus(self, exponent: int) -> "Series":
        """Divide by ``1 - q**exponent`` (multiply by the geometric series)."""
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        c = list(self.coeffs)
        if exponent * exponent < len(c):  # a running sum per residue class
            for r in range(exponent):
                c[r::exponent] = accumulate(c[r::exponent])
        else:  # each block of e plus the one before
            for j in range(exponent, len(c), exponent):
                c[j : j + exponent] = map(add, c[j : j + exponent], c[j - exponent : j])
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
        c[::factor] = self.coeffs[: self.order // factor + 1]
        return Series(self.order, c)


# -- the packed ring image (see qpoch_fin): slot i of w bits, modulo mask + 1 --


def ring(order: int) -> tuple[int, int]:
    """The slot width w, ``4*isqrt(order) + 6`` bits in whole bytes, and the mask."""
    w = (4 * isqrt(order) + 13) // 8 * 8
    return w, (1 << w * (order + 1)) - 1


def pack(terms: Mapping[int, int], w: int) -> int:
    """The image of ``sum terms[e] * q**e``, not yet masked."""
    return sum(c << w * e for e, c in terms.items())


def shifted(x: int, e: int, w: int, mask: int) -> int:
    """``q**e * x``: the slots of x that stay under the mask, shifted e slots up."""
    return (x & (mask >> w * e)) << w * e


def mul_factor(x: int, exponent: int, sign: int, w: int, mask: int) -> int:
    """``x * (1 - sign*q**exponent)``, masked once."""
    t = shifted(x, exponent, w, mask)
    return (x - t if sign == 1 else x + t) & mask


def div_factor(x: int, exponent: int, w: int, mask: int) -> int:
    """``x / (1 - q**exponent)``: ``x`` times the ``1 + q**(2**i * e)`` below q**n, masked once."""
    s = w * exponent
    low = mask >> s
    while low:  # the slots still below q**n once shifted
        x += (x & low) << s
        low >>= s
        s *= 2
    return x & mask


def unpacked(order: int, x: int, w: int) -> Series:
    """The series whose image is x, modulo ``2**(w*(order+1))``.

    Each coefficient must lie in ``[-half, half)``, ``half = 2**(w - 1)``;
    adding half to every slot then leaves no borrow between slots.
    """
    b, n = w // 8, order + 1
    half = 1 << (w - 1)
    offset = int.from_bytes(half.to_bytes(b, "little") * n, "little")
    raw = ((x + offset) & ((1 << w * n) - 1)).to_bytes(b * n, "little")
    return Series(order, [int.from_bytes(raw[i : i + b], "little") - half
                          for i in range(0, b * n, b)])


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

    The product is one int, the packed ring image of Z[q]/(q**(order+1))
    (:func:`ring`): coefficient i in slot i of w bits, modulo
    ``2**(w*(order+1))``, so only the final coefficients must fit, and each
    is at most p(n) < exp(pi*sqrt(2n/3)) < 2**(4*isqrt(n) + 5) in absolute
    value (Apostol, Thm 14.5).
    """
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    if a < 1 or d < 1:
        raise ValueError("exponents must be >= 1")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    w, mask = ring(order)
    x = 1
    for e in range(a, min(a + terms * d, order + 1), d):
        if not invert:
            x = mul_factor(x, e, sign, w, mask)
            continue
        if sign == -1:  # 1/(1 + q^e) = (1 - q^e) / (1 - q^(2e))
            x, e = mul_factor(x, e, 1, w, mask), 2 * e
        x = div_factor(x, e, w, mask)
    return unpacked(order, x, w)


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
    """``(q; q)_inf`` via the pentagonal number theorem: O(sqrt N) nonzero terms.

    A sparse unit of the identity catalog's factored entries; must agree
    with :func:`euler_product` exactly.
    """
    c = [0] * (order + 1)
    c[0] = 1
    for g, sign in pentagonal_numbers(order):
        c[g] = sign
    return Series(order, c)


def sparse_reciprocal(order: int, terms: Mapping[int, int], power: int = 1) -> Series:
    """``1 / D(q)**power`` for the sparse series ``D = 1 + sum_e terms[e] q**e``.

    One pass of the power recurrence for power series (J. C. P. Miller;
    Knuth, TAOCP vol. 2, 4.7): ``P = D**(-s)`` satisfies
    ``D * P' = -s * D' * P``, so with ``d_e = terms[e]``

        n * p_n = -sum_{1 <= e <= n} d_e * (n + (s - 1) * e) * p_(n-e).

    It costs a few integer operations per term of ``D`` per coefficient,
    O(t*N) for t terms below ``q**N``, whatever the power.  The division by
    n is exact because ``D`` has integer coefficients and constant term 1; a
    remainder raises ``ArithmeticError``.
    """
    if power < 0:
        raise ValueError("negative powers are not supported")
    if any(e < 1 for e in terms):
        raise ValueError("terms must have exponents >= 1 (the constant term is 1)")
    # (e, d_e, step): p_(n-e) has the weight n * d_e + step, step = d_e * (s - 1) * e
    pairs = sorted((e, v, v * (power - 1) * e) for e, v in terms.items() if v and e <= order)
    c = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        for e, v, step in pairs:
            if e > n:
                break
            total += (n * v + step) * c[n - e]
        c[n], rest = divmod(-total, n)
        if rest:
            raise ArithmeticError(f"inexact power recurrence at q**{n}")
    return Series(order, c)


def partition_series_pentagonal(order: int, power: int = 1) -> Series:
    """``1/(q; q)_inf**power`` as the reciprocal of Euler's pentagonal series.

    The fast path for the GF bases; must agree with :func:`partition_series`
    (raised to ``power`` by :meth:`Series.pow`) exactly.
    """
    return sparse_reciprocal(order, dict(pentagonal_numbers(order)), power)


def phi_minus_q(order: int) -> Series:
    """Gauss's theta series ``phi(-q) = 1 + 2 sum_{j>=1} (-1)**j q**(j*j)``.

    It equals ``(q; q)_inf / (-q; q)_inf`` and has O(sqrt N) nonzero terms: the
    base of :func:`overpartition_series_theta` and a sparse unit of the
    identity catalog; must agree with the generic products exactly.
    """
    terms = {j * j: 2 * (-1) ** j for j in range(1, isqrt(order) + 1)}
    return Series.from_terms(order, {0: 1, **terms})


def overpartition_series_theta(order: int) -> Series:
    """``(-q; q)_inf / (q; q)_inf`` as the reciprocal of :func:`phi_minus_q`.

    The fast path for the GF bases; must agree with
    :func:`overpartition_series` exactly.
    """
    phi = phi_minus_q(order).coeffs
    return sparse_reciprocal(order, {e: c for e, c in enumerate(phi) if e and c})
