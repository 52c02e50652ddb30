"""Exact arithmetic for bivariate integer polynomials and the rational
functions built from them.

Everything in this module is exact: coefficients are unbounded Python ints and
no operation ever rounds or approximates.  The two variables are called u and
v throughout.  The product uv plays a distinguished role and is abbreviated t
in docstrings, because every denominator produced downstream is a product of
factors (uv)^m - 1.

The central representation choices:

* ``BivariatePolynomial`` is a sparse map from exponent pairs (i, j) to
  nonzero integer coefficients.  The zero polynomial is the empty map.
* ``CycloProduct`` is a multiset of positive integers m, each denoting one
  factor (uv)^m - 1.
* ``StringyRational`` is a numerator over a CycloProduct in canonical form:
  by ``t^m - 1 = prod_{k | m} Phi_k(t)`` the denominator is a product of
  cyclotomic polynomials Phi_k(uv), each irreducible in Q[u, v], and every
  Phi_k that divides the numerator is cancelled.  The reduced denominator is
  then written back as (uv)^m - 1 factors by a fixed rule, so each value has
  exactly one representation and equality compares representations.
* ``PackedNumerator`` is the one numerator representation inside the
  arithmetic over denominators: the whole polynomial as one int, by
  Kronecker substitution (D. Harvey, arXiv:0712.4046).  The term
  c u^i v^j is a signed digit in slot min(i, j) R + r, r the rank of i - j
  among the R offsets present, so t = uv is a shift by width R bits and
  multiplying by t^m - 1 is one shift and one subtraction.  The formula
  sums (:func:`common_denominator_sum`), the agreement check
  (:func:`same_value`) and the cancellation (:func:`_reduce`) run on it;
  the canonical numerator is unpacked once.  The slot width is chosen from
  a proven bound, not a worst case: for a sum, the bit length of
  sum_terms |num|_1 2^(factors multiplied in), plus a sign bit, in whole
  bytes; the deeper cyclotomic tests and the written-back numerator widen
  it only when their own bounds pass it (proofs in :func:`_reduce`).
  A packed value costs its slots times its width in time and memory, so
  one over ``PACKED_BIT_BUDGET`` bits raises ``PackedSizeError`` before
  it is made.  Values with an empty denominator stay sparse.
* ``TruncatedBiseries`` holds exact coefficients for all total degrees
  i + j <= horizon and claims nothing beyond it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Union

ExponentPair = tuple[int, int]

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _check_coefficient(c) -> int:
    if isinstance(c, bool) or not isinstance(c, int):
        raise TypeError(f"coefficient must be an int, got {type(c).__name__}")
    return c


def _check_exponent_pair(pair) -> ExponentPair:
    try:
        i, j = pair
    except (TypeError, ValueError):
        raise TypeError(f"exponent pair expected, got {pair!r}") from None
    if isinstance(i, bool) or isinstance(j, bool) or not isinstance(i, int) or not isinstance(j, int):
        raise TypeError(f"exponents must be ints, got {pair!r}")
    if i < 0 or j < 0:
        raise ValueError(f"exponents must be nonnegative, got {pair!r}")
    return (i, j)


def _term_order(item: tuple[ExponentPair, int]) -> tuple[int, int, int]:
    # ascending total degree, then u-heavy terms first within a degree
    (i, j), _ = item
    return (i + j, j, i)


class BivariatePolynomial:
    """A polynomial in Z[u, v], stored sparsely.

    Instances are immutable by convention: no method mutates ``self`` and the
    internal term map is never handed out directly.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        data: dict[ExponentPair, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for pair, c in items:
                pair = _check_exponent_pair(pair)
                c = _check_coefficient(c)
                acc = data.get(pair, 0) + c
                if acc:
                    data[pair] = acc
                else:
                    data.pop(pair, None)
        self._terms = data

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c: int) -> "BivariatePolynomial":
        return cls({(0, 0): c} if c else None)

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "BivariatePolynomial":
        return cls({(i, j): c} if c else None)

    @classmethod
    def uv_power(cls, k: int, c: int = 1) -> "BivariatePolynomial":
        """c * (uv)^k."""
        return cls.monomial(k, k, c)

    @classmethod
    def from_diagonal(cls, coeffs: Mapping[int, int]) -> "BivariatePolynomial":
        """Build a polynomial in t = uv from a map {k: coefficient of t^k}."""
        return cls({(k, k): c for k, c in coeffs.items()})

    @classmethod
    def cyclo_factor(cls, m: int) -> "BivariatePolynomial":
        """(uv)^m - 1."""
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"cyclotomic-product exponent must be a positive int, got {m!r}")
        return cls({(m, m): 1, (0, 0): -1})

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[ExponentPair, int]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[ExponentPair, int]]:
        return sorted(self._terms.items(), key=_term_order)

    def coefficient(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def support(self) -> frozenset[ExponentPair]:
        return frozenset(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degree_u(self) -> int:
        return max((i for i, _ in self._terms), default=0)

    def degree_v(self) -> int:
        return max((j for _, j in self._terms), default=0)

    def is_uv_symmetric(self) -> bool:
        return all(self._terms.get((j, i), 0) == c for (i, j), c in self._terms.items())

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, BivariatePolynomial):
            return self._terms == other._terms
        if isinstance(other, int) and not isinstance(other, bool):
            return self == BivariatePolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "BivariatePolynomial":
        out = BivariatePolynomial()
        out._terms = {pair: -c for pair, c in self._terms.items()}
        return out

    def __add__(self, other) -> "BivariatePolynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for pair, c in other._terms.items():
            acc = data.get(pair, 0) + c
            if acc:
                data[pair] = acc
            else:
                data.pop(pair, None)
        out = BivariatePolynomial()
        out._terms = data
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "BivariatePolynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BivariatePolynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "BivariatePolynomial":
        if isinstance(other, int) and not isinstance(other, bool):
            if other == 0:
                return BivariatePolynomial()
            out = BivariatePolynomial()
            out._terms = {pair: c * other for pair, c in self._terms.items()}
            return out
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        data: dict[ExponentPair, int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                pair = (i1 + i2, j1 + j2)
                acc = data.get(pair, 0) + c1 * c2
                if acc:
                    data[pair] = acc
                else:
                    data.pop(pair, None)
        out = BivariatePolynomial()
        out._terms = data
        return out

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._terms:
            return "BivariatePolynomial(0)"
        body = ", ".join(f"({i},{j}): {decimal_str(c)}" for (i, j), c in self.sorted_items())
        return f"BivariatePolynomial({{{body}}})"

    # -- division by (uv)^m - 1 --------------------------------------------

    def exact_cyclo_quotient(self, m: int) -> Union["BivariatePolynomial", None]:
        """Divide by (uv)^m - 1, returning the quotient or None when the
        division is not exact.

        On the packed polynomial (:class:`PackedNumerator`) every row is
        divisible by t^m - 1 exactly when the value is divisible by
        2^(width R m) - 1, and the quotient is the exact integer quotient
        (:func:`_exact_quotient`).  The width holds the sum of |c|, which
        bounds every residue-class sum and every quotient coefficient.
        The packed value has a slot per power of uv up to the degree, so
        a polynomial whose packed value would pass ``PACKED_BIT_BUDGET``
        bits raises ``PackedSizeError``.
        """
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"cyclotomic-product exponent must be a positive int, got {m!r}")
        if not self._terms:
            return BivariatePolynomial()
        p = _packed(self)
        w = p.width * len(p.offsets) * m
        if not _vanishes(p.value, w, ()):
            return None
        return _unpack(PackedNumerator(_exact_quotient(p.value, w), p.width, p.offsets,
                                       p.degree - m, p.norm))


def _coerce_poly(value) -> Union[BivariatePolynomial, None]:
    if isinstance(value, BivariatePolynomial):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return BivariatePolynomial.constant(value)
    return None


class CycloProduct:
    """A multiset of positive integers m, denoting the product of the
    polynomials (uv)^m - 1.  The empty product denotes 1."""

    __slots__ = ("_factors",)

    def __init__(self, factors: Iterable[int] = ()):
        fs = []
        for m in factors:
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise ValueError(f"denominator factors must be positive ints, got {m!r}")
            fs.append(m)
        self._factors = tuple(sorted(fs))

    @property
    def factors(self) -> tuple[int, ...]:
        return self._factors

    def __iter__(self) -> Iterator[int]:
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)

    def __bool__(self) -> bool:
        return bool(self._factors)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloProduct):
            return self._factors == other._factors
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._factors)

    def __repr__(self) -> str:
        return f"CycloProduct({list(self._factors)})"

    def degree_uv(self) -> int:
        """Degree in u (equivalently v) of the denominator polynomial."""
        return sum(self._factors)

    def polynomial(self) -> BivariatePolynomial:
        out = BivariatePolynomial.one()
        for m in self._factors:
            out = out * BivariatePolynomial.cyclo_factor(m)
        return out

    def _counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for m in self._factors:
            counts[m] = counts.get(m, 0) + 1
        return counts

    def union(self, other: "CycloProduct") -> "CycloProduct":
        """Multiset union (max multiplicity per value): the least common
        denominator used when adding rationals."""
        counts = self._counts()
        for m, n in other._counts().items():
            counts[m] = max(counts.get(m, 0), n)
        return CycloProduct(m for m, n in counts.items() for _ in range(n))

    def minus(self, other: "CycloProduct") -> "CycloProduct":
        """Multiset difference; other must be contained in self."""
        counts = self._counts()
        for m, n in other._counts().items():
            if counts.get(m, 0) < n:
                raise ValueError("multiset difference of non-contained factor sets")
            counts[m] -= n
        return CycloProduct(m for m, n in counts.items() for _ in range(n))

    def times(self, other: "CycloProduct") -> "CycloProduct":
        """Multiset sum: the denominator of a product of rationals."""
        return CycloProduct(self._factors + other._factors)


def _coerce_cyclo(value) -> CycloProduct:
    if isinstance(value, CycloProduct):
        return value
    return CycloProduct(value)


class StringyRational:
    """numerator / product of ((uv)^m - 1) factors, kept in canonical form.

    Construction reduces the pair over the cyclotomic factors Phi_k(uv) of
    the denominator (see :func:`_reduce`), so equal values have identical
    numerators and denominators: ``__eq__`` compares them term by term and
    equal values hash equal.

    A numerator over a nonempty denominator is reduced packed, with a slot
    per power of uv up to its degree: one whose packed value would pass
    ``PACKED_BIT_BUDGET`` bits raises ``PackedSizeError``, from the
    constructor or from a sum over two denominators.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator, denominator: Union[CycloProduct, Iterable[int]] = ()):
        num = numerator if isinstance(numerator, PackedNumerator) else _coerce_poly(numerator)
        if num is None:
            raise TypeError(f"numerator must be a BivariatePolynomial or int, got {type(numerator).__name__}")
        den = _coerce_cyclo(denominator)
        self._num, self._den = _reduce(num, den)

    @classmethod
    def _from_canonical(cls, num: BivariatePolynomial, den: CycloProduct) -> "StringyRational":
        out = cls.__new__(cls)
        out._num, out._den = num, den
        return out

    @property
    def numerator(self) -> BivariatePolynomial:
        return self._num

    @property
    def denominator(self) -> CycloProduct:
        return self._den

    @property
    def is_polynomial(self) -> bool:
        """True when the canonical denominator is empty."""
        return not self._den

    def as_polynomial(self) -> BivariatePolynomial:
        if self._den:
            raise ValueError("value has a nontrivial denominator")
        return self._num

    def __eq__(self, other) -> bool:
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, self._num))

    def __add__(self, other) -> "StringyRational":
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        if not other._den:
            # N/D + P = (N + P D)/D keeps the reduced denominator, so the
            # canonical D stays canonical and needs no reduction
            return StringyRational._from_canonical(self._num + other._num * self._den.polynomial(), self._den)
        if not self._den:
            return other + self
        return StringyRational(*common_denominator_sum([(self._num, self._den), (other._num, other._den)]))

    __radd__ = __add__

    def __sub__(self, other) -> "StringyRational":
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "StringyRational":
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        return other + -self

    def __neg__(self) -> "StringyRational":
        # Phi_k divides -N exactly when it divides N: still canonical
        return StringyRational._from_canonical(-self._num, self._den)

    def __mul__(self, other) -> "StringyRational":
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        return StringyRational(self._num * other._num, self._den.times(other._den))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._den:
            return f"StringyRational({self._num!r})"
        return f"StringyRational({self._num!r}, {self._den!r})"


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_factors(n: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


# A packed value of S slots of w bits is an int of S w bits, and each step on
# it takes time linear in that, whatever the degree or the digits that make
# it up; a value over this many bits is refused (PackedSizeError) before it
# is made.
PACKED_BIT_BUDGET = 2 ** 26


class PackedSizeError(ValueError):
    """Raised when a packed numerator would pass ``PACKED_BIT_BUDGET``."""


class PackedNumerator:
    """A polynomial in Z[u, v] as one int, by Kronecker substitution.

    With t = uv, the term c u^i v^j is c t^n u^s (s >= 0) or c t^n v^-s
    (s < 0), where n = min(i, j) and s = i - j.  It sits in slot n R + r,
    where r is the rank of s among ``offsets`` (the R offsets present,
    sorted), and every slot is ``width`` bits, a whole number of bytes:

        value = sum of c 2^(width (n R + r)),   so T = 2^(width R) is t.

    Multiplying by t^m - 1 is ``(value << width R m) - value`` and sums add.
    Packing is linear and takes a product with a polynomial in t to the
    product with its value at T, so the int is exact whatever the digits;
    the polynomial can be read back (:func:`_unpack`) while every digit
    stays below 2^(width - 1) in absolute value.  ``degree`` bounds n and
    ``norm`` bounds the sum of |c|.
    """

    __slots__ = ("value", "width", "offsets", "degree", "norm")

    def __init__(self, value: int, width: int, offsets: tuple[int, ...], degree: int, norm: int):
        self.value, self.width, self.offsets, self.degree, self.norm = value, width, offsets, degree, norm


def _width(bound: int) -> int:
    """The slot width, in whole bytes, that holds signed digits up to bound."""
    return 8 * ((bound.bit_length() + 8) // 8)


def packed_bits(slots: int, bound: int) -> int:
    """The size in bits of a packed value of this many slots whose digits
    are at most bound in absolute value."""
    return slots * _width(bound)


def _check_size(slots: int, width: int) -> None:
    """Refuse a packed value over the budget before it is made."""
    if slots * width > PACKED_BIT_BUDGET:
        raise PackedSizeError(f"a packed numerator of {slots} slots of {width} bits passes the budget "
                              f"of {PACKED_BIT_BUDGET} bits")


def _biased_zeros(nb: int, wide: int, slots: int) -> bytes:
    """slots slots of wide bytes, each holding 2^(8 nb - 1): adding it makes
    every nb-byte signed digit nonnegative."""
    return (bytes(nb - 1) + b"\x80" + bytes(wide - nb)) * slots


def _pack(terms: Mapping[ExponentPair, int], rank: Mapping[int, int], width: int, top: int) -> int:
    """The packed value of a nonempty {(i, j): c} over the offset ranks,
    whose largest power of t is top."""
    R, nb = len(rank), width // 8
    pos = bytearray((top + 1) * R * nb)
    neg = bytearray(len(pos))
    for (i, j), c in terms.items():
        at = ((i if i < j else j) * R + rank[i - j]) * nb
        if c > 0:
            pos[at:at + nb] = c.to_bytes(nb, "little")
        else:
            neg[at:at + nb] = (-c).to_bytes(nb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _top(terms: Mapping[ExponentPair, int]) -> int:
    """The largest power of t among the terms."""
    return max(i if i < j else j for i, j in terms)


def _packed(poly: BivariatePolynomial) -> PackedNumerator:
    """A nonzero polynomial packed wide enough for digits up to its norm."""
    terms = poly._terms
    offsets = tuple(sorted({i - j for i, j in terms}))
    norm = sum(map(abs, terms.values()))
    width, top = _width(norm), _top(terms)
    _check_size((top + 1) * len(offsets), width)
    value = _pack(terms, {s: r for r, s in enumerate(offsets)}, width, top)
    return PackedNumerator(value, width, offsets, top, norm)


def _relayout(p: PackedNumerator, width: int, offsets: tuple[int, ...]) -> int:
    """p's value with slots of ``width`` bits over ``offsets``, which contain
    p's own.  The biased digits move as bytes, by strided slice assignment."""
    if not p.value:
        return 0
    nb, wide = p.width // 8, width // 8
    R, wide_R = len(p.offsets), len(offsets)
    rows = p.degree + 1
    _check_size(rows * wide_R, width)
    data = (p.value + int.from_bytes(_biased_zeros(nb, nb, rows * R), "little")).to_bytes(rows * R * nb, "little")
    fill = _biased_zeros(nb, wide, rows * wide_R)
    out = bytearray(fill)
    rank = {s: r for r, s in enumerate(offsets)}
    for r, s in enumerate(p.offsets):
        at = rank[s] * wide
        for b in range(nb):
            out[at + b::wide * wide_R] = data[r * nb + b::R * nb]
    return int.from_bytes(out, "little") - int.from_bytes(fill, "little")


# maps every nonzero byte to 1, so that ``find`` locates nonzero slots
_NONZERO_MARKS = bytes([0] + [1] * 255)


def _unpack(p: PackedNumerator) -> BivariatePolynomial:
    """The polynomial of a packed value whose digits fit its width.

    Adding 2^(width - 1) to every slot and flipping that bit back leaves
    each digit in two's complement in its own bytes.  Only the slots in runs
    without 2 slots' worth of zero bytes are read; ``find`` skips the rest
    at C speed.
    """
    terms: dict[ExponentPair, int] = {}
    if p.value:
        nb, R, offsets = p.width // 8, len(p.offsets), p.offsets
        slots = (p.degree + 1) * R
        bias = int.from_bytes(_biased_zeros(nb, nb, slots), "little")
        data = ((p.value + bias) ^ bias).to_bytes(slots * nb, "little")
        marks = data.translate(_NONZERO_MARKS)
        gap = bytes(2 * nb - 1)  # holds a whole zero slot wherever it starts
        start = marks.find(1)
        while start >= 0:
            end = marks.find(gap, start)
            if end < 0:
                end = len(data)
            n, r = divmod(start // nb, R)
            for at in range(start - start % nb, end, nb):
                c = int.from_bytes(data[at:at + nb], "little", signed=True)
                if c:
                    s = offsets[r]
                    terms[(n + s, n) if s >= 0 else (n, n - s)] = c
                r += 1
                if r == R:
                    r, n = 0, n + 1
            start = marks.find(1, end)
    out = BivariatePolynomial()
    out._terms = terms
    return out


def _fold(x: int, w: int) -> int:
    """x modulo 2^w - 1, in [0, 2^w - 1]: as 2^h = 1 for h a multiple of w,
    the bits above such an h near the middle are added onto those below,
    halving the length each time.  No long division."""
    if x < 0:
        return ((1 << w) - 1) - _fold(-x, w)
    n = x.bit_length()
    while n > w:
        h = w * ((-(-n // w) + 1) // 2)
        x = (x >> h) + (x & ((1 << h) - 1))
        n = x.bit_length()
    return x


def _vanishes(x: int, w: int, shifts: Iterable[int]) -> bool:
    """Whether x times prod (1 - 2^s) over the shifts is 0 modulo 2^w - 1.
    Modulo 2^w - 1 a multiplication by 2^s rotates w bits."""
    mask = (1 << w) - 1
    f = _fold(x, w)
    for s in shifts:
        f -= ((f << s) & mask) | (f >> (w - s))
        if f < 0:
            f += mask
    return f == 0 or f == mask


def _exact_quotient(x: int, w: int) -> int:
    """x / (2^w - 1) for x divisible by it, without a long division.

    2-adically 1 / (2^w - 1) = -(1 + 2^w + 2^2w + ...), and the first 2^i
    terms are the product of the i factors 1 + 2^(w 2^j), one shift and add
    each, modulo a power of two that holds the quotient; the result is read
    balanced.
    """
    if not x:
        return 0
    size = x.bit_length() - w + 2  # |x / (2^w - 1)| < 2^(size - 1)
    mask = (1 << size) - 1
    q = -x & mask
    s = w
    while s < size:
        q = (q + (q << s)) & mask
        s <<= 1
    return q - (1 << size) if q >> (size - 1) else q


def _level_bound(x: PackedNumerator, k: int, primes: list[int], level: int) -> int:
    """A bound on |f_L|_1, f_L = x P^L / (t^k - 1)^L with L = level and
    P = prod_p (t^(k/p) - 1), and so on every digit of the level-(L + 1)
    test of Phi_k (see :func:`_reduce`)."""
    top = x.degree + level * (sum(k // p for p in primes) - k)  # the degree of f_L
    return x.norm * math.comb(top // k + level, level) << len(primes) * level


def _write_back_bounds(norm: int, gained: int, order: list[int], degree: int) -> tuple[list[int], int]:
    """For c_j = x G / prod_{i < j} (t^(m_i) - 1), m_i = order[i], where
    |x|_1 <= norm, G is a product of ``gained`` factors and degree is that
    of x G: bounds on |c_j|_1 for j < len(order), and on every coefficient
    of the last, each provided that c_j is a polynomial (see :func:`_reduce`)."""
    base = norm << gained
    sums = []
    for j, m in enumerate(order):
        bound = base
        for f in order[:j]:
            bound *= degree // f + 1
        sums.append(bound)
        degree -= m
    digit = base
    for f in order[:-1]:  # all parts but the smallest
        digit *= degree // f + 1
    return sums, digit


def _write_back(num: PackedNumerator, den: CycloProduct, reduced: CycloProduct,
                checked: bool) -> Union[PackedNumerator, None]:
    """num times the factors of reduced over those of den, as a packed value
    whose digits fit its width.  Unless checked, the quotient must be known
    to be a polynomial; if checked, each division is tested first and None
    is returned at the first that is not exact (see :func:`_reduce`)."""
    both = reduced.union(den)
    gained, dropped = both.minus(den), both.minus(reduced)
    order = sorted(dropped, reverse=True)
    degree = num.degree + gained.degree_uv()
    sums, digit = _write_back_bounds(num.norm, len(gained), order, degree)
    value, width = num.value, num.width
    need = _width(max(sums + [digit]) if checked else digit)
    slots, wide = (degree + 1) * len(num.offsets), max(need, width)
    if checked and slots * wide > PACKED_BIT_BUDGET:
        return None  # a trial is not worth passing the budget for
    _check_size(slots, wide)
    if need > width:
        value, width = _relayout(num, need, num.offsets), need
    step = width * len(num.offsets)
    for m in gained:
        value = (value << step * m) - value
    for m in order:
        if checked and not _vanishes(value, step * m, ()):
            return None
        value = _exact_quotient(value, step * m)
    return PackedNumerator(value, width, num.offsets, degree - dropped.degree_uv(), digit)


def _deeper(x: PackedNumerator, k: int, primes: list[int], limit: int) -> int:
    """How many more times Phi_k divides x, up to limit, given that it
    divides once: Phi_k^(L+1) divides x when Phi_k divides f_L, made one
    level at a time and widened first when the level's bound passes the
    width (see :func:`_reduce`)."""
    lift = sum(k // p for p in primes)
    value, width, degree = x.value, x.width, x.degree
    for level in range(1, limit + 1):
        need = _width(_level_bound(x, k, primes, level))
        if need > width:
            value = _relayout(PackedNumerator(value, width, x.offsets, degree, 0), need, x.offsets)
            width = need
        step = width * len(x.offsets)
        for p in primes:
            value = (value << step * (k // p)) - value
        value = _exact_quotient(value, step * k)
        degree += lift - k
        if not _vanishes(value, step * k, [step * k // p for p in primes]):
            return level - 1
    return limit


def _reduce(num: Union[BivariatePolynomial, PackedNumerator], den: CycloProduct
            ) -> tuple[BivariatePolynomial, CycloProduct]:
    """The unique representation of num / den.  num is a polynomial or the
    packed value of a formula sum; only the result is unpacked, once.

    With t = uv, den = prod_k Phi_k(t)^{e_k}, where e_k counts the factors m
    that k divides.  Every Phi_k(uv) is irreducible in Q[u, v], and Phi_k^r
    divides the numerator exactly when it divides every row (the terms of
    one offset s = i - j, a polynomial in t), so cancelling the largest such
    r_k <= e_k leaves the reduced fraction.  Its denominator is written back
    in one pass over k, largest first: with c_k the number of factors
    already written that k divides, max(0, e_k - c_k - r_k) factors
    (uv)^k - 1 are written, so Phi_k is tested at most e_k - c_k levels
    deep.  The numerator is num times the new factors over the old ones.

    Every step runs on the packed value x (:class:`PackedNumerator`), where
    T = 2^(width R) is t and folding modulo T^k - 1 folds every row modulo
    t^k - 1 at once.  The int operations are exact at any width; a width
    only decides whether digits can be read back, so the bounds below say
    when it must grow, and a value is widened (:func:`_relayout`) only while
    its own digits are known to fit.  With norm >= |x|_1:

    * Level 1.  Modulo t^k - 1, y = prod_{p | k prime} (1 - t^{k/p})
      vanishes at every d-th root of unity with d | k, d < k, and at no
      primitive k-th one, so Phi_k divides a row f exactly when f y = 0
      modulo t^k - 1.  The 2^omega(k) terms of y have exponents distinct
      modulo k (two subsets of the k/p differ by k times a sum of +-1/p,
      never an integer), so each digit of f y modulo t^k - 1 is a signed
      sum of distinct residue-class sums of f, at most |f|_1 <= norm.
      While norm < 2^(width - 1) those digits are determined by x y modulo
      2^(width R k) - 1, and the test is whether that residue is 0
      (:func:`_vanishes`).  The width of a sum
      (:func:`common_denominator_sum`) is chosen for exactly this.
    * Level L + 1.  Given Phi_k^L | f, the polynomial
      f_L = f P^L / (t^k - 1)^L with P = prod_p (t^{k/p} - 1) is divisible
      by Phi_k exactly when Phi_k^(L+1) divides f: P holds every Phi_d with
      d | k except Phi_k.  By 1 / (t^k - 1)^L = (-1)^L sum_n C(n + L - 1,
      L - 1) t^{kn}, |f_L|_1 <= |f P^L|_1 C(D + L, L) with
      D = deg(f_L) // k, and |f P^L|_1 <= 2^(omega L) norm; a digit of the
      level test is again at most |f_L|_1 (:func:`_level_bound`).  f_L is
      made from f_(L-1), whose digits are within the previous level's
      bound, by shift-subtracts and one exact division, after widening
      f_(L-1) when this bound passes the width (:func:`_deeper`).
    * Write-back.  The numerator x G / prod_{m dropped} (t^m - 1), with G
      the product of the gained factors, is x G sum_n p(n) t^n up to sign,
      where p(n) counts the ways to write n as a sum of dropped m's.  So its
      coefficients are at most 2^|gained| norm max_{n <= deg} p(n), and
      p(n) <= prod over the dropped m but the smallest of (deg // m + 1)
      (:func:`_write_back_bounds`).  x is widened first when that bound
      passes its width.
    * Phi_1, last.  By then every other Phi_k is settled, and with the
      factors written so far the numerator x G / prod_{m dropped} (t^m - 1)
      is a polynomial exactly when Phi_1 divides x to the full depth
      e_1 - c_1, since each factor holds Phi_1 once.  So when Phi_1 passes
      level 1 with more levels to go, that write-back is tried first
      (:func:`_write_back`, checked): dividing by the largest m first,
      before each division the quotient so far c_j = x G / prod_{i < j}
      (t^{m_i} - 1) is a polynomial, its power series has |c_j|_1 <=
      2^|gained| norm prod_{i < j} (deg(c_j) // m_i + 1), and while that
      fits the width the residue test of t^{m_j} - 1 is exact.  If a test
      fails, Phi_1 is tested level by level as above.  A formula sum never
      keeps a pole at uv = 1 ((uv - 1)/((uv)^{a+1} - 1) has none), so its
      trial succeeds, and no quotient by (t - 1)^L, whose digits grow like
      C(deg + L, L), is made.

    Each step is a few int operations, linear in the packed size.
    """
    if not den:
        return (_unpack(num) if isinstance(num, PackedNumerator) else num), CycloProduct()
    if not isinstance(num, PackedNumerator):
        if not num:
            return BivariatePolynomial(), CycloProduct()
        num = _packed(num)
    if not num.value:
        return BivariatePolynomial(), CycloProduct()
    counts = den._counts()
    exponents: dict[int, int] = {}
    for m, n in counts.items():
        for k in _divisors(m):
            exponents[k] = exponents.get(k, 0) + n
    step = num.width * len(num.offsets)
    folds: dict[int, int] = {}  # x modulo T^m - 1 per factor m, folded on for every k | m
    factors: list[int] = []
    for k in sorted(exponents, reverse=True):
        depth = exponents[k]  # e_k - c_k: each written factor uses up its Phi_d
        if depth <= 0:
            continue
        m = min(f for f in counts if f % k == 0)
        if m not in folds:
            folds[m] = _fold(num.value, step * m)
        primes = _prime_factors(k)
        if _vanishes(folds[m], step * k, [step * k // p for p in primes]):
            if k == 1 and depth > 1:
                # the last Phi: try cancelling it to the full depth first
                reduced = CycloProduct(factors)
                out = _write_back(num, den, reduced, checked=True)
                if out is not None:
                    return _unpack(out), reduced
            depth -= 1 + _deeper(num, k, primes, depth - 1)
        if depth:
            factors += [k] * depth
            for d in _divisors(k):
                exponents[d] -= depth
    reduced = CycloProduct(factors)
    return _unpack(_write_back(num, den, reduced, checked=False)), reduced


def common_denominator_sum(terms: Iterable[tuple]) -> tuple[PackedNumerator, CycloProduct]:
    """The sum of num prod_{g in gains} ((uv)^g - 1) / prod_{m in factors}
    ((uv)^m - 1) over (num, factors) or (num, factors, gains) terms, as
    (packed numerator, common denominator), not cancelled: cancel it once
    (``StringyRational(*sum)``), not after every addition.

    The common denominator takes every m with its largest multiplicity in
    any term; each numerator is multiplied by its gains and by the factors
    its own denominator lacks, one distinct m at a time, merging first the
    partial sums that still need the same factors among the m to come, so a
    factor shared by many terms is multiplied once into their sum.

    All of it runs on one packed layout (:class:`PackedNumerator`): the
    offsets of every term, and a width that holds
    norm = sum over terms of |num|_1 2^(number of factors multiplied in)
    plus a sign bit.  norm bounds |sum|_1 and every partial sum's, so this
    width holds every digit of the sum and every level-1 test of
    :func:`_reduce`.  A sum whose packed value would pass
    ``PACKED_BIT_BUDGET`` bits raises ``PackedSizeError`` before any term
    is packed.
    """
    counted: dict[tuple, tuple[dict[int, int], dict[int, int]]] = {}
    entries = []
    for num, factors, *gains in terms:
        key = (tuple(factors), tuple(gains[0]) if gains else ())
        if key not in counted:
            counted[key] = (CycloProduct(key[0])._counts(), CycloProduct(key[1])._counts())
        if num:
            entries.append((key, num._terms))
    largest: dict[int, int] = {}
    for counts, _ in counted.values():
        for m, n in counts.items():
            if n > largest.get(m, 0):
                largest[m] = n
    common = CycloProduct(m for m, n in largest.items() for _ in range(n))
    if not entries:
        return PackedNumerator(0, 8, (), 0, 0), common
    distinct = sorted(set(largest).union(*(g for _, g in counted.values())))
    index = {m: k for k, m in enumerate(distinct)}
    base = [largest.get(m, 0) for m in distinct]
    needs = {}  # per key, how often each distinct m is multiplied in
    for key, (counts, g) in counted.items():
        row = base.copy()
        for m, n in counts.items():
            row[index[m]] -= n
        for m, n in g.items():
            row[index[m]] += n
        needs[key] = tuple(row)
    offsets = tuple(sorted({i - j for _, table in entries for i, j in table}))
    rank = {s: r for r, s in enumerate(offsets)}
    norm = sum(sum(map(abs, table.values())) << sum(needs[key]) for key, table in entries)
    width = _width(norm)
    step = width * len(offsets)
    tops = [_top(table) for _, table in entries]
    degree = max(top + sum(m * n for m, n in zip(distinct, needs[key]))
                 for top, (key, _) in zip(tops, entries))
    _check_size((degree + 1) * len(offsets), width)
    pending: dict[tuple[int, ...], int] = {}
    for top, (key, table) in zip(tops, entries):
        at = needs[key]
        pending[at] = pending.get(at, 0) + _pack(table, rank, width, top)
    for m in distinct:
        merged: dict[tuple[int, ...], int] = {}
        for at, part in pending.items():
            for _ in range(at[0]):
                part = (part << step * m) - part
            merged[at[1:]] = merged.get(at[1:], 0) + part
        pending = merged
    return PackedNumerator(pending.get((), 0), width, offsets, degree, norm), common


def same_value(x: tuple, y: tuple) -> bool:
    """Whether (numerator, denominator) pairs x and y, cancelled or not, are
    one rational function: each numerator times the factors of the union of
    the denominators that its own lacks, compared as ints over one packed
    layout wide enough for both products."""
    packed = []
    for num, den in (x, y):
        if not isinstance(num, PackedNumerator):
            num = _packed(num) if num else PackedNumerator(0, 8, (), 0, 0)
        packed.append((num, _coerce_cyclo(den)))
    (a, da), (b, db) = packed
    both = da.union(db)
    ga, gb = both.minus(da), both.minus(db)
    width = max(a.width, b.width, _width(a.norm << len(ga)), _width(b.norm << len(gb)))
    offsets = a.offsets if a.offsets == b.offsets else tuple(sorted(set(a.offsets) | set(b.offsets)))
    step = width * len(offsets)
    values = []
    for p, gain in ((a, ga), (b, gb)):
        _check_size((p.degree + gain.degree_uv() + 1) * len(offsets), width)
        value = p.value if (p.width, p.offsets) == (width, offsets) else _relayout(p, width, offsets)
        for m in gain:
            value = (value << step * m) - value
        values.append(value)
    return values[0] == values[1]


def _coerce_rational(value) -> Union[StringyRational, None]:
    if isinstance(value, StringyRational):
        return value
    poly = _coerce_poly(value)
    if poly is not None:
        return StringyRational(poly)
    return None


class TruncatedBiseries:
    """Exact series coefficients for every (i, j) with i + j <= horizon.

    Asking for a coefficient beyond the horizon raises: nothing out there is
    claimed, not even zero.
    """

    __slots__ = ("_horizon", "_coeffs")

    def __init__(self, horizon: int, coeffs: Union[Mapping, Iterable, None] = None):
        if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
            raise ValueError(f"horizon must be a nonnegative int, got {horizon!r}")
        data: dict[ExponentPair, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for pair, c in items:
                pair = _check_exponent_pair(pair)
                c = _check_coefficient(c)
                if pair[0] + pair[1] > horizon:
                    raise ValueError(f"coefficient at {pair} lies beyond horizon {horizon}")
                acc = data.get(pair, 0) + c
                if acc:
                    data[pair] = acc
                else:
                    data.pop(pair, None)
        self._horizon = horizon
        self._coeffs = data

    @property
    def horizon(self) -> int:
        return self._horizon

    def coefficient(self, i: int, j: int) -> int:
        pair = _check_exponent_pair((i, j))
        if pair[0] + pair[1] > self._horizon:
            raise ValueError(f"coefficient at {pair} lies beyond horizon {self._horizon}")
        return self._coeffs.get(pair, 0)

    def items(self) -> Iterator[tuple[ExponentPair, int]]:
        return iter(self._coeffs.items())

    def sorted_items(self) -> list[tuple[ExponentPair, int]]:
        return sorted(self._coeffs.items(), key=_term_order)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedBiseries):
            return self._horizon == other._horizon and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._horizon, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {decimal_str(c)}" for (i, j), c in self.sorted_items())
        return f"TruncatedBiseries(horizon={self._horizon}, {{{body}}})"


def expand_rational(x: StringyRational, horizon: int) -> TruncatedBiseries:
    """Exact power-series coefficients of x for all i + j <= horizon.

    The numerator's terms within the horizon are grouped by the diagonal
    offset s = i - j; each group is a dense series in t = uv indexed by
    k = min(i, j), up to top = (horizon - |s|) // 2.  Dividing a series x by
    t^m - 1 is the stride recurrence

        y_k = -x_k + y_{k-m}    (y_k = -x_k for k < m),

    that is, minus a running sum along each residue class mod m, swept
    upward in place.  A factor costs O(horizon) per group, so the whole
    expansion is O(groups * factors * horizon); a convolution with the
    inverse series would cost O(terms * horizon / m) per factor, with the
    number of terms itself growing with the horizon.  The result is
    independent of factor order.  A polynomial is only truncated, at a cost
    per term.
    """
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
        raise ValueError(f"horizon must be a nonnegative int, got {horizon!r}")
    if not x.denominator:
        return TruncatedBiseries(horizon, {(i, j): c for (i, j), c in x.numerator.items() if i + j <= horizon})
    classes: dict[int, list[int]] = {}
    for (i, j), c in x.numerator.items():
        if i + j > horizon:
            continue
        s = i - j
        row = classes.get(s)
        if row is None:
            row = classes[s] = [0] * ((horizon - abs(s)) // 2 + 1)
        row[min(i, j)] = c
    factors = x.denominator.factors
    sign = -1 if len(factors) % 2 else 1
    coeffs: dict[ExponentPair, int] = {}
    for s, row in classes.items():
        for m in factors:
            # the running sums; the -1 of every factor is applied once below
            for k in range(m, len(row)):
                row[k] += row[k - m]
        for k, c in enumerate(row):
            if c:
                coeffs[(k + s, k) if s >= 0 else (k, k - s)] = sign * c
    out = TruncatedBiseries(horizon)
    out._coeffs = coeffs
    return out


def series_size(x: StringyRational, horizon: int) -> int:
    """How many coefficients :func:`expand_rational` computes for x to the
    horizon: (horizon - |s|) // 2 + 1 for every offset s = i - j of the
    numerator's terms within the horizon, or one per such term when x is a
    polynomial."""
    inside = [(i, j) for i, j in x.numerator.support() if i + j <= horizon]
    if not x.denominator:
        return len(inside)
    return sum((horizon - abs(s)) // 2 + 1 for s in {i - j for i, j in inside})


# Python refuses int <-> decimal str conversions past a digit limit (4300 by
# default, never below 640 when set).  Values are split into pieces of at most
# this many digits, so conversion works under any setting of the limit
# without changing it.
_DECIMAL_PIECE = 600
_DECIMAL_PIECE_BOUND = 10 ** _DECIMAL_PIECE


def decimal_str(value: int) -> str:
    """The decimal digits of an int of any size, as ``str`` would give them."""
    if value < 0:
        return "-" + decimal_str(-value)
    if value < _DECIMAL_PIECE_BOUND:
        return str(value)
    half = int(value.bit_length() * 0.30102999566398) // 2  # about half the digits
    high, low = divmod(value, 10 ** half)
    return decimal_str(high) + decimal_str(low).rjust(half, "0")


def _int_from_digits(digits: str) -> int:
    if len(digits) <= _DECIMAL_PIECE:
        return int(digits)
    half = len(digits) // 2
    return _int_from_digits(digits[:-half]) * 10 ** half + _int_from_digits(digits[-half:])


def _excerpt(value: str) -> str:
    if len(value) <= 40:
        return repr(value)
    return f"{value[:20]!r}... ({len(value)} characters)"


def encode_json_int(value: int) -> Union[int, str]:
    """Integers within signed 64-bit range stay JSON numbers; anything larger
    becomes a decimal string so no consumer ever rounds it."""
    if _I64_MIN <= value <= _I64_MAX:
        return value
    return decimal_str(value)


def decode_json_int(value) -> int:
    """Accept either encoding produced by :func:`encode_json_int`; a decimal
    string may have any number of digits."""
    if isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        stripped = value.strip()
        digits = stripped[1:] if stripped[:1] in ("-", "+") else stripped
        if digits.isascii() and digits.isdigit():
            n = _int_from_digits(digits)
            return -n if stripped[0] == "-" else n
        try:
            return int(stripped, 10)
        except ValueError:
            raise ValueError(f"not a decimal integer: {_excerpt(value)}") from None
    raise ValueError(f"expected an integer or decimal string, got {value!r}")
