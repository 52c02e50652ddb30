"""Exact arithmetic for bivariate integer polynomials and the rational
functions built from them.

Everything in this module is exact: coefficients are unbounded Python ints and
no operation ever rounds or approximates.  The two variables are called u and
v throughout.  The product uv plays a distinguished role and is abbreviated t
in docstrings, because every denominator produced downstream is a product of
factors (uv)^m - 1.

The central representation choices:

* ``BivariatePolynomial`` is a sparse map from exponent pairs (i, j) to
  nonzero integer coefficients.  The zero polynomial is the empty map.  A
  canonical numerator dense enough is read back flat instead: the list of
  every coefficient of its skewed layout (:class:`_Layout`), zeros
  included, whose position order is output order.  It builds its map only
  when something asks for pairs.  Of the arithmetic, only N/D + P
  (``StringyRational.__add__``) stays flat.
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
  multiplying by t^m - 1 is one shift and one subtraction.  Tables are
  scanned once each for their figures (:func:`_scan`), packed onto one
  layout from them (:func:`_pack_tables`) and summed over a common
  denominator by one merge (:func:`_merge`): the engine's formula sums,
  from tables packed once per config, and :func:`common_denominator_sum`.
  The merge multiplies each term by the factors it lacks one distinct
  factor at a time, so a factor shared by many terms is multiplied once
  into their sum.
  The agreement check (:func:`same_value`) compares the two formula sums
  on the config's one layout, and the cancellation (:func:`_reduce`) runs
  on a packed sum; the canonical numerator is read back once, in output
  order (:func:`_unpack`): flat when dense, else into a map.  A sum's
  slots are as wide as a bound on sum_terms |num|_1 2^(factors multiplied
  in) needs, plus a sign bit, in whole bytes.  The cancellation bounds
  nothing ahead: it runs at that width and confirms its answer after the
  fact, and only a failed confirmation widens the slots
  (:func:`_relayout`) and runs it again (proofs in :func:`_reduce`).
  A packed value costs its slots times its width in time and memory, so
  one over ``PACKED_BIT_BUDGET`` bits raises ``PackedSizeError`` before
  it is made.  Values with an empty denominator stay sparse.
* ``TruncatedBiseries`` holds exact coefficients for all total degrees
  i + j <= horizon, in output order, and claims nothing beyond it.  An
  expanded rational value stays on the skewed flat list of its expansion
  (:class:`_Layout`), which the renderer, the CLI's JSON writer and the
  verdict scans read as it is; its term map is built only when something
  asks for pairs.  The numerator's columns go into the expansion as
  strided slices.  A polynomial's truncation, and a series built from a
  term map, stay sparse.
"""

from __future__ import annotations

import sys
from itertools import accumulate, compress
from operator import add, neg, sub
from typing import ItemsView, Iterable, Iterator, Mapping, NamedTuple, Union

from .validation import checked_int

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
    internal term map is never handed out directly.  A canonical numerator
    read back from its packed value (:func:`_unpack`) builds its term map in
    output order, so the sort of ``sorted_items()`` meets one run.

    A dense one is read back flat: as the list of every coefficient of its
    skewed layout (:class:`_Layout`), zeros included, whose position order
    is output order, held in ``_flat``.  Its term map is built from that
    list on first request (``_terms`` stays unset until then, see
    ``__getattr__``) by whatever asks for pairs.  ``len``, ``bool``,
    ``is_zero``, :meth:`total_degree`, the renderer, the CLI's JSON writer
    and the expansion (:func:`expand_rational`) read the list and build
    none.  Arithmetic here works on term maps; only N/D + P
    (:meth:`StringyRational.__add__`) keeps a flat N flat
    (:func:`_flat_sum`).
    """

    __slots__ = ("_terms", "_flat")

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
        self._flat = None

    def __getattr__(self, name: str):
        # called only for a slot left unset: the term map of a flat polynomial
        if name != "_terms" or self._flat is None:
            raise AttributeError(name)
        self._terms = terms = _flat_terms(*self._flat)
        return terms

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
    def from_diagonal(cls, coeffs: Mapping[int, int]) -> "BivariatePolynomial":
        """Build a polynomial in t = uv from a map {k: coefficient of t^k}."""
        return cls({(k, k): c for k, c in coeffs.items()})

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[ExponentPair, int]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[ExponentPair, int]]:
        """The terms in output order: by total degree i + j, then j."""
        return sorted(self._terms.items(), key=_term_order)

    def coefficient(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def support(self) -> frozenset[ExponentPair]:
        return frozenset(self._terms)

    def total_degree(self) -> int:
        """The largest total degree i + j of a term, -1 for zero."""
        if self._flat is not None:
            values, layout = self._flat
            last = next(compress(range(len(values) - 1, -1, -1), reversed(values)), None)
            return -1 if last is None else sum(layout.pair(last))
        return max(map(sum, self._terms), default=-1)

    @property
    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        if self._flat is not None:
            return any(self._flat[0])
        return bool(self._terms)

    def __len__(self) -> int:
        if self._flat is not None:
            values = self._flat[0]
            return len(values) - values.count(0)
        return len(self._terms)

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
        return _polynomial({pair: -c for pair, c in self._terms.items()})

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
        return _polynomial(data)

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
            return _polynomial({pair: c * other for pair, c in self._terms.items()})
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
        return _polynomial(data)

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

        This is the verdict of the canonical form: self / ((uv)^m - 1)
        cancels to a polynomial (:class:`StringyRational`) exactly when the
        division is exact, and that polynomial is the quotient.  A
        polynomial whose packed value would pass ``PACKED_BIT_BUDGET`` bits
        raises ``PackedSizeError``.
        """
        x = StringyRational(self, (checked_int(m, "cyclotomic-product exponent", 1),))
        return x.numerator if x.is_polynomial else None


def _polynomial(terms: dict[ExponentPair, int]) -> BivariatePolynomial:
    """The polynomial of a term map already free of zero coefficients, which
    it takes over without copying or checking."""
    out = BivariatePolynomial.__new__(BivariatePolynomial)
    out._terms, out._flat = terms, None
    return out


def _flat_polynomial(values: list[int], layout: "_Layout") -> BivariatePolynomial:
    """The flat polynomial of the coefficients at the positions of the
    layout, which it takes over as they stand; its term map is built on
    first request."""
    out = BivariatePolynomial.__new__(BivariatePolynomial)
    out._flat = (values, layout)
    return out


def _flat_terms(values: list[int], layout: "_Layout") -> dict[ExponentPair, int]:
    """The term map of coefficients on a skewed layout, in output order."""
    return dict(compress(zip(layout.pairs(), values), values))


def _flat_sum(values: list[int], layout: "_Layout", terms: dict[ExponentPair, int],
              den: Iterable[int]) -> Union[BivariatePolynomial, None]:
    """The flat polynomial of values on the layout plus a term map times the
    factors (uv)^m - 1 of den, on that layout, or None when a term of the
    product has no position in it.  The term at (i, j) sits at
    ((i + j) // 2 - first) R + rank(i - j) (:class:`_Layout`), and t^k moves
    it k R positions down its column, so each term adds c times den's
    coefficients in t, built once, along its column from there."""
    R, first = len(layout.offsets), layout.first
    rank = {s: r for r, s in enumerate(layout.offsets)}
    times = [1]  # den's coefficients in t
    for m in den:  # times t^m - 1: shifted m up, less itself
        times = list(map(sub, [0] * m + times, times + [0] * m))
    steps = [(k * R, d) for k, d in enumerate(times) if d]
    out = values[:]
    end = len(out) - (len(times) - 1) * R  # from here on, a term's product ends past the list
    for (i, j), c in terms.items():
        r = rank.get(i - j)
        if r is None:
            return None
        at = ((i + j) // 2 - first) * R + r
        if at >= end:
            return None
        for step, d in steps:
            out[at + step] += c * d
    return _flat_polynomial(out, layout)


def _coerce_poly(value) -> Union[BivariatePolynomial, None]:
    if isinstance(value, BivariatePolynomial):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return BivariatePolynomial.constant(value)
    return None


def signed_sum(parts: Iterable[tuple[int, BivariatePolynomial]]) -> BivariatePolynomial:
    """The sum of sign p over (sign, p) parts, sign 1 or -1, added term by
    term into one map: no polynomial is made per part."""
    data: dict[ExponentPair, int] = {}
    get = data.get
    for sign, p in parts:
        for pair, c in p._terms.items():
            data[pair] = get(pair, 0) + sign * c
    return _polynomial({pair: c for pair, c in data.items() if c})


def _times_denominator(p: BivariatePolynomial, den: CycloProduct) -> BivariatePolynomial:
    """p times the product of den's factors (uv)^m - 1, one factor at a
    time: the term map shifted by (m, m), less the map itself."""
    terms = p._terms
    for m in den._factors:
        shifted = {(i + m, j + m): c for (i, j), c in terms.items()}
        get = shifted.get
        for pair, c in terms.items():
            shifted[pair] = get(pair, 0) - c
        terms = shifted
    return _polynomial({pair: c for pair, c in terms.items() if c})


class CycloProduct:
    """A multiset of positive integers m, denoting the product of the
    polynomials (uv)^m - 1.  The empty product denotes 1."""

    __slots__ = ("_factors",)

    def __init__(self, factors: Iterable[int] = ()):
        fs = tuple(factors)
        for m in fs:  # a loop: a generator costs more
            checked_int(m, "denominator factor", 1)
        self._factors = tuple(sorted(fs))

    @classmethod
    def _from_sorted(cls, factors: tuple[int, ...]) -> "CycloProduct":
        """The product of factors that are already checked and sorted, which
        it takes over without checking or sorting them again."""
        out = cls.__new__(cls)
        out._factors = factors
        return out

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
        return _times_denominator(BivariatePolynomial.one(), self)

    def union(self, other: "CycloProduct") -> "CycloProduct":
        """Multiset union (max multiplicity per value): the least common
        denominator used when adding rationals."""
        counts = _multiplicities(self._factors)
        for m, n in _multiplicities(other._factors).items():
            counts[m] = max(counts.get(m, 0), n)
        return _from_counts(counts)

    def minus(self, other: "CycloProduct") -> "CycloProduct":
        """Multiset difference; other must be contained in self."""
        counts = _multiplicities(self._factors)
        for m, n in _multiplicities(other._factors).items():
            if counts.get(m, 0) < n:
                raise ValueError("multiset difference of non-contained factor sets")
            counts[m] -= n
        return _from_counts(counts)

    def times(self, other: "CycloProduct") -> "CycloProduct":
        """Multiset sum: the denominator of a product of rationals."""
        return CycloProduct._from_sorted(tuple(sorted(self._factors + other._factors)))


def _multiplicities(factors: Iterable[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for m in factors:
        counts[m] = counts.get(m, 0) + 1
    return counts


def _from_counts(counts: Mapping[int, int]) -> CycloProduct:
    """The product with each checked m taken counts[m] times."""
    return CycloProduct._from_sorted(tuple(m for m in sorted(counts) for _ in range(counts[m])))


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
        """The canonical sum: over the union of two denominators, reduced; with
        P a polynomial, (N + P D)/D, whose D stays canonical, P D put into a
        copy of a flat N's list when all its terms have positions there
        (:func:`_flat_sum`), else into a term map."""
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        if not other._den:
            out = self._num._flat and _flat_sum(*self._num._flat, other._num._terms, self._den._factors)
            if out is None:
                out = self._num + _times_denominator(other._num, self._den)
            return StringyRational._from_canonical(out, self._den)
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
    ``norm`` bounds the sum of |c|, or is 0 for a written-back numerator,
    whose digits are checked instead (:func:`_fits`).
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


def _repeated(digit: int, nb: int, slots: int) -> bytes:
    """slots slots of nb bytes, each holding the nonnegative digit."""
    return digit.to_bytes(nb, "little") * slots


# the most terms a table may have to be packed as a sum of shifted digits
_FEW_TERMS = 16


def _scan(terms: Mapping[ExponentPair, int], offsets: set[int]) -> tuple[int, int, int, bool, int]:
    """One pass over a nonempty {(i, j): c}, which adds its offsets i - j to
    ``offsets``, for its figures (low, high, norm, symmetric, top): the
    least and the largest min(i, j), the sum of |c|, u<->v symmetry and the
    largest exponent.  Symmetry is tested from one side: each term with
    i > j has its mirror, and as many terms have i < j."""
    get, add = terms.get, offsets.add
    low = high = min(next(iter(terms)))
    top = norm = skew = 0
    symmetric = True
    for (i, j), c in terms.items():
        add(i - j)
        if i > j:
            skew += 1
            if symmetric and get((j, i)) != c:
                symmetric = False
            i, j = j, i
        elif i < j:
            skew -= 1
        if j > top:
            top = j
        if i > high:
            high = i
        elif i < low:
            low = i
        norm += c if c > 0 else -c
    return low, high, norm, symmetric and not skew, top


def _pack(terms: Mapping[ExponentPair, int], rank: Mapping[int, int], width: int, figures: tuple) -> int:
    """The packed value of a nonempty {(i, j): c} over the offset ranks,
    given its figures from :func:`_scan`.

    One rule picks how.  A table of at most ``_FEW_TERMS`` terms is the sum
    of its digits shifted into their slots, c << slot width: each addition
    costs up to the value's size, so the whole grows as the terms times
    that size, and for few terms that beats a fixed cost of microseconds.
    A larger table writes its digits as bytes into the slots between its
    rows, and reads them as two ints once, linear in the size and the
    terms.  (Measured under CPython 3.11 on an x86-64 machine, tables of 5
    offsets and 2-byte slots: 4 terms pack in 1.6 against 4.9 us, 16 in
    6.8 against 15.9 us; past a few hundred dense terms, or tens of terms
    spread over many rows, the bytes win.)"""
    R = len(rank)
    if len(terms) <= _FEW_TERMS:
        value = 0
        for (i, j), c in terms.items():
            value += c << ((i if i < j else j) * R + rank[i - j]) * width
        return value
    low, high = figures[:2]
    nb, base = width // 8, low * R
    pos = bytearray((high - low + 1) * R * nb)
    neg = bytearray(len(pos))
    for (i, j), c in terms.items():
        at = ((i if i < j else j) * R + rank[i - j] - base) * nb
        if c > 0:
            pos[at:at + nb] = c.to_bytes(nb, "little")
        else:
            neg[at:at + nb] = (-c).to_bytes(nb, "little")
    return (int.from_bytes(pos, "little") - int.from_bytes(neg, "little")) << base * width


def _pack_tables(tables: list[tuple[Mapping[ExponentPair, int], Union[tuple, None]]], offsets: set[int],
                 norm: int, degree: int, spare: int = 0) -> tuple[int, tuple[int, ...], list[tuple[int, int]]]:
    """(terms, figures) tables packed on one layout, as (width, offsets,
    [(value, top)]), from the figures of :func:`_scan` (None for a zero
    table, packed as (0, 0)) and the union of their offsets, with no other
    walk of the terms; slots as wide as signed digits up to norm 2^spare
    need.  A layout whose values could pass ``PACKED_BIT_BUDGET`` bits at
    degree, the largest power of t they may reach once multiplied, raises
    ``PackedSizeError`` before any table is packed."""
    ordered = tuple(sorted(offsets))
    rank = {s: r for r, s in enumerate(ordered)}
    width = _width(norm << spare)
    _check_size((degree + 1) * len(ordered), width)
    return width, ordered, [(_pack(terms, rank, width, figures), figures[1]) if figures else (0, 0)
                            for terms, figures in tables]


def _relayout(p: PackedNumerator, width: int) -> int:
    """p's value with slots widened to ``width`` bits, on p's own offsets.
    The biased digits move as bytes, by one strided slice assignment per
    byte of p's slots."""
    if not p.value:
        return 0
    nb, wide = p.width // 8, width // 8
    slots = (p.degree + 1) * len(p.offsets)
    _check_size(slots, width)
    half = 1 << (p.width - 1)  # added to every slot, it makes each digit nonnegative
    data = (p.value + int.from_bytes(_repeated(half, nb, slots), "little")).to_bytes(slots * nb, "little")
    fill = _repeated(half, wide, slots)
    out = bytearray(fill)
    for b in range(nb):
        out[b::wide] = data[b::nb]
    return int.from_bytes(out, "little") - int.from_bytes(fill, "little")


# maps every nonzero byte to 1, so that ``find`` locates nonzero slots
_NONZERO_MARKS = bytes([0] + [1] * 255)
# maps every byte to the byte that extends its sign bit
_SIGN_FILL = bytes([0] * 128 + [255] * 128)
# the signed memoryview format of a slot of 1, 2, 4 or 8 bytes
_SIGNED_FORMAT = {1: "b", 2: "h", 4: "i", 8: "q"}


def _digits(data: bytes, nb: int) -> list[int]:
    """The signed digits of consecutive little-endian two's-complement slots
    of nb bytes.  Slots of up to 8 bytes are read by one ``memoryview.cast``
    to the next slot size it has, 1, 2, 4 or 8 bytes, after widening them
    by strided slices that fill the new bytes with the sign, and swapping
    the bytes of each slot on a big-endian host; wider slots one by one."""
    if nb > 8:
        return [int.from_bytes(data[at:at + nb], "little", signed=True) for at in range(0, len(data), nb)]
    w = 1 << (nb - 1).bit_length()
    if w != nb or sys.byteorder == "big":
        out = bytearray(len(data) // nb * w)
        fill = data[nb - 1::nb].translate(_SIGN_FILL)
        for b in range(w):
            out[(b if sys.byteorder == "little" else w - 1 - b)::w] = data[b::nb] if b < nb else fill
        data = out
    return memoryview(data).cast(_SIGNED_FORMAT[w]).tolist()


def _sparse_terms(data: bytes, marks: bytes, start: int, end: int, nb: int,
                  offsets: tuple[int, ...]) -> list[tuple[ExponentPair, int]]:
    """The terms of the nonzero slots between bytes start and end of data,
    sorted in output order.  Only runs without a whole zero slot are read
    (:func:`_digits`), and only their nonzero digits become terms."""
    R = len(offsets)
    gap = bytes(2 * nb - 1)  # holds a whole zero slot wherever it starts
    found = []
    while start >= 0:
        stop = marks.find(gap, start, end)
        if stop < 0:
            stop = end
        lo, hi = start // nb, -(-stop // nb)
        digits = _digits(data[lo * nb:hi * nb], nb)
        for k, c in zip(compress(range(lo, hi), digits), compress(digits, digits)):
            n, r = divmod(k, R)
            s = offsets[r]
            found.append(((n + s, n) if s >= 0 else (n, n - s), c))
        start = marks.find(1, stop, end)
    found.sort(key=_term_order)
    return found


# a value is moved into the skewed order when its stretch of that order, in
# slots, is at most this many times its nonzero bytes; a sparser value is
# read as its runs of nonzero slots (see :func:`_unpack`)
_SKEWED_READ = 16


def _unpack(p: PackedNumerator) -> BivariatePolynomial:
    """The polynomial of a packed value whose digits fit its width, with its
    terms in output order (see :meth:`BivariatePolynomial.sorted_items`).

    Adding 2^(width - 1) to every slot and flipping that bit back leaves
    each digit in two's complement in its own bytes.  The skewed order of
    :func:`expand_rational` puts the term at t^n of offset s in row
    n + |s| // 2, offsets ranked by (|s| mod 2, -s), so position order is
    output order.  That moves a column at most skew = max |s| // 2 -
    min |s| // 2 rows down, so rows 0 to b span (b + skew) R positions of
    that order.

    When the rows up to the last nonzero one span at most ``_SKEWED_READ``
    times the value's nonzero bytes, their digits are read at once
    (:func:`_digits`), each offset's column is moved into the skewed order
    by one strided slice, and the list is the flat polynomial on its
    :class:`_Layout`: no pair is made.  A sparser value is read as its runs
    of nonzero slots, found by ``find`` over the nonzero marks at C speed,
    into a term map in output order (:func:`_sparse_terms`), so no read
    outgrows the nonzero bytes by more than that factor.
    """
    if not p.value:
        return _polynomial({})
    nb, R = p.width // 8, len(p.offsets)
    row = R * nb
    size = (p.degree + 1) * row
    bias = int.from_bytes(_repeated(1 << (p.width - 1), nb, size // nb), "little")
    data = ((p.value + bias) ^ bias).to_bytes(size, "little")
    marks = data.translate(_NONZERO_MARKS)
    ranked, first = _skewed_layout(p.offsets, 0)[:2]  # the rank order and the first row
    skew = max(map(abs, ranked)) // 2 - first
    rows = marks.rfind(1) // row + 1
    if (rows + skew) * R > _SKEWED_READ * marks.count(1):
        return _polynomial(dict(_sparse_terms(data, marks, marks.find(1), size, nb, p.offsets)))
    digits = _digits(data[:rows * row], nb)
    values = [0] * ((rows + skew) * R)
    span = rows * R
    place = {s: (abs(s) // 2 - first) * R + q for q, s in enumerate(ranked)}
    for r, s in enumerate(p.offsets):
        at = place[s]
        values[at:at + span:R] = digits[r::R]
    # 2 (rows - 1 + max |s| // 2) + 1 is the horizon whose layout ends every
    # column in the last row read
    return _flat_polynomial(values, _ranked_layout(ranked, 2 * (rows + skew + first) - 1))


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


def _write_back(num: PackedNumerator, den: CycloProduct, reduced: CycloProduct
                ) -> Union[PackedNumerator, None]:
    """num times the factors of reduced over those of den, dividing by the
    largest dropped factor first, or None at the first division that leaves
    a residue.  The width holds every digit of num times the gained factors;
    the quotient's digits are left for :func:`_fits` to check (see
    :func:`_reduce`)."""
    both = reduced.union(den)
    gained, dropped = both.minus(den), both.minus(reduced)
    degree = num.degree + gained.degree_uv()
    width = max(num.width, _width(num.norm << len(gained)))
    _check_size((degree + 1) * len(num.offsets), width)
    value = num.value if width == num.width else _relayout(num, width)
    step = width * len(num.offsets)
    for m in gained:
        value = (value << step * m) - value
    for m in sorted(dropped, reverse=True):
        if not _vanishes(value, step * m, ()):
            return None
        value = _exact_quotient(value, step * m)
    return PackedNumerator(value, width, num.offsets, degree - dropped.degree_uv(), 0)


def _fits(p: PackedNumerator, headroom: int) -> bool:
    """Whether every digit of p, read balanced, keeps headroom bits below
    its width: p plus 2^(width - 1 - headroom) in every slot is a
    nonnegative int of p's slots with the top headroom bits of every slot
    clear.  Bit masks on the whole int; no digit is read."""
    w = p.width
    if headroom >= w:
        return False
    nb, slots = w // 8, (p.degree + 1) * len(p.offsets)
    biased = p.value + int.from_bytes(_repeated(1 << (w - 1 - headroom), nb, slots), "little")
    top = int.from_bytes(_repeated(((1 << headroom) - 1) << (w - headroom), nb, slots), "little")
    return biased >= 0 and biased.bit_length() <= slots * w and not biased & top


def _deeper(x: PackedNumerator, k: int, primes: list[int], limit: int) -> int:
    """How many more times Phi_k divides x, up to limit, given that it
    divides once: Phi_k^(L+1) divides x when Phi_k divides f_L, made one
    level at a time at x's width (see :func:`_reduce`)."""
    step = x.width * len(x.offsets)
    value = x.value
    for level in range(1, limit + 1):
        for p in primes:
            value = (value << step * (k // p)) - value
        value = _exact_quotient(value, step * k)
        if not _vanishes(value, step * k, [step * k // p for p in primes]):
            return level - 1
    return limit


def _cancel(num: PackedNumerator, den: CycloProduct) -> tuple[CycloProduct, Union[PackedNumerator, None]]:
    """The reduced denominator of num / den and the written-back numerator,
    or None for it when a division leaves a residue, from the cyclotomic
    tests at num's width (see :func:`_reduce`)."""
    counts = _multiplicities(den.factors)
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
                reduced = CycloProduct._from_sorted(tuple(factors[::-1]))
                out = _write_back(num, den, reduced)
                if out is not None:
                    return reduced, out
            depth -= 1 + _deeper(num, k, primes, depth - 1)
        if depth:
            factors += [k] * depth
            for d in _divisors(k):
                exponents[d] -= depth
    reduced = CycloProduct._from_sorted(tuple(factors[::-1]))  # written largest first
    return reduced, _write_back(num, den, reduced)


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
    deep.  The numerator is x G / prod_{m dropped} (t^m - 1), with x = num
    and G the product of the gained factors (:func:`_write_back`).

    Every step runs on the packed value x (:class:`PackedNumerator`), where
    T = 2^(width R) is t.  Modulo t^k - 1, y = prod_{p | k prime}
    (1 - t^{k/p}) vanishes at every d-th root of unity with d | k, d < k,
    and at no primitive k-th one, so Phi_k divides a row f exactly when
    t^k - 1 divides f y.  Level L + 1 tests f_L = f P^L / (t^k - 1)^L,
    P = prod_p (t^{k/p} - 1), which Phi_k divides exactly when Phi_k^(L+1)
    divides f (:func:`_deeper`).  The int operations are exact at any
    width, and the width only decides whether digits can be read back, so
    nothing is bounded ahead; the answers are confirmed after the fact:

    * A residue is a proof.  If Phi_k divides f_L, T^k - 1 divides
      f_L(T) y(T) as ints, so a nonzero fold (:func:`_vanishes`) proves
      that it does not, whatever the width, provided the levels before
      were true.  Likewise a division of the write-back that leaves a
      residue proves the numerator is no polynomial.
    * A false "divides" can only cancel too much: the first one, at the
      largest such k, leaves Phi_k in the denominator fewer times than the
      reduced fraction needs, so x G / prod_{m dropped} (t^m - 1) is not a
      polynomial.
    * The write-back confirms it is one.  Its divisions leave no residue,
      so the quotient q times prod_{m dropped} (T^m - 1) is x G(T) as
      ints.  The width holds every digit of x G, and if q's digits keep
      1 + |dropped| bits of headroom (:func:`_fits`), each of the factors
      at most doubles them, so both sides are packed polynomials whose
      digits fit: their ints are equal only if they are.

    So a written-back numerator that fits is the canonical one.  One that
    does not (too narrow, or a test fooled by digits past the width) makes
    the whole reduction run again at twice the width, until it fits or the
    size passes ``PACKED_BIT_BUDGET`` (:func:`_relayout`).

    Phi_1 comes last.  With every other Phi_k settled, x G / prod_{m
    dropped} (t^m - 1) is a polynomial exactly when Phi_1 divides x to the
    full depth e_1 - c_1.  So when Phi_1 passes level 1 with more levels to
    go, that write-back is tried first, and only a residue sends Phi_1 to
    the level tests.  A formula sum never keeps a pole at uv = 1, so its
    trial succeeds, and no quotient by (t - 1)^L is made.

    Each step is a few int operations, linear in the packed size.
    """
    if not den:
        return (_unpack(num) if isinstance(num, PackedNumerator) else num), CycloProduct()
    if not isinstance(num, PackedNumerator):
        num = common_denominator_sum([(num, ())])[0]
    if not num.value:
        return BivariatePolynomial(), CycloProduct()
    while True:
        reduced, out = _cancel(num, den)
        if out is not None and _fits(out, 1 + len(reduced.union(den)) - len(reduced)):
            return _unpack(out), reduced
        width = 2 * num.width
        num = PackedNumerator(_relayout(num, width), width, num.offsets, num.degree, num.norm)


def _largest(keys: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]) -> dict[int, int]:
    """For terms whose (factors, gains) are these keys, the multiplicities
    of their common denominator: every m with its largest multiplicity in
    any key's factors."""
    largest: dict[int, int] = {}
    for factors, _ in keys:
        for m in factors:
            n = factors.count(m)
            if n > largest.get(m, 0):
                largest[m] = n
    return largest


def _merge(terms: list[tuple], width: int, offsets: tuple[int, ...]) -> tuple[int, int, CycloProduct]:
    """Sum packed terms (value, top, factors, gains, lift), each standing
    for value (-uv)^lift prod_{m in gains} (t^m - 1) / prod_{m in factors}
    (t^m - 1) with value on the layout (width, offsets) and top a bound on
    its degree, as (packed numerator, a bound on its degree, common
    denominator), not cancelled.

    The terms are grouped by their (factors, gains) key once, and every
    key's factors count towards the common denominator (:func:`_largest`),
    whether its values are zero or not.  (-uv)^lift moves a value lift rows
    up, negated when lift is odd.  Each key's sum is multiplied by what it
    needs: its gains and the factors of the common denominator its own
    lacks, held as one int with a field of bits per distinct m among all
    factors and gains, the first m lowest.  Sums that need the same are
    added first.  Then they are multiplied out one distinct m at a time,
    merging first the partial sums that still need the same factors among
    the m to come, so a factor shared by many terms is multiplied once into
    their sum.

    When n terms each lack the others' factors, their sums merge only at
    the end, after about n^2/2 shift-subtracts at full size.  A pairwise
    merge, as in a subproduct tree (D. J. Bernstein, "Fast multiplication
    and its applications", 2008), makes about n log n, but it multiplies
    partial sums by factors that this order applies once to a merged sum,
    and each pair costs Python overhead: replaying every merge of the
    benchmark workloads (CPython 3.11, x86-64), it took 1.2-1.9 times as
    long on every sum, all under 2^17 bits, and it only gained past that
    size, on sums of strata with distinct factors.
    """
    step = width * len(offsets)
    # per key, [the sum of its lifted values, their largest top + lift], or [0, -1] when every value is 0
    sums: dict[tuple, list] = {}
    for value, top, factors, gains, lift in terms:
        key = (factors, gains)
        group = sums.get(key)
        if value:
            if lift:
                value = (-value if lift & 1 else value) << lift * step
                top += lift
            if group is None:
                sums[key] = [value, top]
            else:
                group[0] += value
                if top > group[1]:
                    group[1] = top
        elif group is None:
            sums[key] = [0, -1]
    largest = _largest(sums)
    ordered = sorted(largest)
    common = CycloProduct._from_sorted(tuple([m for m in ordered for _ in range(largest[m])]))
    gained: set[int] = set()
    longest = 0
    for _, gains in sums:
        if gains:
            gained.update(gains)
            if len(gains) > longest:
                longest = len(gains)
    distinct = sorted(gained.union(ordered)) if gained else ordered
    # no count in a need passes the common denominator's length plus the
    # longest gains
    bits = (len(common) + longest).bit_length()
    unit = {m: 1 << bits * k for k, m in enumerate(distinct)}
    base = sum([largest[m] * unit[m] for m in ordered])
    full = common.degree_uv()
    pending: dict[int, int] = {}
    degree = 0
    for (factors, gains), (value, high) in sums.items():
        if high < 0:
            continue
        need = base
        for m in factors:
            need -= unit[m]
        if gains:
            high += sum(gains)
            for m in gains:
                need += unit[m]
        high += full - sum(factors)
        if high > degree:
            degree = high
        if need in pending:
            pending[need] += value
        else:
            pending[need] = value
    mask = (1 << bits) - 1
    for shift in [step * m for m in distinct]:
        merged: dict[int, int] = {}
        for at, part in pending.items():
            n = at & mask
            while n:
                part = (part << shift) - part
                n -= 1
            rest = at >> bits
            if rest in merged:
                merged[rest] += part
            else:
                merged[rest] = part
        pending = merged
    return pending.get(0, 0), degree, common


def common_denominator_sum(terms: Iterable[tuple]) -> tuple[PackedNumerator, CycloProduct]:
    """The sum of num (-uv)^lift prod_{g in gains} ((uv)^g - 1) /
    prod_{m in factors} ((uv)^m - 1) over (num, factors),
    (num, factors, gains) or (num, factors, gains, lift) terms, as (packed
    numerator, common denominator), not cancelled: cancel it once
    (``StringyRational(*sum)``), not after every addition.

    Every m is checked once, in the order met, and every lift with its
    term's factors, whether num is zero or not.  Then each num is scanned
    once for its figures (:func:`_scan`) and packed as it is, on one layout
    (:func:`_pack_tables`), and the packed values go
    through the one merge of the formula sums (:func:`_merge`), which
    derives what each term is multiplied by.  Only its count and degree are
    needed here, from the common denominator's multiplicities
    (:func:`_largest`): a term gains its gains and the common factors its
    own denominator lacks.  The layout has the offsets of every term, and a
    width that holds norm = sum over terms of |num|_1 2^(number of factors
    multiplied in) plus a sign bit.  norm bounds |sum|_1 and every partial
    sum's, so this width holds every digit of the sum.  A sum whose packed
    value would pass ``PACKED_BIT_BUDGET`` bits raises ``PackedSizeError``
    before any term is packed.
    """
    keys: dict[tuple, None] = {}
    checked: set[int] = set()
    entries = []
    for num, factors, *rest in terms:
        key = (tuple(factors), tuple(rest[0]) if rest else ())
        if key not in keys:
            keys[key] = None
            for m in key[0] + key[1]:  # the caller's: checked once each
                if type(m) is not int or m not in checked:
                    checked.add(checked_int(m, "denominator factor", 1))
        entries.append((num, key, checked_int(rest[1], "lift") if len(rest) > 1 else 0))
    largest = _largest(keys)
    size, full = sum(largest.values()), sum(m * n for m, n in largest.items())
    present, tables, norm, degree = set(), [], 0, 0
    for num, (factors, gains), lift in entries:
        tables.append((num._terms, figures := _scan(num._terms, present) if num._terms else None))
        if figures:
            norm += figures[2] << (size - len(factors) + len(gains))
            degree = max(degree, figures[1] + lift + full - sum(factors) + sum(gains))
    width, offsets, packed = _pack_tables(tables, present, norm, degree)
    value, degree, common = _merge([(value, top, *key, lift) for (value, top), (_, key, lift)
                                    in zip(packed, entries)], width, offsets)
    return PackedNumerator(value, width, offsets, degree, norm), common


def same_value(x: tuple[PackedNumerator, CycloProduct], y: tuple[PackedNumerator, CycloProduct]) -> bool:
    """Whether the packed sums x and y, (numerator, denominator) pairs not
    cancelled, are one rational function: each numerator times the factors
    of the union of the denominators that its own lacks, compared as ints.

    Both numerators must be on one layout, whose width holds every digit of
    both products: the engine's two formula sums are, on the config's
    layout (``engine._packed_strata``), as
    ``test_packed_sums_match_converted_tables`` asserts."""
    both = x[1].union(y[1])
    values = []
    for p, den in (x, y):
        gain = both.minus(den)
        _check_size((p.degree + gain.degree_uv() + 1) * len(p.offsets), p.width)
        step = p.width * len(p.offsets)
        value = p.value
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

    The coefficients are handed out in output order: by total degree i + j,
    then j, then i (the order of :meth:`BivariatePolynomial.sorted_items`).
    They are held as the polynomial of those coefficients, in output
    order, in one of its two forms:

    * sparse, a term map.  The public constructor sorts once, and
      :func:`expand_rational` keeps a polynomial's truncation this way, so
      the size is bounded by terms.
    * flat, as :func:`expand_rational` computes a rational value: the list
      of every coefficient of its skewed layout (:class:`_Layout`), zeros
      included, whose position order is output order
      (:class:`BivariatePolynomial`).  The term map is built from it on
      first request by whatever asks for pairs through :meth:`_term_map`:
      ``coefficient``, ``items``, ``sorted_items``, ``==``, ``hash`` and
      ``repr``.  The renderer, the JSON writer and the verdict scans of the
      engine read the list (``_flat``) and build no term map.

    Asking for a coefficient beyond the horizon raises: nothing out there is
    claimed, not even zero.
    """

    __slots__ = ("_horizon", "_poly")

    def __init__(self, horizon: int, coeffs: Union[Mapping, Iterable, None] = None):
        checked_int(horizon, "horizon")
        poly = BivariatePolynomial(coeffs)
        for (i, j) in poly._terms:
            if i + j > horizon:
                raise ValueError(f"coefficient at {(i, j)} lies beyond horizon {horizon}")
        self._horizon = horizon
        self._poly = _polynomial(dict(poly.sorted_items()))

    @classmethod
    def _on_layout(cls, values: list[int], layout: "_Layout") -> "TruncatedBiseries":
        """The flat series of the coefficients at the positions of the
        layout, which it takes over as they stand."""
        out = cls.__new__(cls)
        out._horizon, out._poly = layout.horizon, _flat_polynomial(values, layout)
        return out

    @property
    def _flat(self) -> Union[tuple[list[int], "_Layout"], None]:
        """The values and layout of a flat series, None for a sparse one."""
        return self._poly._flat

    def _term_map(self) -> BivariatePolynomial:
        """The polynomial of the coefficients, for whatever asks for pairs:
        a flat one builds its term map then, once."""
        return self._poly

    @property
    def horizon(self) -> int:
        return self._horizon

    def coefficient(self, i: int, j: int) -> int:
        pair = _check_exponent_pair((i, j))
        if pair[0] + pair[1] > self._horizon:
            raise ValueError(f"coefficient at {pair} lies beyond horizon {self._horizon}")
        return self._term_map().coefficient(*pair)

    def items(self) -> Iterator[tuple[ExponentPair, int]]:
        """The terms in output order."""
        return self._term_map().items()

    def sorted_items(self) -> ItemsView[ExponentPair, int]:
        """The terms in output order, as held: no sort and no copy."""
        return self._term_map()._terms.items()

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedBiseries):
            return self._horizon == other._horizon and self._term_map() == other._term_map()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._horizon, self._term_map()))

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {decimal_str(c)}" for (i, j), c in self.items())
        return f"TruncatedBiseries(horizon={self._horizon}, {{{body}}})"


def _running_sums(values: list[int], stride: int) -> None:
    """values[k] += values[k - stride] for k = stride, stride + 1, ... in
    place: the running sum along each residue class mod stride.  Slices do
    the additions at C speed, one per class (``accumulate``) or one per
    block of stride after the first (added to the block before it, already
    summed), whichever is fewer."""
    n = len(values)
    if stride * stride < n:
        for r in range(stride):
            values[r::stride] = accumulate(values[r::stride])
    else:
        for at in range(stride, n, stride):
            values[at:at + stride] = map(add, values[at:at + stride], values[at - stride:at])


class _Layout(NamedTuple):
    """The skewed flat layout of :func:`expand_rational` for the offsets
    s = i - j present, to a horizon.

    The offsets are ranked by (|s| mod 2, -s); first is the least |s| // 2.
    The coefficient at k = min(i, j) of offset s sits at position
    (k + |s| // 2 - first) R + rank(s), R the number of offsets: R positions
    per row up to horizon // 2, less the odd offsets' slots in the last row
    when the horizon is even (their degrees 2 row + 1 pass it), which is
    ``size`` positions.  As i + j = 2 (row + first) + |s| mod 2 and
    j = (i + j - s) / 2, position order is output order.  A column starts
    |s| // 2 - first rows down, after positions that hold no pair.
    """

    offsets: tuple[int, ...]
    first: int
    size: int
    horizon: int

    def start(self, rank: int) -> int:
        """The position of k = 0 in the column of the offset of that rank."""
        return (abs(self.offsets[rank]) // 2 - self.first) * len(self.offsets) + rank

    def pair(self, position: int) -> ExponentPair:
        """The exponent pair at a position that holds one."""
        row, rank = divmod(position, len(self.offsets))
        s = self.offsets[rank]
        k = row + self.first - abs(s) // 2
        return (k + s, k) if s >= 0 else (k, k - s)

    def pairs(self, column=None) -> list:
        """The exponent pair at every position, None where there is none:
        one strided slice assignment per offset.  Given ``column(s, n)``,
        the n values it gives for offset s, from k = 0, instead."""
        out: list = [None] * self.size
        R = len(self.offsets)
        for r, s in enumerate(self.offsets):
            n = max((self.horizon - abs(s)) // 2 + 1, 0)
            at = self.start(r)
            out[at:at + n * R:R] = (column(s, n) if column else zip(range(s, s + n), range(n)) if s >= 0
                                    else zip(range(n), range(-s, n - s)))
        return out


def _skewed_layout(offsets: Iterable[int], horizon: int) -> _Layout:
    """The :class:`_Layout` of the offsets present, to the horizon."""
    return _ranked_layout(tuple(sorted(offsets, key=lambda s: (s & 1, -s))), horizon)  # s & 1 is |s| mod 2


def _ranked_layout(ranked: tuple[int, ...], horizon: int) -> _Layout:
    """The :class:`_Layout` of offsets already in its rank order, to the
    horizon: a layout's own offsets, or some of them in their order."""
    if not ranked:
        return _Layout(ranked, 0, 0, horizon)
    first = min(map(abs, ranked)) // 2
    size = (horizon // 2 + 1 - first) * len(ranked)
    if horizon % 2 == 0:
        size -= sum(s & 1 for s in ranked)
    return _Layout(ranked, first, size, horizon)


def expand_rational(x: StringyRational, horizon: int) -> TruncatedBiseries:
    """Exact power-series coefficients of x for all i + j <= horizon, in
    output order (see :class:`TruncatedBiseries`), without a sort.

    The terms of one diagonal offset s = i - j form a series in t = uv
    indexed by k = min(i, j), up to top = (horizon - |s|) // 2.  All of
    them sit in one skewed flat list: the coefficient at k of offset s is
    at position (k + |s| // 2 - first) R + rank(s), with R the number of
    offsets present, ranked by (|s| mod 2, -s), and first the least
    |s| // 2 (:class:`_Layout`).  As i + j = 2k + |s| and
    j = (i + j - s) / 2, position order is output order.  An offset's
    column starts |s| // 2 - first rows down, after positions that stay 0.

    A step of R positions is a step of one power of t within every column,
    so dividing by t^m - 1 is the stride recurrence

        y_k = -x_k + y_{k-m}    (y_k = -x_k for k < m)

    on the whole list at stride m R: minus a running sum along each residue
    class (:func:`_running_sums`).  The recurrence is linear, so the
    numerator goes in with the sign of all the factors' -1s at once.  A
    factor costs O(horizon) per offset, so the whole expansion is
    O(offsets * factors * horizon), and the result is independent of factor
    order.  The list and its layout are the series as it stands
    (:meth:`TruncatedBiseries._on_layout`): no pair is made until something
    asks for the term map.  The layout and the numerator's columns within
    the horizon come from :func:`_expansion`, and :func:`_filled` puts each
    column in as one strided slice.  A polynomial is only truncated and
    sorted once, and stays sparse.
    """
    return _filled(x.denominator, horizon, *_expansion(x.numerator, x.denominator, checked_int(horizon, "horizon")))


def _filled(den: CycloProduct, horizon: int, layout: Union[_Layout, None], columns: Union[list, dict]
            ) -> TruncatedBiseries:
    """The series of num / den, from what :func:`_expansion` laid out for them."""
    if layout is None:
        return TruncatedBiseries(horizon, columns)
    factors = den.factors
    R = len(layout.offsets)
    values = [0] * layout.size
    for r, s in enumerate(layout.offsets):
        at, column = layout.start(r), columns[s]
        values[at:at + len(column) * R:R] = map(neg, column) if len(factors) % 2 else column
    for m in factors if R else ():  # no offsets: the empty layout
        _running_sums(values, m * R)
    return TruncatedBiseries._on_layout(values, layout)


def _expansion(num: BivariatePolynomial, den: CycloProduct, horizon: int
               ) -> tuple[Union[_Layout, None], Union[list, dict]]:
    """What :func:`expand_rational` lays out for num / den to the horizon,
    cancelled or not: for an empty den, (None, num's terms with
    i + j <= horizon); otherwise the skewed layout of the offsets of those
    terms and, per offset, its column's coefficients from k = 0.  A flat
    numerator's columns are sliced from the head of its list
    (:func:`_inside_columns`); a term map's are filled term by term and
    end at the offset's last term.  So no column outgrows the numerator's
    degree, whatever the horizon, and the cost check
    (``StringyResult.series_size``) stays cheap on a refused one.  The
    coefficients it computes are the positions of the layout, about
    horizon // 2 + 1 - min |s| // 2 for every offset s, or one per term of
    a polynomial."""
    if not den:
        return None, _inside(num, horizon)
    if num._flat is not None:
        columns = _inside_columns(*num._flat, horizon)
        return _ranked_layout(tuple(columns), horizon), columns
    columns: dict[int, list[int]] = {}
    for (i, j), c in _inside(num, horizon):
        column, k = columns.setdefault(i - j, []), min(i, j)
        column += [0] * (k + 1 - len(column))
        column[k] = c
    return _skewed_layout(columns, horizon), columns


def _inside_columns(values: list[int], layout: _Layout, horizon: int) -> dict[int, list[int]]:
    """Per offset s of a flat value's terms with i + j <= horizon, in rank
    order, its column's coefficients from k = 0 to the horizon or the
    list's end.  On a layout's offsets the positions of a lower horizon
    are a prefix, those with i + j up to it, so each column is one strided
    slice."""
    R = len(layout.offsets)
    end = _ranked_layout(layout.offsets, horizon).size
    columns = {}
    for r, s in enumerate(layout.offsets):
        at = layout.start(r)
        if at < end and any(column := values[at:end:R]):
            columns[s] = column
    return columns


def _inside(p: BivariatePolynomial, horizon: int) -> list[tuple[ExponentPair, int]]:
    """The terms of p with i + j <= horizon, in p's order: of a flat p, a
    prefix of its list, paired with the positions of its layout to that
    horizon (to the list's end at most)."""
    if p._flat is not None:
        values, layout = p._flat
        pairs = _ranked_layout(layout.offsets, min(horizon, layout.horizon)).pairs()
        return list(compress(zip(pairs, values), values))
    return [((i, j), c) for (i, j), c in p._terms.items() if i + j <= horizon]


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
    half = value.bit_length() * 30103 // 200000  # about half the digits (log10 2 ~ 0.30103)
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
    """Accept either encoding produced by :func:`encode_json_int`: a decimal
    string is an optional sign and ASCII digits, any number of them, with
    surrounding whitespace stripped."""
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
        raise ValueError(f"not a decimal integer: {_excerpt(value)}")
    raise ValueError(f"expected an integer or decimal string, got {value!r}")
