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
* ``TruncatedBiseries`` holds exact coefficients for all total degrees
  i + j <= horizon and claims nothing beyond it.  ``UnivariateTSeries`` is the
  analogous truncation for series in t alone, indexed by the power of t.
"""

from __future__ import annotations

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


def _term_sort_key(pair: ExponentPair) -> tuple[int, int, int]:
    # ascending total degree, then u-heavy terms first within a degree
    i, j = pair
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
        return sorted(self._terms.items(), key=lambda kv: _term_sort_key(kv[0]))

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

    def total_degree(self) -> int:
        """Largest i + j over the support; 0 for the zero polynomial."""
        return max((i + j for i, j in self._terms), default=0)

    def degree_u(self) -> int:
        return max((i for i, _ in self._terms), default=0)

    def degree_v(self) -> int:
        return max((j for _, j in self._terms), default=0)

    def is_diagonal(self) -> bool:
        """True when every term is a power of t = uv."""
        return all(i == j for i, j in self._terms)

    def diagonal_coefficients(self) -> dict[int, int]:
        """The map {k: coefficient of (uv)^k}; requires a diagonal polynomial."""
        if not self.is_diagonal():
            raise ValueError("polynomial has off-diagonal terms")
        return {i: c for (i, _), c in self._terms.items()}

    def swap_uv(self) -> "BivariatePolynomial":
        out = BivariatePolynomial()
        out._terms = {(j, i): c for (i, j), c in self._terms.items()}
        return out

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

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = BivariatePolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        if not self._terms:
            return "BivariatePolynomial(0)"
        body = ", ".join(f"({i},{j}): {decimal_str(c)}" for (i, j), c in self.sorted_items())
        return f"BivariatePolynomial({{{body}}})"

    # -- division by (uv)^m - 1 --------------------------------------------

    def exact_cyclo_quotient(self, m: int) -> Union["BivariatePolynomial", None]:
        """Divide by (uv)^m - 1, returning the quotient or None when the
        division is not exact.

        Terms are grouped by the diagonal offset i - j; within each group the
        polynomial is univariate in t = uv, where division by t^m - 1 reduces
        to residue-class sums: the remainder coefficient at t^r is the sum of
        coefficients over exponents congruent to r mod m, and the quotient
        coefficient at t^b is the tail sum over exponents >= b + m in the same
        class.  Runs of zero tail sums are skipped, so the cost follows the
        number of terms of the dividend and the quotient, not the degree.
        """
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"cyclotomic-product exponent must be a positive int, got {m!r}")
        if not self._terms:
            return BivariatePolynomial()

        classes = _rows_of(self)
        for coeffs in classes.values():
            residue: dict[int, int] = {}
            for k, c in coeffs.items():
                r = k % m
                residue[r] = residue.get(r, 0) + c
            if any(residue.values()):
                return None

        qterms: dict[ExponentPair, int] = {}
        for shift, coeffs in classes.items():
            chains: dict[int, list[int]] = {}
            for k in coeffs:
                chains.setdefault(k % m, []).append(k)
            for ks in chains.values():
                ks.sort(reverse=True)
                acc = 0
                ki = 0
                pos = ks[0]
                while pos >= m:
                    if ki < len(ks) and ks[ki] == pos:
                        acc += coeffs[pos]
                        ki += 1
                    if acc:
                        base = pos - m
                        pair = (base + shift, base) if shift >= 0 else (base, base - shift)
                        qterms[pair] = acc
                        pos -= m
                    elif ki == len(ks):
                        break  # tail sums are all zero from here down
                    else:
                        pos = ks[ki]  # zero tail sums down to the next term
        out = BivariatePolynomial()
        out._terms = qterms
        return out


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
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator, denominator: Union[CycloProduct, Iterable[int]] = ()):
        num = _coerce_poly(numerator)
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

    def expand(self, horizon: int) -> "TruncatedBiseries":
        return expand_rational(self, horizon)


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


# Rows: a polynomial split by diagonal offset s = i - j, each part a
# polynomial in t = uv given as {power of t: coefficient}.
Rows = dict[int, dict[int, int]]


def _rows_of(poly: BivariatePolynomial) -> Rows:
    rows: Rows = {}
    for (i, j), c in poly.items():
        rows.setdefault(i - j, {})[min(i, j)] = c
    return rows


def _poly_of(rows: Rows) -> BivariatePolynomial:
    terms = {}
    for s, row in rows.items():
        for k, c in row.items():
            terms[(k + s, k) if s >= 0 else (k, k - s)] = c
    out = BivariatePolynomial()
    out._terms = terms
    return out


def _times_cyclo(rows: Rows, m: int) -> Rows:
    """rows * ((uv)^m - 1)."""
    out: Rows = {}
    for s, row in rows.items():
        product = {k: -c for k, c in row.items()}
        for k, c in row.items():
            acc = product.get(k + m, 0) + c
            if acc:
                product[k + m] = acc
            else:
                del product[k + m]
        out[s] = product
    return out


def _add_into(acc: Rows, rows: Rows) -> None:
    for s, row in rows.items():
        into = acc.get(s)
        if into is None:
            acc[s] = dict(row)
            continue
        for k, c in row.items():
            total = into.get(k, 0) + c
            if total:
                into[k] = total
            else:
                del into[k]


def _cyclotomic_root(powers: list[int], coeffs: list[int], k: int, primes: list[int]) -> bool:
    """Whether Phi_k(t) divides sum_n c_n t^n, given the powers n and the
    coefficients c_n.

    Folded modulo t^k - 1 the polynomial keeps at most one term per residue.
    In Q[t]/(t^k - 1) the product x = prod_{p | k prime} (1 - t^{k/p})
    vanishes at every d-th root of unity with d < k (d divides some k/p) and
    at no primitive k-th one, so the fold times x is zero exactly when the
    polynomial vanishes at the primitive k-th roots: the cost is
    O(terms * 2^omega(k)) whatever the degree.
    """
    fold: dict[int, int] = {}
    for n, c in zip(powers, coeffs):
        r = n % k
        fold[r] = fold.get(r, 0) + c
    for p in primes:
        step = k // p
        shifted = dict(fold)
        for r, c in fold.items():
            r = (r + step) % k
            shifted[r] = shifted.get(r, 0) - c
        fold = {r: c for r, c in shifted.items() if c}
    return not any(fold.values())


def _reduce(num: BivariatePolynomial, den: CycloProduct) -> tuple[BivariatePolynomial, CycloProduct]:
    """The unique representation of num / den.

    With t = uv, den = prod_k Phi_k(t)^{e_k}, where e_k counts the factors m
    that k divides.  The numerator splits by diagonal offset s = i - j into
    polynomials in t, and Phi_k^r divides the numerator exactly when it
    divides every one of them, that is when theta^j of each vanishes at the
    primitive k-th roots of unity for j < r, with theta = t d/dt
    (:func:`_cyclotomic_root`).  Every Phi_k(uv) is irreducible in Q[u, v],
    so cancelling the largest such r_k <= e_k leaves the reduced fraction.
    Its denominator is written back in one pass over k, largest first: with
    c_k the number of factors already written that k divides,
    max(0, e_k - c_k - r_k) factors (uv)^k - 1 are written.  So Phi_k is
    tested at most e_k - c_k levels deep, the levels theta^j made on first
    use and shared by every k.  The numerator is num times the new factors
    over the old ones; the divisions are exact
    (:meth:`BivariatePolynomial.exact_cyclo_quotient`), and no step costs
    per degree of the denominator, only per term.
    """
    if not num:
        return BivariatePolynomial(), CycloProduct()
    exponents: dict[int, int] = {}
    for m, n in den._counts().items():
        for k in _divisors(m):
            exponents[k] = exponents.get(k, 0) + n
    rows = sorted(_rows_of(num).values(), key=len)  # short rows refute soonest
    powers = [list(row) for row in rows]
    levels = [[list(row.values()) for row in rows]]  # theta^j of the rows
    factors: list[int] = []
    for k in sorted(exponents, reverse=True):
        depth = exponents[k]  # e_k - c_k: each written factor uses up its Phi_d
        if depth <= 0:
            continue
        primes = _prime_factors(k)
        for level in range(depth):
            if level == len(levels):
                levels.append([[c * n for n, c in zip(ns, cs)] for ns, cs in zip(powers, levels[-1])])
            if not all(_cyclotomic_root(ns, cs, k, primes) for ns, cs in zip(powers, levels[level])):
                break
            depth -= 1
        if depth:
            factors += [k] * depth
            for d in _divisors(k):
                exponents[d] -= depth
    reduced = CycloProduct(factors)
    both = reduced.union(den)
    gained = both.minus(den)
    if gained:
        num = num * gained.polynomial()
    for m in both.minus(reduced):
        num = num.exact_cyclo_quotient(m)
    return num, reduced


def common_denominator_sum(terms: Iterable[tuple[BivariatePolynomial, Iterable[int]]]
                           ) -> tuple[BivariatePolynomial, CycloProduct]:
    """The sum of num / prod_{m in factors} ((uv)^m - 1) over (num, factors)
    pairs as (numerator, common denominator), not cancelled: cancel it once
    (``StringyRational(*sum)``), not after every addition.

    The common denominator takes every m with its largest multiplicity in
    any term; each numerator is multiplied by the factors its own lacks, one
    distinct m at a time, merging first the partial sums that lack the same
    factors among the m still to come, so a factor shared by many cofactors
    is multiplied once into their sum.
    """
    groups: dict[CycloProduct, Rows] = {}
    for num, factors in terms:
        _add_into(groups.setdefault(_coerce_cyclo(factors), {}), _rows_of(num))
    common = CycloProduct()
    for key in groups:
        common = common.union(key)
    distinct = sorted(set(common))
    pending: dict[tuple[int, ...], Rows] = {}
    for key, part in groups.items():
        counts = common.minus(key)._counts()
        _add_into(pending.setdefault(tuple(counts.get(m, 0) for m in distinct), {}), part)
    for m in distinct:
        merged: dict[tuple[int, ...], Rows] = {}
        for lacking, part in pending.items():
            for _ in range(lacking[0]):
                part = _times_cyclo(part, m)
            into = merged.get(lacking[1:])
            if into is None:
                merged[lacking[1:]] = part  # every pending map is owned here
            else:
                _add_into(into, part)
        pending = merged
    return _poly_of(pending.get((), {})), common


def same_value(x: tuple, y: tuple) -> bool:
    """Whether (numerator, denominator) pairs x and y, cancelled or not, are
    one rational function: x - y over the union of the denominators is 0."""
    if x[1] == y[1]:
        return x[0] == y[0]  # one denominator: compare term by term
    return not common_denominator_sum([x, (-y[0], y[1])])[0]


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
        return sorted(self._coeffs.items(), key=lambda kv: _term_sort_key(kv[0]))

    def diagonal(self) -> dict[int, int]:
        """The map {k: coefficient of (uv)^k} over the stored terms."""
        return {i: c for (i, j), c in self._coeffs.items() if i == j}

    def is_uv_symmetric(self) -> bool:
        return all(self._coeffs.get((j, i), 0) == c for (i, j), c in self._coeffs.items())

    def truncated(self, horizon: int) -> "TruncatedBiseries":
        if horizon > self._horizon:
            raise ValueError("cannot extend a truncation")
        return TruncatedBiseries(horizon, {p: c for p, c in self._coeffs.items() if p[0] + p[1] <= horizon})

    def times_polynomial(self, p: BivariatePolynomial) -> "TruncatedBiseries":
        """Multiply by a polynomial; exact to the same horizon."""
        data: dict[ExponentPair, int] = {}
        for (i, j), c in self._coeffs.items():
            for (a, b), pc in p.items():
                pair = (i + a, j + b)
                if pair[0] + pair[1] > self._horizon:
                    continue
                acc = data.get(pair, 0) + c * pc
                if acc:
                    data[pair] = acc
                else:
                    data.pop(pair, None)
        out = TruncatedBiseries(self._horizon)
        out._coeffs = data
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedBiseries):
            return self._horizon == other._horizon and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._horizon, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {decimal_str(c)}" for (i, j), c in self.sorted_items())
        return f"TruncatedBiseries(horizon={self._horizon}, {{{body}}})"


class UnivariateTSeries:
    """Exact series coefficients in t = uv for every power k <= horizon."""

    __slots__ = ("_horizon", "_coeffs")

    def __init__(self, horizon: int, coeffs: Union[Mapping[int, int], None] = None):
        if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
            raise ValueError(f"horizon must be a nonnegative int, got {horizon!r}")
        data: dict[int, int] = {}
        if coeffs:
            for k, c in coeffs.items():
                if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                    raise ValueError(f"powers must be nonnegative ints, got {k!r}")
                c = _check_coefficient(c)
                if k > horizon:
                    raise ValueError(f"coefficient at t^{k} lies beyond horizon {horizon}")
                if c:
                    data[k] = c
        self._horizon = horizon
        self._coeffs = data

    @property
    def horizon(self) -> int:
        return self._horizon

    def coefficient(self, k: int) -> int:
        if k > self._horizon:
            raise ValueError(f"coefficient at t^{k} lies beyond horizon {self._horizon}")
        return self._coeffs.get(k, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._coeffs.items())

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def times_t_polynomial(self, tpoly: Mapping[int, int]) -> "UnivariateTSeries":
        """Multiply by a polynomial in t given as {power: coefficient};
        exact to the same horizon."""
        data: dict[int, int] = {}
        for k, c in self._coeffs.items():
            for a, pc in tpoly.items():
                if a < 0:
                    raise ValueError("polynomial powers must be nonnegative")
                k2 = k + a
                if k2 > self._horizon:
                    continue
                acc = data.get(k2, 0) + c * pc
                if acc:
                    data[k2] = acc
                else:
                    data.pop(k2, None)
        out = UnivariateTSeries(self._horizon)
        out._coeffs = data
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, UnivariateTSeries):
            return self._horizon == other._horizon and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._horizon, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {decimal_str(c)}" for k, c in self.sorted_items())
        return f"UnivariateTSeries(horizon={self._horizon}, {{{body}}})"


def series_of_inverse_cyclo(m: int, horizon: int) -> UnivariateTSeries:
    """The power-series expansion of 1 / ((uv)^m - 1) in t = uv:

        1 / (t^m - 1) = -(1 + t^m + t^{2m} + ...)

    truncated at the given t-power horizon.  Kept as public API; the
    engine's expansion (``expand_rational``) no longer goes through it.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"cyclotomic-product exponent must be a positive int, got {m!r}")
    return UnivariateTSeries(horizon, {k: -1 for k in range(0, horizon + 1, m)})


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
    independent of factor order.
    """
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
        raise ValueError(f"horizon must be a nonnegative int, got {horizon!r}")
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
