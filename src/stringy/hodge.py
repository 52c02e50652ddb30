"""Hodge-Deligne polynomials and Hodge diamonds.

A Hodge-Deligne polynomial is an ordinary bivariate polynomial plus an
optional claimed dimension.  The claim is metadata: it is never inferred from
the support, and validators require it explicitly, because the same
polynomial can be the H of spaces of different dimensions.

Validation is advisory.  Open strata legitimately fail the Serre reflection,
so nothing here is constructor-enforced; callers that need the smooth
projective identities run :func:`validate_smooth_projective` and read the
report.

Every reflection identity of the package (u<->v symmetry, the Serre
reflection, and the functional equation of E_st in ``engine``) is checked by
one walk, :func:`reflection_mismatches`, whose witnesses are exponent pairs.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .exact_poly import BivariatePolynomial, decimal_str
from .validation import Finding, ValidationReport, checked_int


def _combine_add(a: Union[int, None], b: Union[int, None]) -> Union[int, None]:
    if a is None or b is None:
        return None
    return a + b


def _combine_same(a: Union[int, None], b: Union[int, None]) -> Union[int, None]:
    return a if a == b else None


class HodgeDelignePolynomial:
    """A polynomial and its claimed dimension; immutable by contract, equal
    to another exactly when both fields are."""

    __slots__ = ("poly", "claimed_dimension")

    def __init__(self, poly: BivariatePolynomial, claimed_dimension: Union[int, None] = None):
        if not isinstance(poly, BivariatePolynomial):
            raise TypeError("poly must be a BivariatePolynomial")
        if claimed_dimension is not None:
            checked_int(claimed_dimension, "claimed dimension")
        self.poly, self.claimed_dimension = poly, claimed_dimension

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.poly == other.poly and self.claimed_dimension == other.claimed_dimension

    def __hash__(self) -> int:
        return hash((self.poly, self.claimed_dimension))

    def __repr__(self) -> str:
        return f"HodgeDelignePolynomial(poly={self.poly!r}, claimed_dimension={self.claimed_dimension!r})"

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def coefficient(self, i: int, j: int) -> int:
        return self.poly.coefficient(i, j)

    def __add__(self, other: "HodgeDelignePolynomial") -> "HodgeDelignePolynomial":
        if not isinstance(other, HodgeDelignePolynomial):
            return NotImplemented
        return HodgeDelignePolynomial(
            self.poly + other.poly,
            _combine_same(self.claimed_dimension, other.claimed_dimension),
        )

    def __sub__(self, other: "HodgeDelignePolynomial") -> "HodgeDelignePolynomial":
        if not isinstance(other, HodgeDelignePolynomial):
            return NotImplemented
        return HodgeDelignePolynomial(
            self.poly - other.poly,
            _combine_same(self.claimed_dimension, other.claimed_dimension),
        )

    def __mul__(self, other: "HodgeDelignePolynomial") -> "HodgeDelignePolynomial":
        # product of varieties: dimensions add
        if not isinstance(other, HodgeDelignePolynomial):
            return NotImplemented
        return HodgeDelignePolynomial(
            self.poly * other.poly,
            _combine_add(self.claimed_dimension, other.claimed_dimension),
        )


def projective_space(n: int) -> HodgeDelignePolynomial:
    """H(P^n) = 1 + uv + ... + (uv)^n, claiming dimension n."""
    checked_int(n, "projective-space dimension")
    return HodgeDelignePolynomial(
        BivariatePolynomial.from_diagonal({k: 1 for k in range(n + 1)}),
        claimed_dimension=n,
    )


def scissor(ambient: HodgeDelignePolynomial, closed_subset: HodgeDelignePolynomial) -> HodgeDelignePolynomial:
    """H(ambient \\ closed subset) = H(ambient) - H(closed subset).

    Pure arithmetic; the claimed dimension of the ambient space is kept, since
    removing a proper closed subset does not change dimension.
    """
    return HodgeDelignePolynomial(ambient.poly - closed_subset.poly, ambient.claimed_dimension)


def blowup(ambient_dim: int, center: HodgeDelignePolynomial, codim: int,
           ambient: HodgeDelignePolynomial) -> HodgeDelignePolynomial:
    """H of the blowup of a smooth ambient space along a smooth center:

        H(Bl) = H(ambient) + H(center) * (uv + (uv)^2 + ... + (uv)^{codim-1}),

    the scissor relation H(Bl) = H(X) - H(Z) + H(Z)*H(P^{codim-1}).
    """
    checked_int(codim, "blowup codimension", 2)
    checked_int(ambient_dim, "ambient dimension", codim)
    if center.claimed_dimension is not None and center.claimed_dimension != ambient_dim - codim:
        raise ValueError(
            f"center claims dimension {center.claimed_dimension}, expected {ambient_dim - codim}"
        )
    fiber_part = BivariatePolynomial.from_diagonal({k: 1 for k in range(1, codim)})
    return HodgeDelignePolynomial(ambient.poly + center.poly * fiber_part, ambient_dim)


def degree_order(ij: tuple[int, int]) -> tuple[int, int, int]:
    """Sort key (i+j, i, j): by total degree, v-heavy first."""
    return ij[0] + ij[1], ij[0], ij[1]


def reflection_mismatches(terms, reflect, sign: int = 1):
    """Yield (p, q, c(p), c(q)) once for each pair {p, q = reflect(p)} with
    c(p) != sign * c(q), where c reads the term map ``terms`` (0 off it).

    Every reflection identity checked here has this shape: the functional
    equation of E_st (sign -1 for an odd number of denominator factors),
    u<->v symmetry and the Serre reflection.  The walk covers the support
    and those of its mirrors that are exponent pairs, in
    :func:`degree_order`, and meets each pair at its first member, so no p
    has a negative entry.  One comparison of ``terms`` with its reflected
    map settles the case where every pair is equal; the walk reads
    sign * c(q) from that map.  ``reflect`` is an involution.
    """
    mirrored = {reflect(pair): sign * c for pair, c in terms.items()}
    if mirrored == terms:
        return
    walk = set(terms)
    walk.update(pair for pair in mirrored if pair[0] >= 0 and pair[1] >= 0)
    seen = set()
    for p in sorted(walk, key=degree_order):
        if p in seen:
            continue
        q = reflect(p)
        seen.add(q)
        here, there = terms.get(p, 0), mirrored.get(p, 0)
        if here != there:
            yield p, q, here, sign * there


def swap(ij: tuple[int, int]) -> tuple[int, int]:
    """The u<->v reflection (i, j) -> (j, i)."""
    return ij[1], ij[0]


def validate_smooth_projective(h: HodgeDelignePolynomial, d: int) -> ValidationReport:
    """Check the two identities every smooth projective d-fold satisfies:
    u<->v symmetry and the Serre reflection (i,j) <-> (d-i,d-j).

    Every violating exponent pair becomes one finding; passing both checks is
    necessary, not sufficient, for the polynomial to be geometric.
    """
    checked_int(d, "dimension")
    p = h.poly
    findings: list[Finding] = []
    for (b, a), _, here, there in reflection_mismatches(p._terms, swap):
        # the first member is v-heavy; the finding names the u-heavy one first
        findings.append(Finding(
            "error", "uv-asymmetry",
            f"coefficient {decimal_str(there)} at ({a},{b}) vs {decimal_str(here)} at ({b},{a})",
            f"({a},{b}) vs ({b},{a})",
        ))
    findings += serre_findings(p, d)
    return ValidationReport(mode="smooth-projective", findings=tuple(findings))


def serre_findings(p: BivariatePolynomial, d: int) -> list[Finding]:
    """The ``serre-reflection`` findings of :func:`validate_smooth_projective`,
    one per pair {(i,j), (d-i,d-j)} of unequal coefficients, in the order of
    :func:`reflection_mismatches`."""

    def serre(ij):
        return d - ij[0], d - ij[1]

    return [Finding("error", "serre-reflection", f"coefficient {decimal_str(here)} at ({i},{j}) vs "
                    f"{decimal_str(there)} at ({mi},{mj}) for dimension {d}", f"({i},{j}) vs ({mi},{mj})")
            for (i, j), (mi, mj), here, there in reflection_mismatches(p._terms, serre)]


class DiamondViolation(NamedTuple):
    """A failed Hodge-diamond identity: the offending position and value."""

    location: tuple[int, int]
    value: int
    reason: str

    def describe(self) -> str:
        return f"violation at {self.location}: value {decimal_str(self.value)} ({self.reason})"


def _diamond_violation(entries: dict[tuple[int, int], int], d: int) -> Union[DiamondViolation, None]:
    """The first entry, in :func:`degree_order`, that breaks a Hodge-diamond
    identity: negative, then unequal to its u<->v mirror h^{q,p}, then to
    its Serre mirror h^{d-p,d-q}; None when the table is a diamond."""
    for (p, q) in sorted(entries, key=degree_order):
        val = entries[(p, q)]
        if val < 0:
            return DiamondViolation((p, q), val, "negative entry")
        for mp, mq in ((q, p), (d - p, d - q)):
            there = entries.get((mp, mq), 0)
            if there != val:
                return DiamondViolation((p, q), val, f"h^{{{mp},{mq}}} = {decimal_str(there)} differs")
    return None


class HodgeDiamond:
    """Entries h^{p,q} for 0 <= p,q <= d, with the classical identities
    h^{p,q} = h^{q,p} = h^{d-p,d-q} enforced at construction."""

    __slots__ = ("_d", "_entries")

    def __init__(self, d: int, entries: dict[tuple[int, int], int]):
        read = _diamond(d, entries)
        if isinstance(read, DiamondViolation):
            raise ValueError(read.describe())
        self._d, self._entries = read._d, read._entries

    @property
    def dimension(self) -> int:
        return self._d

    def entry(self, p: int, q: int) -> int:
        return self._entries.get((p, q), 0)

    def entries(self) -> dict[tuple[int, int], int]:
        return dict(self._entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, HodgeDiamond):
            return self._d == other._d and self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._d, frozenset(self._entries.items())))

    def __str__(self) -> str:
        # rows by cohomological degree p+q, centered like the usual picture
        d = self._d
        rows = []
        for k in range(2 * d + 1):
            lo = max(0, k - d)
            hi = min(k, d)
            rows.append(" ".join(decimal_str(self.entry(p, k - p)) for p in range(hi, lo - 1, -1)))
        width = max(len(r) for r in rows)
        return "\n".join(r.center(width).rstrip() for r in rows)

    def __repr__(self) -> str:
        body = ", ".join(f"{pq!r}: {decimal_str(val)}" for pq, val in self._entries.items())
        return f"HodgeDiamond(d={self._d}, {{{body}}})"


def _diamond(d: int, entries: dict[tuple[int, int], int]) -> Union[HodgeDiamond, DiamondViolation]:
    """Read a table of entries h^{p,q}: the diamond, or the first violation
    of :func:`_diamond_violation`, found in one walk.  Zero entries are
    dropped; a position outside 0 <= p,q <= d or a non-int value raises."""
    checked_int(d, "dimension")
    clean: dict[tuple[int, int], int] = {}
    for (p, q), val in entries.items():
        if p < 0 or q < 0 or p > d or q > d:
            raise ValueError(f"entry ({p},{q}) outside the {d}-diamond")
        checked_int(val, f"entry at ({p},{q})", None)
        if val:
            clean[(p, q)] = val
    violation = _diamond_violation(clean, d)
    if violation is not None:
        return violation
    diamond = object.__new__(HodgeDiamond)
    diamond._d, diamond._entries = d, clean
    return diamond


def diamond_from_polynomial(p: BivariatePolynomial, d: int) -> Union[HodgeDiamond, DiamondViolation]:
    """Read h^{p,q} := (-1)^{p+q} * coefficient(p,q) off a polynomial.

    A negative entry is exactly a nonnegativity-conjecture counterexample
    surface, and a failed symmetry or Serre identity means the polynomial is
    not the E-function of a projective variety; both come back as a
    DiamondViolation rather than an exception.  Exponents beyond d are a
    caller error and raise.
    """
    return _diamond(d, {(i, j): (-1 if (i + j) % 2 else 1) * c for (i, j), c in p.items()})
