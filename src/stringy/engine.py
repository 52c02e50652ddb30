"""The stringy E-function engine.

Computes E_st by the open-strata and closed-strata formulas, expands it as a
power series, and runs the analyses: the Poincare-duality functional
equation, u<->v symmetry, polynomiality with witnesses, stringy Hodge
numbers, nonnegativity verdicts, and the coefficient decomposition

    b_{i,j} = c_{i,j} + sum_{k=1..j} (-1)^k sum_{|J|=k} c^J_{i-k,j-k} + R_{i,j}

with its boundary terms R and S and the implied Hodge-component dimensions.

Everything takes a config that passes lenient validation; computations raise
ConfigValidationError otherwise instead of producing garbage.  Validation,
the packed tables, each formula's uncancelled sum and both E-functions are
kept on the config object and shared by every analysis of it.  Each config
has one packed layout (:func:`_packed_strata`): every stored table is
packed once, the other convention's tables are signed sums of those packed
ints, and both formula sums and the agreement check run on it, so the
formulas convert no table and are compared before cancelling, on one
layout; E_st is cancelled once.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import wraps
from itertools import compress
from typing import NamedTuple, Union

from .exact_poly import (
    BivariatePolynomial,
    CycloProduct,
    PackedNumerator,
    StringyRational,
    TruncatedBiseries,
    _expansion,
    _filled,
    _merge,
    _pack_tables,
    _ranked_layout,
    _unpack,
    decimal_str,
    expand_rational,
    same_value,
    signed_sum,
)
from .hodge import (
    DiamondViolation,
    HodgeDiamond,
    diamond_from_polynomial,
    reflection_mismatches,
    swap,
)
from .resolution import (
    ResolutionConfig,
    StratumKey,
    _subset_walk,
    _table_scan,
    _union_parts,
    convert_strata,
    validate,
)
from .validation import ConfigValidationError, checked_int


def _require(cfg: ResolutionConfig, mode: str) -> None:
    report = validate(cfg, mode)
    if not report.accepted:
        raise ConfigValidationError(list(report.errors))


def _once_per_config(formula):
    """Evaluate ``formula`` once per config object; later calls return the
    value kept on the config."""
    @wraps(formula)
    def kept(cfg: ResolutionConfig):
        return cfg._derive(formula.__name__, lambda: formula(cfg))
    return kept


@_once_per_config
def stringy_e_open(cfg: ResolutionConfig) -> StringyRational:
    """E_st by the open-strata formula:

        sum over I of H(D_I^o) * prod_{i in I} (uv - 1)/((uv)^{a_i+1} - 1).

    The empty-set stratum is the ambient space minus all stored open strata;
    a component with a = 0 contributes the factor (uv-1)/(uv-1), normalized
    to 1 before any division can see 0/0.  The terms are summed over one
    common denominator (:func:`_open_sum`) and cancelled once.
    """
    return StringyRational(*_open_sum(cfg))


@_once_per_config
def stringy_e_closed(cfg: ResolutionConfig) -> StringyRational:
    """E_st by the closed-strata formula:

        sum over I of H(D_I) * prod_{i in I} (uv - (uv)^{a_i+1})/((uv)^{a_i+1} - 1).

    A component with a = 0 makes its factor exactly zero, so every stratum
    containing one drops out; the sums effectively run over a != 0 only.
    The terms are summed over one common denominator (:func:`_closed_sum`)
    and cancelled once, unless :func:`compute` found them equal to E_open.
    """
    return StringyRational(*_closed_sum(cfg))


class _PackedStrata(NamedTuple):
    """A config's tables packed once, on its one layout (:func:`_packed_strata`)."""

    width: int
    offsets: tuple[int, ...]
    norm: int  # bounds sum_terms |num|_1 of either formula
    factor: dict[str, int]  # per label, a + 1, or 0 at a = 0
    ambient: tuple[int, int]  # (value, top)
    complement: tuple[int, int]  # the ambient less every open stratum
    open: dict[StratumKey, tuple[int, int]]
    closed: dict[StratumKey, tuple[int, int]]


@_once_per_config
def _packed_strata(cfg: ResolutionConfig) -> _PackedStrata:
    """Every stored table packed once, on one layout shared by both
    formulas and the agreement check, from the figures (row span, |H|_1,
    offsets, N, K) of the scan that lenient validation made
    (:func:`resolution._table_scan`), so no term is walked again but to
    pack it.  The other convention's tables are signed sums of those
    packed ints, by the subset walk of :func:`convert_strata`
    (:func:`resolution._subset_walk`), and a sum that is 0 is dropped.
    Each value comes with top, the largest power of t it can hold.  The
    walk's empty subset gives the open complement: the ambient plus the
    walk to the open convention there, or less the walk to the closed one.

    The layout has the offsets of the ambient and the stored tables; every
    value above is a signed sum of those, and so is every formula sum.  Its
    width holds digits up to N 2^|K|, where

        N = |ambient|_1 + sum over stored J of 2^|J| |H_J|_1

    and K is the multiset that takes every m = a + 1 (a != 0) with the
    largest multiplicity it has among the labels of one stored key
    (``resolution._Scan.most``).

    * N bounds sum_terms |num|_1 of either formula.  A converted table at I
      has |num|_1 <= sum over stored J >= I of |H_J|_1, and J has 2^|J| - 1
      nonempty subsets; the complement adds |ambient|_1 and the empty
      subset, which counts every J once.  A formula in the stored
      convention uses fewer terms: the ambient, each H_J once, and, for
      the open one, the complement.
    * Each term's factors are among those of a stored key J >= I, so both
      common denominators D_open and D_closed, and their union, divide the
      product over K.  Every term of a formula is multiplied by |D|
      factors (uv)^m - 1, each at most doubling |num|_1, and by (-uv)^lift,
      which keeps it, so a formula sum and every partial sum has
      |sum|_1 <= N 2^|D|.  The agreement check multiplies each sum by the
      factors of the union its own denominator lacks, which makes
      N 2^|D_open | D_closed| <= N 2^|K|.  So every digit fits this width,
      and :func:`exact_poly.same_value` needs no other layout.
    * The same products have no power of t past the largest top plus the
      degree of K, which bounds the slots.

    Lenient validation refuses exactly the layouts over the budget, from
    the same figures.
    """
    _require(cfg, "lenient")
    factor = {comp.label: comp.discrepancy + 1 if comp.discrepancy else 0 for comp in cfg.components}
    scan, terms = _table_scan(cfg), [h.poly._terms for h in cfg.strata.values()]
    width, offsets, packed = _pack_tables(
        [(cfg.ambient.poly._terms, scan.ambient), *zip(terms, scan.strata)], scan.offsets, scan.norm,
        scan.degree, scan.factors)
    stored = dict(zip(cfg.strata, packed[1:]))
    target = "open" if cfg.convention == "closed" else "closed"
    converted = {}
    for key, parts in _subset_walk(stored, target).items():
        if len(parts) == 1 and parts[0][0] == 1:
            converted[key] = parts[0][1]
            continue
        value = top = 0
        for sign, (part, high) in parts:
            value = value + part if sign > 0 else value - part
            if high > top:
                top = high
        if value:
            converted[key] = (value, top)
    (ambient, ambient_top), (empty, empty_top) = packed[0], converted.pop((), (0, 0))
    complement = (ambient + empty if target == "open" else ambient - empty, max(ambient_top, empty_top))
    opened, closed = (converted, stored) if target == "open" else (stored, converted)
    return _PackedStrata(width, offsets, scan.norm, factor, packed[0], complement, opened, closed)


def _formula_sum(strata: _PackedStrata, terms: list[tuple]) -> tuple[PackedNumerator, CycloProduct]:
    """The (value, top, factors, gains, lift) terms over their common
    denominator, on the config's layout (:func:`exact_poly._merge`)."""
    value, degree, common = _merge(terms, strata.width, strata.offsets)
    return PackedNumerator(value, strata.width, strata.offsets, degree, strata.norm << len(common)), common


@_once_per_config
def _open_sum(cfg: ResolutionConfig):
    """The open-strata terms over their common denominator, not cancelled:
    each open stratum over its factors, times uv - 1 per factor, and the
    complement as it is."""
    strata = _packed_strata(cfg)
    terms = [(*strata.complement, (), (), 0)]
    for key, (value, top) in strata.open.items():
        factors = tuple(strata.factor[label] for label in key if strata.factor[label])
        terms.append((value, top, factors, (1,) * len(factors), 0))
    return _formula_sum(strata, terms)


@_once_per_config
def _closed_sum(cfg: ResolutionConfig):
    """The closed-strata terms over their common denominator, not
    cancelled: the ambient, and every closed stratum without a label at
    a = 0 over its factors, times uv - (uv)^{a+1} = -uv ((uv)^a - 1) per
    factor."""
    strata = _packed_strata(cfg)
    terms = [(*strata.ambient, (), (), 0)]
    for key, (value, top) in strata.closed.items():
        factors = tuple(strata.factor[label] for label in key)
        if all(factors):
            terms.append((value, top, factors, tuple(m - 1 for m in factors), len(key)))
    return _formula_sum(strata, terms)


class StringyResult:
    """Both formulas' E_st, whether they agree, and the horizon to expand
    it to; immutable by contract, equal to another exactly when all five
    fields are."""

    __slots__ = ("e_open", "e_closed", "agree", "horizon", "dimension", "_expansion", "_series")

    def __init__(self, e_open: StringyRational, e_closed: StringyRational, agree: bool, horizon: int,
                 dimension: int):
        self.e_open, self.e_closed, self.agree, self.horizon, self.dimension = (
            e_open, e_closed, agree, horizon, dimension)
        self._expansion = self._series = None

    def _key(self) -> tuple:
        return self.e_open, self.e_closed, self.agree, self.horizon, self.dimension

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"StringyResult(e_open={self.e_open!r}, e_closed={self.e_closed!r}, agree={self.agree!r}, "
                f"horizon={self.horizon!r}, dimension={self.dimension!r})")

    def _laid_out(self) -> tuple:
        """E_st's expansion to the horizon laid out, once for both readers below (:func:`exact_poly._expansion`)."""
        if self._expansion is None:
            x = self.e_open
            self._expansion = _expansion(x.numerator, x.denominator, checked_int(self.horizon, "horizon"))
        return self._expansion

    @property
    def series_size(self) -> int:
        """How many coefficients :attr:`series` computes, computing none: the
        positions of the expansion's layout, or the terms of a polynomial
        within the horizon (:func:`exact_poly._expansion`)."""
        layout, inside = self._laid_out()
        return len(inside) if layout is None else layout.size

    @property
    def series(self) -> TruncatedBiseries:
        """E_st expanded to the horizon, on first access only: a caller that
        reads nothing but the formulas pays for no expansion."""
        if self._series is None:
            self._series = _filled(self.e_open.denominator, self.horizon, *self._laid_out())
        return self._series


def compute(cfg: ResolutionConfig, horizon: Union[int, None] = None) -> StringyResult:
    """Both formulas plus the series expansion to the horizon (expanded
    when ``series`` is first read).

    The two formulas are algebraically equal for any config passing lenient
    validation, so agree=False is an internal-error signal (a broken lattice
    conversion), not a property of the input.  It is decided before
    cancelling, so E_closed is cancelled only when the formulas disagree.
    """
    if horizon is None:
        horizon = 2 * cfg.dimension
    agree = same_value(_open_sum(cfg), _closed_sum(cfg))
    e_open = stringy_e_open(cfg)
    e_closed = cfg._derive(stringy_e_closed.__name__, lambda: e_open) if agree else stringy_e_closed(cfg)
    return StringyResult(e_open, e_closed, agree, horizon, cfg.dimension)


class CheckOutcome(NamedTuple):
    passed: bool
    witness: Union[tuple[int, int], None] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def check_duality(x: StringyRational, d: int) -> CheckOutcome:
    """Decide E(u,v) = (uv)^d E(1/u,1/v) exactly.

    Clearing denominators: with x = N / prod((uv)^{m_k} - 1), the equation
    holds iff N(i,j) = sign * N(D-i, D-j) for all (i,j), where
    D = d + sum(m_k) and sign = (-1)^{number of factors}.  No negative
    exponent is ever stored.  The outcome does not depend on which
    representation of x is used: cancelling a factor (uv)^m - 1 flips the
    sign and shifts D by m consistently on both sides.
    """
    checked_int(d, "dimension")
    shift = d + x.denominator.degree_uv()
    sign = -1 if len(x.denominator) % 2 else 1

    def mirror(ij):
        return shift - ij[0], shift - ij[1]

    for (i, j), (mi, mj), here, there in reflection_mismatches(x.numerator._terms, mirror, sign):
        return CheckOutcome(False, (i, j),
                            f"coefficient {decimal_str(here)} at ({i},{j}) vs "
                            f"{sign}*{decimal_str(there)} from ({mi},{mj})")
    return CheckOutcome(True)


def check_symmetry(x: StringyRational) -> CheckOutcome:
    """u<->v symmetry of the numerator; the denominator is symmetric by
    construction.  The witness is the u-heavy member of the first bad pair."""
    for (b, a), _, here, there in reflection_mismatches(x.numerator._terms, swap):
        return CheckOutcome(False, (a, b), f"coefficient {decimal_str(there)} at ({a},{b}) vs "
                                           f"{decimal_str(here)} at ({b},{a})")
    return CheckOutcome(True)


class Polynomial(NamedTuple):
    value: BivariatePolynomial


class NotPolynomial(NamedTuple):
    witness: tuple[int, int]
    reason: str


def is_polynomial(x: StringyRational, d: int) -> Union[Polynomial, NotPolynomial]:
    """Decide whether x is a polynomial, for the E-function of a projective
    d-fold.

    The canonical form decides it: x is a polynomial exactly when its
    canonical denominator is empty.  Otherwise the expansion only finds the
    witness.  The functional equation bounds a polynomial E-function's
    support by (d, d), so expand to horizon 2d + sum(m_k): a nonzero
    coefficient outside that box is the witness; if the box holds, the
    candidate read off the truncation cannot multiply back onto the
    numerator (x is not a polynomial), and the lowest term of the residual
    is the witness.  ``check`` expands E_st once: with ``--nonneg``, whose
    expansion reaches far enough, the witness is read from that.
    """
    return _polynomial_verdict(x, d, None)


def _polynomial_verdict(x: StringyRational, d: int, series: Union[TruncatedBiseries, None]
                        ) -> Union[Polynomial, NotPolynomial]:
    """:func:`is_polynomial`, the witness read from x's flat expansion
    ``series`` when it reaches 2d + sum(m_k): on its offsets, the positions
    to that horizon are a prefix (:func:`exact_poly._inside_columns`)."""
    checked_int(d, "dimension")
    if x.is_polynomial:
        return Polynomial(x.numerator)
    horizon = 2 * d + x.denominator.degree_uv()
    if series is None or series.horizon < horizon or series._flat is None:
        series = expand_rational(x, horizon)  # x has a denominator: a flat series
    values, layout = series._flat
    layout = _ranked_layout(layout.offsets, horizon)
    # max(i, j) = k + |s| <= d inside the box, so each column is a head in
    # it and a tail out of it; the first nonzero of the tails, in position
    # order, is the first in output order
    R, size = len(layout.offsets), layout.size
    heads = []
    witness = size
    for r, s in enumerate(layout.offsets):
        start = layout.start(r)
        tail = start + max(d - abs(s) + 1, 0) * R
        heads.append((start, tail))
        witness = min(witness, next(compress(range(tail, size, R), values[tail:size:R]), size))
    if witness < size:
        (i, j), c = layout.pair(witness), values[witness]
        return NotPolynomial((i, j), f"series coefficient {decimal_str(c)} at ({i},{j}) "
                                     f"exceeds degree ({d},{d})")
    candidate = BivariatePolynomial({layout.pair(pos): values[pos] for start, tail in heads
                                     for pos in compress(range(start, tail, R), values[start:tail:R])})
    residual = candidate * x.denominator.polynomial() - x.numerator
    (i, j), c = residual.sorted_items()[0]
    return NotPolynomial((i, j), f"division residual {decimal_str(c)} at ({i},{j})")


def stringy_hodge_numbers(p: BivariatePolynomial, d: int) -> Union[HodgeDiamond, DiamondViolation]:
    """Stringy Hodge numbers h^{p,q} = (-1)^{p+q} b_{p,q} of a polynomial
    E-function, with the h^{0,0} = 1 sanity check on top of the diamond
    identities.  A violation pinpoints a nonnegativity-conjecture
    counterexample candidate in the input data."""
    if p.coefficient(0, 0) != 1:
        return DiamondViolation((0, 0), p.coefficient(0, 0), "h^{0,0} must be 1")
    return diamond_from_polynomial(p, d)


def generalized_stringy_hodge_numbers(series: TruncatedBiseries, d: int
                                      ) -> Union[HodgeDiamond, DiamondViolation]:
    """The generalized definition for a non-polynomial E-function:
    h^{i,j} := (-1)^{i+j} b_{i,j} for i+j <= d, reflected across the middle
    by h^{d-i,d-j} := h^{i,j}.

    On the line i+j = d the reflection targets (j, i), so the two
    assignments agree exactly when the series is u<->v symmetric there.
    The reflected table is read by :func:`diamond_from_polynomial`, so the
    answer is the diamond or its first violation in degree order.
    Deliberately opt-in: the construction is heuristic, not proved.
    """
    checked_int(d, "dimension")
    if series.horizon < d:
        raise ValueError(f"series horizon {series.horizon} is below the dimension {d}")
    lower = [((i, j), b) for (i, j), b in series.items() if i + j <= d]
    # (d-i) + (d-j) has the parity of i + j, so the reflected coefficient
    # reads off as the same h; the middle line is left to the u<->v test
    reflected = [((d - i, d - j), b) for (i, j), b in lower if i + j < d]
    return diamond_from_polynomial(BivariatePolynomial(lower + reflected), d)


class NonnegativityReport(NamedTuple):
    dimension: int
    horizon: int
    violations: tuple[tuple[int, int, int], ...]  # (i, j, b) with i+j <= d and wrong sign
    beyond_notes: tuple[tuple[int, int, int], ...]  # same shape, i+j > d, informational

    @property
    def passed(self) -> bool:
        return not self.violations


def check_nonnegativity(series: TruncatedBiseries, d: int) -> NonnegativityReport:
    """(-1)^{i+j} b_{i,j} >= 0 for i+j <= d, the proved range.  Sign
    anomalies beyond the range are reported separately and carry no verdict:
    the bound genuinely fails there in general.  A flat series is read by
    the position scan (:func:`_sign_anomalies`) that ``check`` writes its
    lines from; a sparse one term by term."""
    checked_int(d, "dimension")
    if series.horizon < d:
        raise ValueError(f"series horizon {series.horizon} is below the dimension {d}")
    if series._flat is None:
        wrong = [(i, j, b) for (i, j), b in series.items() if (-1 if (i + j) % 2 else 1) * b < 0]
        # in output order, so the violations are a prefix
        cut = next((n for n, (i, j, _) in enumerate(wrong) if i + j > d), len(wrong))
    else:
        positions, cut = _sign_anomalies(series, d)
        values, layout = series._flat
        wrong = [(*layout.pair(p), values[p]) for p in positions]
    return NonnegativityReport(d, series.horizon, tuple(wrong[:cut]), tuple(wrong[cut:]))


def _sign_anomalies(series: TruncatedBiseries, d: int) -> tuple[list[int], int]:
    """A flat series' wrong-sign positions, in output order, and how many lie
    in i + j <= d: those before the layout's size at horizon d.  A column's
    degrees i + j = 2 (row + first) + |s| mod 2 share one parity, so one
    min or max tells whether it holds a wrong sign."""
    values, layout = series._flat
    R, size = len(layout.offsets), layout.size
    wrong: list[int] = []
    for r, s in enumerate(layout.offsets):
        column = values[r::R]
        if max(column, default=0) > 0 if s & 1 else min(column, default=0) < 0:
            at = range(r, size, R)
            wrong += [p for p, b in zip(at, column) if b > 0] if s & 1 else [p for p, b in zip(at, column) if b < 0]
    wrong.sort()
    return wrong, bisect_left(wrong, _ranked_layout(layout.offsets, d).size)


def correction_factor_series(a: int, horizon: int) -> dict[int, int]:
    """Series of the closed-formula factor (t - t^{a+1})/(t^{a+1} - 1) in
    t = uv, as {power: coefficient} for powers up to the horizon:

        -t + t^{a+1} - t^{a+2} + t^{2a+2} - t^{2a+3} + ...

    (+1 at multiples of a+1, -1 one step above each, including step 0).
    At a = 0 the numerator is identically zero and so is the series.
    """
    checked_int(a, "discrepancy")
    checked_int(horizon, "horizon")
    if a == 0:
        return {}
    coeffs: dict[int, int] = {}
    e = a + 1
    for k in range(e, horizon + 1, e):
        coeffs[k] = 1
    for k in range(1, horizon + 1, e):
        coeffs[k] = -1
    return coeffs


class DecompositionRow(NamedTuple):
    i: int
    j: int
    direct: int           # b_{i,j} from the expansion
    c_term: int           # ambient coefficient c_{i,j}
    alternating_sum: int  # sum_{k=1..j} (-1)^k sum_{|J|=k} c^J_{i-k,j-k}
    r_term: int
    s_term: int
    implied_hodge_dim: int  # (-1)^{i+j} b_{i,j} - S_{i,j}
    flagged: bool           # implied dimension negative: inconsistent input

    @property
    def decomposed(self) -> int:
        return self.c_term + self.alternating_sum + self.r_term


class DecompositionResult(NamedTuple):
    rows: tuple[DecompositionRow, ...]
    rejected: tuple[tuple[tuple[int, int], str], ...] = ()


def decompose_coefficients(cfg: ResolutionConfig, pairs) -> DecompositionResult:
    """The coefficient decomposition, under strict validation.

    Pairs with i < j are answered through b_{i,j} = b_{j,i}.  R and S follow
    the boundary-case table; both sums run over components with a != 0 only,
    which silently erases the boundary cases at d = 3 (the targeted
    discrepancy is 0 there), reproducing the explicit three-dimensional
    formulas.  implied_hodge_dim reads (-1)^{i+j} b_{i,j} - S_{i,j}; it is a
    dimension of a Hodge component of middle-degree cohomology only under
    the geometric hypotheses the config format cannot express, so a negative
    value flags the row rather than raising.

    b_{i,j} is read off the closed sum N / D (:func:`_closed_sum`), which
    has E_st's series without cancelling.  D is a polynomial in t = uv, so
    b_{i,j} needs only N's rows up to min(i, j) <= d // 2: the packed value
    modulo T^(d // 2 + 1), read balanced, as its digits fit the width.
    """
    _require(cfg, "strict")
    d = cfg.dimension
    closed_cfg = convert_strata(cfg, "closed")
    num, den = _closed_sum(cfg)
    half = (1 << num.width * len(num.offsets) * (d // 2 + 1)) >> 1  # 0 when there are no offsets
    low = PackedNumerator(((num.value + half) & (2 * half - 1)) - half, num.width, num.offsets, d // 2, 0)
    series = _filled(den, d, *_expansion(_unpack(low), den, d))
    ambient = closed_cfg.ambient.poly

    discrepancies = {comp.label: comp.discrepancy for comp in closed_cfg.components}
    strata = {
        key: value.poly for key, value in closed_cfg.strata.items()
        if not any(discrepancies[label] == 0 for label in key)
    }
    singles = {
        key[0]: poly for key, poly in strata.items() if len(key) == 1
    }

    def boundary_terms(i: int, j: int) -> tuple[int, int]:
        if d % 2 == 0 and i == j == d // 2:
            target = d // 2 - 1
            r_at, s_at, s_sign = (0, 0), (d - 1, d - 1), 1
        elif d % 2 == 1 and i == j == (d - 1) // 2:
            target = (d - 3) // 2
            r_at, s_at, s_sign = (0, 0), (d - 1, d - 1), 1
        elif d % 2 == 1 and i == (d + 1) // 2 and j == (d - 1) // 2:
            target = (d - 3) // 2
            r_at, s_at, s_sign = (1, 0), (d - 2, d - 1), -1
        else:
            return 0, 0
        r = s = 0
        for label, poly in singles.items():
            if discrepancies[label] == target:
                r += poly.coefficient(*r_at)
                s += s_sign * poly.coefficient(*s_at)
        return r, s

    rows: list[DecompositionRow] = []
    rejected: list[tuple[tuple[int, int], str]] = []
    for pair in pairs:
        if isinstance(pair, (str, bytes)):
            rejected.append((pair, "not an (i, j) pair"))
            continue
        try:
            i, j = pair
        except (TypeError, ValueError):
            rejected.append((tuple(pair) if hasattr(pair, "__iter__") else (pair,),
                             "not an (i, j) pair"))
            continue
        if isinstance(i, bool) or isinstance(j, bool) or not isinstance(i, int) or not isinstance(j, int):
            rejected.append(((i, j), "exponents must be integers"))
            continue
        if i < 0 or j < 0:
            rejected.append(((i, j), "exponents must be nonnegative"))
            continue
        if i + j > d:
            rejected.append(((i, j), f"i + j = {i + j} exceeds the dimension {d}"))
            continue
        i, j = max(i, j), min(i, j)

        alternating = 0
        for key, poly in strata.items():
            k = len(key)
            if k > j:
                continue
            alternating += (-1 if k % 2 else 1) * poly.coefficient(i - k, j - k)
        r_term, s_term = boundary_terms(i, j)
        direct = series.coefficient(i, j)
        implied = (-1 if (i + j) % 2 else 1) * direct - s_term
        rows.append(DecompositionRow(
            i=i, j=j, direct=direct,
            c_term=ambient.coefficient(i, j),
            alternating_sum=alternating,
            r_term=r_term, s_term=s_term,
            implied_hodge_dim=implied,
            flagged=implied < 0,
        ))
    return DecompositionResult(tuple(rows), tuple(rejected))


def local_contribution(cfg: ResolutionConfig, *, formula: str = "closed") -> StringyRational:
    """The additive share of the singular locus in E_st:

        E_st = H(ambient \\ exceptional locus) + local contribution,

    so local = E_st - (ambient - H(union of components)).  Requires the
    config to carry the singular locus polynomial, since the number is
    reported alongside it and is meaningless without a designated locus.

    No table is converted: away is one signed sum, of the ambient and the
    stored tables with the union's signs negated (:func:`resolution._union_parts`).
    With E_st = N/D canonical, the difference is (N - away D)/D, canonical
    as it stands, since every Phi_k dividing D divides away D, so
    N - away D = N mod Phi_k (``StringyRational.__add__``).
    """
    if cfg.singular_locus is None:
        raise ValueError("local contribution needs the config's singular_locus")
    if formula == "closed":
        e = stringy_e_closed(cfg)
    elif formula == "open":
        e = stringy_e_open(cfg)
    else:
        raise ValueError(f"formula must be 'open' or 'closed', got {formula!r}")
    away = signed_sum([(1, cfg.ambient.poly), *((-sign, poly) for sign, poly in _union_parts(cfg))])
    return e - StringyRational(away)
