"""Text and LaTeX rendering of polynomials, rational values, and series.

Terms are ordered by total degree, u-heavy first within a degree.  Powers of
uv render as a unit ("(uv)^3", "(u v)^{3}") because everything the theory
produces is concentrated on or near the diagonal and reads best that way.

One set of functions renders both forms, given a style: the strings in
which the two differ.

    field                         text               LaTeX
    uv word                       "uv"               "u v"
    exponent open, close          "^", ""            "^{", "}"
    factor brackets               "(", ")"           "\\left(", "\\right)"
    fraction open, middle, close  "(", ") / ", ""    "\\frac{", "}{", "}"
    ellipsis                      " + ..."           " + \\cdots"

A factor (uv)^m - 1 is the monomial (m, m) and " - 1" inside the factor
brackets; a fraction is its numerator and denominator between the three
fraction strings.

Terms are read in the order their holder gives them: a series holds its
coefficients in output order, so it renders without a sort.  The monomial
strings are memoized per exponent pair and style in a bounded LRU cache,
since every series of a batch repeats the same pairs near the diagonal.  An
expanded series, or a canonical numerator read back flat, on its skewed
flat layout renders by zipping its nonzero coefficients with a tuple of
those strings kept per layout and style (:class:`_LayoutStrings`, bounded
in positions), with no term map, no pair and no cache lookup per term.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import compress, starmap
from typing import NamedTuple

from .exact_poly import (
    _DECIMAL_PIECE_BOUND,
    BivariatePolynomial,
    CycloProduct,
    StringyRational,
    TruncatedBiseries,
    decimal_str,
)


class _Style(NamedTuple):
    uv: str
    sup: str
    end: str
    left: str
    right: str
    frac_open: str
    frac_mid: str
    frac_close: str
    ellipsis: str


_TEXT = _Style("uv", "^", "", "(", ")", "(", ") / ", "", " + ...")
_LATEX = _Style("u v", "^{", "}", "\\left(", "\\right)", "\\frac{", "}{", "}", " + \\cdots")


@lru_cache(maxsize=1 << 13)
def _monomial(i: int, j: int, uv: str, sup: str, end: str) -> str:
    # takes the style's strings, not the style: unpacking it per term
    # makes a long series render measurably slower
    if i == j:
        if i == 0:
            return ""
        if i == 1:
            return uv
        return f"({uv}){sup}{i}{end}"
    parts = []
    if i == 1:
        parts.append("u")
    elif i > 1:
        parts.append(f"u{sup}{i}{end}")
    if j == 1:
        parts.append("v")
    elif j > 1:
        parts.append(f"v{sup}{j}{end}")
    return " ".join(parts)


class _LayoutStrings(dict):
    """A string at every position of a skewed flat layout
    (:class:`exact_poly._Layout`), None where it holds no pair, as a tuple
    per offsets, first row and kind: a flat value is written by zipping
    its values with it.  Positions below a layout's size hold the same
    pairs at every horizon, so one tuple, made for the highest horizon
    asked, serves the lower ones as a prefix.  Past
    ``_LAYOUT_MONOMIALS_CAP`` positions over all tuples it starts over, and
    a layout wider than that on its own is not kept: its strings are made
    for its nonzero values alone, so a wide, sparse layout costs what its
    terms do."""

    __slots__ = ("positions",)

    def __init__(self):
        super().__init__()
        self.positions = 0

    def terms(self, values: list[int], layout, text, *kind):
        """(``text(i, j, *kind)``, c) for every nonzero value c of a flat
        list on the layout, in position order."""
        if layout.size > _LAYOUT_MONOMIALS_CAP:
            strings: list = [None] * len(values)
            R = len(layout.offsets)
            for r, s in enumerate(layout.offsets):
                at = layout.start(r)
                column = values[at::R]
                for k in compress(range(len(column)), column):
                    strings[at + k * R] = text(k + s, k, *kind) if s >= 0 else text(k, k - s, *kind)
            return compress(zip(strings, values), values)
        key = (layout.offsets, layout.first, *kind)
        strings = self.get(key, ())
        if len(strings) < layout.size:
            self.positions -= len(strings)
            if self.positions + layout.size > _LAYOUT_MONOMIALS_CAP:
                self.clear()
                self.positions = 0
            self.positions += layout.size
            strings = self[key] = tuple(None if pair is None else text(*pair, *kind) for pair in layout.pairs())
        return compress(zip(strings, values), values)


_LAYOUT_MONOMIALS_CAP = 1 << 16
# the monomials, made from ``_monomial``, so layouts share their strings
_LAYOUT_MONOMIALS = _LayoutStrings()


def _piece(mono: str, c: int) -> str:
    """One term with its sign in front: "+ 3u^2", "- v", "+ 1"."""
    mag = abs(c)
    return ("+ " if c > 0 else "- ") + (mono if mag == 1 and mono else decimal_str(mag) + mono)


def _terms(p: BivariatePolynomial | TruncatedBiseries, style: _Style) -> str:
    uv, sup, end = style[:3]
    flat = p._flat
    if flat is None:
        terms = [(_monomial(i, j, uv, sup, end), c) for (i, j), c in p.sorted_items()]
        values = [c for _, c in terms]
    else:
        values, layout = flat
        terms = _LAYOUT_MONOMIALS.terms(values, layout, _monomial, uv, sup, end)
    if values and -_DECIMAL_PIECE_BOUND < min(values) and max(values) < _DECIMAL_PIECE_BOUND:
        # every coefficient formats as str (decimal_str's own test): _piece, inlined
        pieces = [(f"+ {c}{mono}" if c != 1 or not mono else "+ " + mono) if c > 0 else
                  (f"- {-c}{mono}" if c != -1 or not mono else "- " + mono) for mono, c in terms]
    else:
        pieces = list(starmap(_piece, terms))
    if not pieces:
        return "0"
    head = pieces[0]
    pieces[0] = head[2:] if head[0] == "+" else "-" + head[2:]
    return " ".join(pieces)


def _denominator(den: CycloProduct, style: _Style) -> str:
    uv, sup, end, left, right = style[:5]
    return "".join(f"{left}{_monomial(m, m, uv, sup, end)} - 1{right}" for m in den)


def _rational(x: StringyRational, style: _Style) -> str:
    num = _terms(x.numerator, style)
    if x.is_polynomial:
        return num
    return f"{style.frac_open}{num}{style.frac_mid}{_denominator(x.denominator, style)}{style.frac_close}"


def _series(series: TruncatedBiseries, continues: bool, style: _Style) -> str:
    body = _terms(series, style)
    return f"{body}{style.ellipsis}" if continues else body


polynomial_text = partial(_terms, style=_TEXT)
polynomial_latex = partial(_terms, style=_LATEX)
denominator_text = partial(_denominator, style=_TEXT)
denominator_latex = partial(_denominator, style=_LATEX)
rational_text = partial(_rational, style=_TEXT)
rational_latex = partial(_rational, style=_LATEX)
series_text = partial(_series, style=_TEXT)
series_latex = partial(_series, style=_LATEX)
