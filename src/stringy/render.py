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
since every series of a batch repeats the same pairs near the diagonal.
"""

from __future__ import annotations

from functools import lru_cache, partial
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


def _terms(p: BivariatePolynomial | TruncatedBiseries, style: _Style) -> str:
    uv, sup, end = style[:3]
    pieces = []
    for (i, j), c in p.sorted_items():
        mono = _monomial(i, j, uv, sup, end)
        mag = abs(c)
        if mag == 1 and mono:
            body = mono
        else:
            # decimal_str's own test, inlined: str for all but huge values
            body = (str(mag) if mag < _DECIMAL_PIECE_BOUND else decimal_str(mag)) + mono
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


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
