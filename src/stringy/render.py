"""Text and LaTeX rendering of polynomials, rational values, and series.

Terms are ordered by total degree, u-heavy first within a degree.  Powers of
uv render as a unit ("(uv)^3", "(u v)^{3}") because everything the theory
produces is concentrated on or near the diagonal and reads best that way.
"""

from __future__ import annotations

from .exact_poly import BivariatePolynomial, CycloProduct, StringyRational, TruncatedBiseries, decimal_str


def _ordered_terms(items):
    return sorted(items, key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1], kv[0][0]))


def _monomial_text(i: int, j: int) -> str:
    if i == j:
        if i == 0:
            return ""
        if i == 1:
            return "uv"
        return f"(uv)^{i}"
    parts = []
    if i == 1:
        parts.append("u")
    elif i > 1:
        parts.append(f"u^{i}")
    if j == 1:
        parts.append("v")
    elif j > 1:
        parts.append(f"v^{j}")
    return " ".join(parts)


def _monomial_latex(i: int, j: int) -> str:
    if i == j:
        if i == 0:
            return ""
        if i == 1:
            return "u v"
        return f"(u v)^{{{i}}}"
    parts = []
    if i == 1:
        parts.append("u")
    elif i > 1:
        parts.append(f"u^{{{i}}}")
    if j == 1:
        parts.append("v")
    elif j > 1:
        parts.append(f"v^{{{j}}}")
    return " ".join(parts)


def _join_terms(items, monomial) -> str:
    pieces = []
    for (i, j), c in items:
        mono = monomial(i, j)
        mag = abs(c)
        if not mono:
            body = decimal_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{decimal_str(mag)}{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def polynomial_text(p: BivariatePolynomial) -> str:
    return _join_terms(_ordered_terms(p.items()), _monomial_text)


def polynomial_latex(p: BivariatePolynomial) -> str:
    return _join_terms(_ordered_terms(p.items()), _monomial_latex)


def _factor_text(m: int) -> str:
    return "(uv - 1)" if m == 1 else f"((uv)^{m} - 1)"


def _factor_latex(m: int) -> str:
    inner = "u v - 1" if m == 1 else f"(u v)^{{{m}}} - 1"
    return f"\\left({inner}\\right)"


def denominator_text(den: CycloProduct) -> str:
    return "".join(_factor_text(m) for m in den)


def denominator_latex(den: CycloProduct) -> str:
    return "".join(_factor_latex(m) for m in den)


def rational_text(x: StringyRational) -> str:
    if x.is_polynomial:
        return polynomial_text(x.numerator)
    return f"({polynomial_text(x.numerator)}) / {denominator_text(x.denominator)}"


def rational_latex(x: StringyRational) -> str:
    if x.is_polynomial:
        return polynomial_latex(x.numerator)
    return f"\\frac{{{polynomial_latex(x.numerator)}}}{{{denominator_latex(x.denominator)}}}"


def series_text(series: TruncatedBiseries, continues: bool) -> str:
    body = _join_terms(_ordered_terms(series.items()), _monomial_text)
    return f"{body} + ..." if continues else body


def series_latex(series: TruncatedBiseries, continues: bool) -> str:
    body = _join_terms(_ordered_terms(series.items()), _monomial_latex)
    return f"{body} + \\cdots" if continues else body
