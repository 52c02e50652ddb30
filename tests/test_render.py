import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stringy import render
from stringy.exact_poly import BivariatePolynomial, StringyRational, expand_rational
from stringy.render import (
    polynomial_latex,
    polynomial_text,
    rational_latex,
    rational_text,
    series_latex,
    series_text,
)


def P(terms):
    return BivariatePolynomial(terms)


# --- tiny parsers for structural equality checks -------------------------

def _parse_monomial(rest, *, latex):
    uv = "u v" if latex else "uv"
    if not rest:
        return (0, 0)
    if rest == uv:
        return (1, 1)
    grouped = (
        re.fullmatch(r"\(u v\)\^\{(\d+)\}", rest) if latex
        else re.fullmatch(r"\(uv\)\^(\d+)", rest)
    )
    if grouped:
        k = int(grouped.group(1))
        return (k, k)
    i = j = 0
    exp = r"u(?:\^\{(\d+)\})?" if latex else r"u(?:\^(\d+))?"
    m = re.match(exp, rest)
    if m:
        i = int(m.group(1) or 1)
        rest = rest[m.end():].strip()
    exp = r"v(?:\^\{(\d+)\})?" if latex else r"v(?:\^(\d+))?"
    m = re.match(exp, rest)
    if m:
        j = int(m.group(1) or 1)
        rest = rest[m.end():].strip()
    if rest:
        raise ValueError(f"unparsed monomial tail: {rest!r}")
    return (i, j)


def parse_polynomial(text, *, latex=False):
    """Invert the term renderer: signs from the ' + '/' - ' joins, magnitude
    prefix, then one of the monomial shapes."""
    if text == "0":
        return {}
    out = {}
    chunks = re.split(r" ([+-]) ", text)
    signed = [(1 if i == 0 else (1 if chunks[i - 1] == "+" else -1), chunks[i])
              for i in range(0, len(chunks), 2)]
    for sign, term in signed:
        term = term.strip()
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        m = re.match(r"\d+", term)
        mag = int(m.group(0)) if m else 1
        rest = term[m.end():].strip() if m else term
        pair = _parse_monomial(rest, latex=latex)
        assert pair not in out, "duplicate monomial in rendered output"
        out[pair] = sign * mag
    return out


def _split_denominator_groups(text):
    groups, depth, start = [], 0, None
    for k, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = k
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                groups.append(text[start + 1:k])
    return groups


def parse_rational_text(text):
    m = re.fullmatch(r"\((.*)\) / (.*)", text)
    if not m:
        return parse_polynomial(text), []
    num = parse_polynomial(m.group(1))
    factors = []
    for group in _split_denominator_groups(m.group(2)):
        g = re.fullmatch(r"\(uv\)\^(\d+) - 1", group)
        if g:
            factors.append(int(g.group(1)))
        elif group == "uv - 1":
            factors.append(1)
        else:
            raise ValueError(f"unrecognized denominator factor {group!r}")
    return num, sorted(factors)


def parse_rational_latex(text):
    m = re.fullmatch(r"\\frac\{(.*)\}\{(.*)\}", text)
    if not m:
        return parse_polynomial(text, latex=True), []
    num = parse_polynomial(m.group(1), latex=True)
    factors = []
    for group in re.findall(r"\\left\((.*?)\\right\)", m.group(2)):
        g = re.fullmatch(r"\(u v\)\^\{(\d+)\} - 1", group)
        if g:
            factors.append(int(g.group(1)))
        elif group == "u v - 1":
            factors.append(1)
        else:
            raise ValueError(f"unrecognized denominator factor {group!r}")
    return num, sorted(factors)


term_dicts = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
    st.integers(min_value=-40, max_value=40).filter(bool),
    max_size=7,
)


class TestPolynomialText:
    def test_zero(self):
        assert polynomial_text(P({})) == "0"

    def test_constant(self):
        assert polynomial_text(P({(0, 0): -3})) == "-3"

    def test_magnitude_one_omitted(self):
        assert polynomial_text(P({(1, 1): 1})) == "uv"
        assert polynomial_text(P({(1, 1): -1})) == "-uv"
        assert polynomial_text(P({(0, 0): 1})) == "1"

    def test_mixed_terms(self):
        p = P({(0, 0): 1, (1, 1): 7, (2, 2): -9, (2, 3): 1, (1, 0): -2})
        assert polynomial_text(p) == "1 - 2u + 7uv - 9(uv)^2 + u^2 v^3"

    def test_single_variables(self):
        assert polynomial_text(P({(1, 0): 1, (0, 2): -1})) == "u - v^2"

    @given(term_dicts)
    def test_round_trips(self, terms):
        p = P(terms)
        assert parse_polynomial(polynomial_text(p)) == dict(p.items())

    @given(term_dicts)
    def test_latex_round_trips(self, terms):
        p = P(terms)
        assert parse_polynomial(polynomial_latex(p), latex=True) == dict(p.items())


class TestRationalRendering:
    def test_plain_polynomial_value(self):
        x = StringyRational(P({(0, 0): 1, (1, 1): 1}))
        assert rational_text(x) == "1 + uv"
        assert rational_latex(x) == "1 + u v"

    def test_fraction(self):
        x = StringyRational(P({(1, 1): 1, (2, 2): -1}), (2,))
        assert rational_text(x) == "(uv - (uv)^2) / ((uv)^2 - 1)"
        assert rational_latex(x) == "\\frac{u v - (u v)^{2}}{\\left((u v)^{2} - 1\\right)}"

    def test_m1_factor_renders_unpowered(self):
        x = StringyRational(P({(1, 0): 1}), (1,))
        assert rational_text(x) == "(u) / (uv - 1)"

    @given(term_dicts, st.lists(st.integers(min_value=1, max_value=5), max_size=3))
    def test_text_and_latex_agree_structurally(self, terms, dens):
        x = StringyRational(P(terms), dens)
        from_text = parse_rational_text(rational_text(x))
        from_latex = parse_rational_latex(rational_latex(x))
        assert from_text == from_latex
        assert from_text[0] == dict(x.numerator.items())
        assert from_text[1] == sorted(x.denominator.factors)


class TestSeriesRendering:
    def test_ellipsis_only_when_continuing(self):
        x = StringyRational(P({(0, 0): 1}), (1,))
        s = expand_rational(x, 4)
        text = series_text(s, True)
        assert text.endswith(" + ...")
        assert series_text(s, False) == text[: -len(" + ...")]

    def test_latex_ellipsis(self):
        x = StringyRational(P({(0, 0): 1}), (1,))
        s = expand_rational(x, 2)
        assert series_latex(s, True).endswith(" + \\cdots")

    def test_zero_series(self):
        s = expand_rational(StringyRational(P({})), 4)
        assert series_text(s, False) == "0"

    @given(term_dicts)
    def test_series_text_matches_polynomial_text(self, terms):
        p = P(terms)
        horizon = 12  # exponents capped at 6 above, so nothing is cut off
        s = expand_rational(StringyRational(p), horizon)
        assert series_text(s, False) == polynomial_text(p)


class TestMonomialMemo:
    def test_styles_do_not_share_memoized_monomials(self):
        # the same exponent pairs rendered text, LaTeX, then text again: each
        # rendering must read back to the same terms in its own syntax.
        # Coefficients +-1, a constant term, and one past decimal_str's
        # piece bound (10^600)
        huge = 10 ** 600 + 7
        p = P({(0, 0): 1, (1, 1): -1, (2, 0): 1, (0, 3): -1, (2, 2): huge, (3, 1): -huge, (1, 0): 5})
        x = StringyRational(P({(0, 0): -1, (1, 0): 1, (2, 1): -huge, (1, 1): 1}), (1, 2))
        series = expand_rational(x, 9)
        want_series = dict(series.items())
        assert any(abs(c) == 1 for c in want_series.values()) and (0, 0) in want_series
        assert max(map(abs, want_series.values())) >= 10 ** 600
        render._monomial.cache_clear()
        first = polynomial_text(p), series_text(series, False)
        for latex, (poly_text, ser_text) in ((False, first),
                                            (True, (polynomial_latex(p), series_latex(series, False))),
                                            (False, (polynomial_text(p), series_text(series, False)))):
            assert parse_polynomial(poly_text, latex=latex) == dict(p.items())
            assert parse_polynomial(ser_text, latex=latex) == want_series
        assert (polynomial_text(p), series_text(series, False)) == first
        assert render._monomial.cache_info().hits > 0

    def test_layout_monomials_start_over_past_their_cap(self, monkeypatch):
        # per-layout lists are kept up to a number of positions over all of
        # them; past it the cache starts over, and so do the columns they
        # are sliced from.  A lower horizon reads a prefix of a higher one's
        # list.  Rendering is unchanged
        monkeypatch.setattr(render, "_LAYOUT_MONOMIALS", render._LayoutStrings())
        monkeypatch.setattr(render, "_LAYOUT_MONOMIALS_CAP", 40)
        x = StringyRational(P({(0, 0): 1, (2, 0): -3, (0, 1): 2}), (1, 2))
        texts = []
        for horizon in (6, 7, 8, 9, 10, 6, 7):
            series = expand_rational(x, horizon)
            texts.append(series_text(series, True))
            assert texts[-1] == polynomial_text(BivariatePolynomial(dict(series.items()))) + " + ..."
            kept = render._LAYOUT_MONOMIALS
            assert kept.positions == sum(map(len, kept.values())) <= max(40, series._flat[1].size)
            assert sum(map(len, kept.columns.values())) <= kept.positions
        assert texts[:2] == texts[5:]
        assert len(kept) == 1 and kept.positions == expand_rational(x, 10)._flat[1].size

    def test_layouts_share_one_string_per_pair(self, monkeypatch):
        # two layouts with the offset 0 in common, at different horizons and
        # ranks: its monomials are the same string objects in both lists
        monkeypatch.setattr(render, "_LAYOUT_MONOMIALS", render._LayoutStrings())
        one = expand_rational(StringyRational(P({(0, 0): 1}), (1,)), 8)
        two = expand_rational(StringyRational(P({(0, 0): 1, (3, 0): 2, (0, 1): 5}), (1, 2)), 12)
        texts = [series_text(s, True) for s in (one, two)]
        assert texts == [polynomial_text(BivariatePolynomial(dict(s.items()))) + " + ..." for s in (one, two)]
        kept = render._LAYOUT_MONOMIALS
        (a,), (b,) = ([strings for key, strings in kept.items() if key[0] == s._flat[1].offsets] for s in (one, two))
        on_zero = [[strings[p] for p, pair in enumerate(s._flat[1].pairs()) if pair and pair[0] == pair[1]]
                   for strings, s in ((a, one), (b, two))]
        assert len(on_zero[0]) == 5 and all(x is y for x, y in zip(*on_zero))
