import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stringy import engine, exact_poly, resolution
from stringy.engine import (
    NotPolynomial,
    Polynomial,
    check_duality,
    check_nonnegativity,
    check_symmetry,
    compute,
    correction_factor_series,
    decompose_coefficients,
    generalized_stringy_hodge_numbers,
    is_polynomial,
    local_contribution,
    stringy_e_closed,
    stringy_e_open,
    stringy_hodge_numbers,
)
from stringy.exact_poly import (
    BivariatePolynomial,
    CycloProduct,
    PackedNumerator,
    StringyRational,
    TruncatedBiseries,
    expand_rational,
)
from stringy.hodge import (
    DiamondViolation,
    HodgeDelignePolynomial,
    HodgeDiamond,
    projective_space,
    validate_smooth_projective,
)
from stringy.render import rational_text
from stringy.resolution import (
    Component,
    ResolutionConfig,
    config_to_dict,
    convert_strata,
    exceptional_union_hd,
    load_config,
    validate,
)
from stringy.validation import ConfigValidationError

from conftest import (
    LABELS,
    e6_config,
    load_golden,
    node_config,
    random_lenient_config,
    random_strict_config,
)
from oracles import (
    cyclo_dict,
    dict_add,
    dict_mul,
    dict_scale,
    exact_fraction_eval,
    exact_fraction_pair,
    same_fraction,
    stringy_series_oracle,
)


_POINT = (Fraction(2, 3), Fraction(5, 7))


def _closed_formula_at(cfg):
    """The closed-strata formula evaluated at _POINT, term by term, as an
    unreduced (numerator, denominator) pair."""
    u, v = _POINT
    t = u * v
    p, q = t.numerator, t.denominator

    def at_point(poly):
        return exact_fraction_pair(dict(poly.items()), [], u, v)

    a = {c.label: c.discrepancy for c in cfg.components}
    num, den = at_point(cfg.ambient.poly)
    for key, value in cfg.strata.items():
        term, term_den = at_point(value.poly)
        for label in key:
            # (t - t^e) / (t^e - 1) = (p q^(e-1) - p^e) / (p^e - q^e) with e = a + 1
            e = a[label] + 1
            pe = p ** e
            term *= p * q ** (e - 1) - pe
            term_den *= pe - q ** e
        num, den = num * term_den + term * den, den * term_den
    return num, den


def _e_open_at(result):
    return exact_fraction_pair(dict(result.e_open.numerator.items()),
                               list(result.e_open.denominator.factors), *_POINT)


def P(terms):
    return BivariatePolynomial(terms)


def hd(terms, dim=None):
    return HodgeDelignePolynomial(P(terms), claimed_dimension=dim)


def t_poly(coeffs):
    return BivariatePolynomial.from_diagonal(coeffs)


def quoted_e6_value():
    """E_st assembled from its published pieces: the smooth part plus the
    singular point's local term."""
    smooth_part = StringyRational(t_poly({3: 1, 2: 7, 1: 7}))
    local = StringyRational(BivariatePolynomial.one()) + StringyRational(
        t_poly({8: 2, 7: -2, 6: 1, 4: -1, 3: 2, 2: -2}), (7,)
    )
    return smooth_part + local


def series_dict(series):
    return dict(series.items())


def golden_series_dict(name):
    blob = load_golden(name)
    return {(i, j): c for i, j, c in blob["coefficients"]}, blob["horizon"]


class TestE6:
    def test_both_formulas_match_quoted_assembly(self):
        cfg = e6_config()
        quoted = quoted_e6_value()
        assert stringy_e_open(cfg) == quoted
        assert stringy_e_closed(cfg) == quoted

    def test_canonical_form(self):
        x = stringy_e_open(e6_config())
        assert x.denominator.factors == (7,)
        assert dict(x.numerator.items()) == {
            (0, 0): -1, (1, 1): -7, (2, 2): -9, (3, 3): 1, (4, 4): -1,
            (6, 6): 1, (7, 7): -1, (8, 8): 9, (9, 9): 7, (10, 10): 1,
        }

    def test_series_matches_golden(self):
        want, horizon = golden_series_dict("e6_series.json")
        got = compute(e6_config(), horizon).series
        assert series_dict(got) == want
        assert got.horizon == horizon

    def test_series_expanded_on_first_read_only(self, monkeypatch):
        # an expansion is laid out, then filled in
        calls = []
        real_expansion, real_fill = engine._expansion, engine._filled
        monkeypatch.setattr(engine, "_expansion",
                            lambda *args: calls.append(("layout", args[-1])) or real_expansion(*args))
        monkeypatch.setattr(engine, "_filled",
                            lambda x, h, *laid_out: calls.append(("fill", h)) or real_fill(x, h, *laid_out))
        result = compute(e6_config(), 12)
        assert calls == []
        series = result.series
        assert result.series is series and calls == [("layout", 12), ("fill", 12)]
        assert result == compute(e6_config(), 12) and hash(result) == hash(compute(e6_config(), 12))
        assert result != compute(e6_config(), 11)
        assert repr(result) == (f"StringyResult(e_open={result.e_open!r}, e_closed={result.e_closed!r}, "
                                f"agree=True, horizon=12, dimension=3)")

    def test_duality_passes(self):
        assert check_duality(stringy_e_open(e6_config()), 3)

    def test_perturbed_duality_fails_with_witness(self):
        x = stringy_e_open(e6_config())
        bent = StringyRational(
            x.numerator + BivariatePolynomial.monomial(1, 1), x.denominator.factors
        )
        outcome = check_duality(bent, 3)
        assert not outcome.passed
        assert outcome.witness == (1, 1)
        assert outcome.detail == "coefficient -6 at (1,1) vs -1*7 from (9,9)"

    def test_not_polynomial_with_verifiable_witness(self):
        x = stringy_e_open(e6_config())
        verdict = is_polynomial(x, 3)
        assert isinstance(verdict, NotPolynomial)
        assert verdict.witness == (4, 4)
        # the witness is checkable against the raw expansion: a nonzero
        # coefficient beyond the (d, d) box
        series = expand_rational(x, 12)
        i, j = verdict.witness
        assert series.coefficient(i, j) == 1
        assert i > 3 or j > 3

    def test_nonnegativity_verdict(self):
        series = compute(e6_config(), 12).series
        report = check_nonnegativity(series, 3)
        assert report.passed
        assert report.violations == ()
        assert report.beyond_notes == ((3, 3, -1), (6, 6, -1))

    def test_generalized_hodge_diamond(self):
        series = compute(e6_config(), 12).series
        dia = generalized_stringy_hodge_numbers(series, 3)
        assert isinstance(dia, HodgeDiamond)
        assert [dia.entry(k, k) for k in range(4)] == [1, 7, 7, 1]
        assert dia.entry(1, 0) == 0

    def test_local_contribution_matches_quoted(self):
        cfg = e6_config()
        quoted_local = StringyRational(BivariatePolynomial.one()) + StringyRational(
            t_poly({8: 2, 7: -2, 6: 1, 4: -1, 3: 2, 2: -2}), (7,)
        )
        assert local_contribution(cfg, formula="closed") == quoted_local
        assert local_contribution(cfg, formula="open") == quoted_local


class TestNode:
    def test_series_matches_golden(self):
        want, horizon = golden_series_dict("node_a1_series.json")
        result = compute(node_config(), horizon)
        assert series_dict(result.series) == want
        assert result.agree

    def test_value_is_polynomial(self):
        x = stringy_e_open(node_config())
        verdict = is_polynomial(x, 3)
        assert isinstance(verdict, Polynomial)
        assert verdict.value == t_poly({0: 1, 1: 2, 2: 2, 3: 1})

    def test_local_contribution_both_formulas(self):
        cfg = node_config()
        one_plus_uv = StringyRational(t_poly({0: 1, 1: 1}))
        assert local_contribution(cfg, formula="closed") == one_plus_uv
        assert local_contribution(cfg, formula="open") == one_plus_uv

    def test_local_contribution_needs_locus(self):
        cfg = node_config().replace(singular_locus=None)
        with pytest.raises(ValueError, match="singular_locus"):
            local_contribution(cfg)

    def test_decomposition_row(self):
        res = decompose_coefficients(node_config(), [(1, 1)])
        assert res.rejected == ()
        row = res.rows[0]
        assert (row.i, row.j) == (1, 1)
        assert row.direct == 2
        assert row.c_term == 3
        assert row.alternating_sum == -1
        assert row.r_term == 0 and row.s_term == 0
        assert row.implied_hodge_dim == 2
        assert not row.flagged
        assert row.decomposed == row.direct

    def test_duality_passes(self):
        assert check_duality(stringy_e_open(node_config()), 3)


class TestSmoothAndSmallCases:
    def test_no_components_gives_ambient(self):
        cfg = ResolutionConfig(3, projective_space(3), [], "closed", {})
        x = stringy_e_open(cfg)
        assert x.is_polynomial and x.as_polynomial() == projective_space(3).poly

    def test_crepant_component_changes_nothing(self):
        # a = 0 kills the closed-formula term and neutralizes the open factor
        plain = ResolutionConfig(3, projective_space(3), [], "closed", {})
        crepant = ResolutionConfig(
            3, projective_space(3), [Component("E1", 0)], "closed",
            {("E1",): hd({(0, 0): 1, (1, 1): 1})},
        )
        assert stringy_e_open(crepant) == stringy_e_open(plain)
        assert stringy_e_closed(crepant) == stringy_e_closed(plain)

    def test_carving_out_a_crepant_open_stratum_changes_nothing(self):
        # move part of the interior into an a = 0 component's open stratum
        base = ResolutionConfig(
            3, projective_space(3), [Component("E1", 1)], "open",
            {("E1",): hd({(1, 1): 1})},
        )
        carved = ResolutionConfig(
            3, projective_space(3),
            [Component("E1", 1), Component("F", 0)], "open",
            {("E1",): hd({(1, 1): 1}), ("F",): hd({(2, 2): 1, (0, 0): 1})},
        )
        assert stringy_e_open(carved) == stringy_e_open(base)
        assert stringy_e_closed(carved) == stringy_e_closed(base)

    def test_affine_line(self):
        cfg = ResolutionConfig(1, hd({(1, 1): 1}, 1), [], "closed", {})
        x = stringy_e_open(cfg)
        assert x.as_polynomial() == P({(1, 1): 1})
        outcome = check_duality(x, 1)
        assert not outcome.passed and outcome.witness == (0, 0)

    def test_d4_terminal_value_and_row(self):
        cfg = ResolutionConfig(
            4, projective_space(4), [Component("E1", 1)], "closed",
            {("E1",): hd(dict(projective_space(3).poly.items()))},
        )
        x = stringy_e_open(cfg)
        assert x.as_polynomial() == t_poly({0: 1, 2: 1, 4: 1})
        row = decompose_coefficients(cfg, [(2, 2)]).rows[0]
        assert (row.direct, row.c_term, row.alternating_sum, row.r_term) == (1, 1, -1, 1)
        assert row.s_term == 1
        assert row.implied_hodge_dim == 0 and not row.flagged


class TestDuality:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_projective_spaces_pass(self, n):
        x = StringyRational(projective_space(n).poly)
        assert check_duality(x, n)

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 6])
    def test_perturbed_projective_spaces_fail(self, n):
        bent = StringyRational(projective_space(n).poly + BivariatePolynomial.monomial(1, 1))
        outcome = check_duality(bent, n)
        assert not outcome.passed
        assert outcome.witness == ((0, 0) if n == 1 else (1, 1))

    def test_perturbed_p2_stays_self_dual(self):
        # 1 + 2uv + (uv)^2 is palindromic about uv, so the +uv perturbation
        # is invisible to the functional equation in dimension 2
        bent = StringyRational(projective_space(2).poly + BivariatePolynomial.monomial(1, 1))
        assert check_duality(bent, 2).passed

    def test_representation_independent(self):
        a = StringyRational(BivariatePolynomial.one(), (1,))
        b = StringyRational(P({(1, 1): 1, (0, 0): 1}), (2,))
        assert a == b
        for d in (1, 2, 3):
            oa, ob = check_duality(a, d), check_duality(b, d)
            assert oa.passed == ob.passed
            assert oa.witness == ob.witness

    def test_symmetric_pairs_are_self_dual(self):
        x = StringyRational(P({(0, 0): 1, (2, 1): 5, (1, 2): 5, (3, 3): 1}))
        assert check_duality(x, 3).passed

    def test_off_diagonal_witness_detail(self):
        bent = StringyRational(P({(0, 0): 1, (2, 1): 5, (3, 3): 1}))
        outcome = check_duality(bent, 3)
        assert not outcome.passed
        assert outcome.witness == (1, 2)
        assert outcome.detail == "coefficient 0 at (1,2) vs 1*5 from (2,1)"


class TestSymmetry:
    def test_symmetric_passes(self):
        assert check_symmetry(stringy_e_open(e6_config()))

    def test_asymmetric_witness(self):
        x = StringyRational(P({(2, 1): 1, (1, 2): 3}))
        outcome = check_symmetry(x)
        assert not outcome.passed
        assert outcome.witness == (2, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_symmetric_strata_give_symmetric_e(self, seed):
        rng = random.Random(seed)
        cfg = random_lenient_config(rng)
        assert check_symmetry(stringy_e_open(cfg)).passed


# Two uv-asymmetries whose partners are absent and four Serre mismatches in
# dimension 3, one of them against the negative mirror point (3,-1).  The
# checks walk their candidates in different orders, and the first witness
# or the order of the findings shows which.
_ASYMMETRIC = {(0, 0): 1, (3, 0): 2, (1, 2): 5, (0, 4): 7}


def _duality_outcome(num, d):
    x = StringyRational(P(num), (1,))
    assert len(x.denominator) % 2 == 1  # sign -1
    outcome = check_duality(x, d)
    return outcome.passed, outcome.witness, outcome.detail


@pytest.mark.parametrize("check, expected", [
    ("smooth-projective", [
        "error: uv-asymmetry [(2,1) vs (1,2)]: coefficient 0 at (2,1) vs 5 at (1,2)",
        "error: uv-asymmetry [(3,0) vs (0,3)]: coefficient 2 at (3,0) vs 0 at (0,3)",
        "error: uv-asymmetry [(4,0) vs (0,4)]: coefficient 0 at (4,0) vs 7 at (0,4)",
        "error: serre-reflection [(0,0) vs (3,3)]: coefficient 1 at (0,0) vs 0 at (3,3) for dimension 3",
        "error: serre-reflection [(3,-1) vs (0,4)]: coefficient 0 at (3,-1) vs 7 at (0,4) for dimension 3",
        "error: serre-reflection [(0,3) vs (3,0)]: coefficient 0 at (0,3) vs 2 at (3,0) for dimension 3",
        "error: serre-reflection [(1,2) vs (2,1)]: coefficient 5 at (1,2) vs 0 at (2,1) for dimension 3",
    ]),
    ("symmetry", (False, (3, 0), "coefficient 2 at (3,0) vs 0 at (0,3)")),
    # D = 3 + 1: (1,0) and (3,4) match under sign -1, the centre (2,2) cannot
    ("duality-centre", (False, (2, 2), "coefficient 3 at (2,2) vs -1*3 from (2,2)")),
    ("duality-negative-mirror", (False, (-1, 4), "coefficient 0 at (-1,4) vs -1*9 from (5,0)")),
])
def test_reflection_walk_order(check, expected):
    if check == "smooth-projective":
        report = validate_smooth_projective(hd(_ASYMMETRIC), 3)
        got = [f.describe() for f in report.findings]
    elif check == "symmetry":
        outcome = check_symmetry(StringyRational(P(_ASYMMETRIC)))
        got = (outcome.passed, outcome.witness, outcome.detail)
    elif check == "duality-centre":
        got = _duality_outcome({(0, 0): 1, (1, 0): 2, (2, 2): 3, (3, 4): -2, (4, 4): -1}, 3)
    else:
        got = _duality_outcome({(0, 0): 1, (2, 2): 3, (4, 4): -1, (5, 0): 9}, 3)
    assert got == expected


@st.composite
def near_budget_configs(draw):
    """Configs of 1-4 components with a <= 40, whose tables hold 1-5
    offsets i - j, in either convention: about the size that a packed
    budget of 2^12 bits accepts or just refuses.  Discrepancies repeat, and
    a table may carry the factors (uv)^(a+1) - 1 of its labels, so that
    poles cancel, often all of them, as in a polynomial E_st."""
    pool = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4))
    labels = LABELS[:draw(st.integers(min_value=1, max_value=4))]
    components = [Component(label, draw(st.sampled_from(pool))) for label in labels]
    reach = draw(st.sets(st.integers(min_value=1, max_value=6), max_size=2))
    offsets = sorted(reach | ({0} if not reach or draw(st.booleans()) else set()))

    def table(key=()):
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            k, s = draw(st.integers(min_value=0, max_value=8)), draw(st.sampled_from(offsets))
            c = draw(st.integers(min_value=-99, max_value=99).filter(bool))
            for pair in {(k + s, k), (k, k + s)}:
                terms[pair] = terms.get(pair, 0) + c
        poly = BivariatePolynomial(terms)
        for comp in components:
            if comp.label in key and comp.discrepancy and draw(st.booleans()):
                poly = poly * CycloProduct([comp.discrepancy + 1]).polynomial()
        return HodgeDelignePolynomial(poly)

    keys = draw(st.sets(st.frozensets(st.sampled_from(labels), min_size=1), min_size=1, max_size=4))
    strata = {tuple(sorted(key)): table(key) for key in keys}
    return ResolutionConfig(draw(st.integers(min_value=1, max_value=4)), table(), components,
                            draw(st.sampled_from(["open", "closed"])), strata)


@st.composite
def lattice_configs(draw):
    """Configs of 2-4 components, often with a = 0, whose stored keys have
    one to three labels, in either convention.  A stored table may be drawn
    as minus the signed sum of its stored supersets, so that the table the
    other convention has at its key cancels to 0."""
    labels = LABELS[:draw(st.integers(min_value=2, max_value=4))]
    components = [Component(label, draw(st.sampled_from([0, 0, 1, 2, 4]))) for label in labels]
    convention = draw(st.sampled_from(["open", "closed"]))

    def table(top):
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            i, j = (draw(st.integers(min_value=0, max_value=top)) for _ in range(2))
            c = draw(st.integers(min_value=-9, max_value=9).filter(bool))
            for pair in {(i, j), (j, i)}:
                terms[pair] = terms.get(pair, 0) + c
        return P(terms)

    keys = draw(st.sets(st.frozensets(st.sampled_from(labels), min_size=1, max_size=3),
                        min_size=1, max_size=6))
    strata = {}
    for key in sorted((tuple(sorted(key)) for key in keys), key=len, reverse=True):  # supersets first
        above = [(j, value) for j, value in strata.items() if set(key) < set(j)]
        if above and draw(st.booleans()):
            value = P({})
            for j, h in above:  # the other convention's table at key is then 0
                flip = convention == "closed" and (len(j) - len(key)) % 2
                value = value + h.poly if flip else value - h.poly
        else:
            value = table(3)
        if value:
            strata[key] = HodgeDelignePolynomial(value)
    return ResolutionConfig(3, HodgeDelignePolynomial(table(3)), components, convention, strata)


def _sums_over_converted_tables(cfg):
    """Both formula sums as terms of ``common_denominator_sum`` over the
    tables of ``convert_strata``, each table packed on its own."""
    opened, closed = convert_strata(cfg, "open"), convert_strata(cfg, "closed")
    a = {comp.label: comp.discrepancy for comp in cfg.components}
    complement = cfg.ambient.poly
    open_terms = []
    for key, value in opened.strata.items():
        complement = complement - value.poly
        factors = [a[label] + 1 for label in key if a[label]]
        open_terms.append((value.poly, factors, [1] * len(factors)))
    closed_terms = [(value.poly, [a[label] + 1 for label in key], [a[label] for label in key], len(key))
                    for key, value in closed.strata.items() if all(a[label] for label in key)]
    return (exact_poly.common_denominator_sum(open_terms + [(complement, ())]),
            exact_poly.common_denominator_sum(closed_terms + [(cfg.ambient.poly, ())]))


class TestFormulaEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(near_budget_configs())
    @example(load_config({  # Phi_1 three deep: proven bounds on its quotients passed the budget
        "dimension": 1, "ambient": [[0, 0, 1]], "strata_convention": "open",
        "components": [{"label": label, "discrepancy": a}
                       for label, a in (("E1", 15), ("E2", 15), ("E3", 15), ("E4", 25))],
        "strata": {"E1,E2,E3,E4": [[0, 0, -4], [16, 16, 8], [26, 26, 4], [32, 32, -4], [42, 42, -8],
                                   [58, 58, 4]]},
    }))
    def test_lenient_acceptance_is_never_refused_later(self, cfg):
        # validation bounds the formula sums; the agreement check and the
        # cancellation after them must then stay within the same budget
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resolution, "PACKED_BIT_BUDGET", 2 ** 12)
            patch.setattr(exact_poly, "PACKED_BIT_BUDGET", 2 ** 12)
            if not validate(cfg).accepted:
                return
            result = compute(cfg)
        assert result.agree
        assert same_fraction(_e_open_at(result), _closed_formula_at(convert_strata(cfg, "closed")))

    @settings(max_examples=120, deadline=None)
    @given(lattice_configs())
    @example(ResolutionConfig(  # the closed table at B cancels to 0; A has a = 0
        2, HodgeDelignePolynomial(P({(0, 0): 1, (1, 1): 1, (2, 2): 1})),
        [Component("A", 0), Component("B", 1), Component("C", 2)], "open",
        {("A", "B"): hd({(0, 0): 1, (1, 1): 1}), ("B",): hd({(0, 0): -1, (1, 1): -1}),
         ("C",): hd({(0, 0): 2, (1, 0): 1, (0, 1): 1})}))
    def test_packed_sums_match_converted_tables(self, cfg):
        # the size lenient validation holds against the packed budget is the
        # size of the layout the formulas pack, in either convention: with no
        # budget left, its finding names the bits the layout is checked at
        # when it is made
        other = "open" if cfg.convention == "closed" else "closed"
        sizes = []
        for config in (cfg, convert_strata(cfg, other)):
            assert validate(config).accepted
            checked = []
            with pytest.MonkeyPatch.context() as patch:
                check = exact_poly._check_size
                patch.setattr(exact_poly, "_check_size",
                              lambda slots, width: checked.append(slots * width) or check(slots, width))
                engine._packed_strata(config)
                patch.setattr(resolution, "PACKED_BIT_BUDGET", 0)
                finding, = [f for f in resolution._lenient_findings(config) if f.code == "packed-size-cost"]
            assert len(checked) == 1 and f" up to {checked[0]} bits," in finding.message
            sizes.append(checked[0])
        # the formula sums on that layout, with the other convention made by
        # packed inclusion-exclusion, against the sums over the converted
        # tables
        mine = engine._open_sum(cfg), engine._closed_sum(cfg)
        for (num, den), (their_num, their_den) in zip(mine, _sums_over_converted_tables(cfg)):
            assert den.factors == their_den.factors
            assert StringyRational(num, den) == StringyRational(their_num, their_den)
        # one layout serves the agreement check: its width holds the norm
        # of both products, and its size holds theirs
        strata = engine._packed_strata(cfg)
        (x, dx), (y, dy) = mine
        assert (x.width, x.offsets) == (y.width, y.offsets) == (strata.width, strata.offsets)
        both = dx.union(dy)
        assert all(exact_poly._width(p.norm << len(both.minus(den))) <= p.width for p, den in mine)
        rows = max(p.degree + both.minus(den).degree_uv() for p, den in mine) + 1
        assert rows * len(strata.offsets) * strata.width <= sizes[0]

    @settings(max_examples=60, deadline=None)
    @given(lattice_configs())
    def test_loaded_config_packs_as_the_built_one(self, cfg):
        # the loader's checked path and the public constructor give one
        # config, in either convention: the same strata and components, and
        # the same packed layout and values
        for built in (cfg, convert_strata(cfg, "open" if cfg.convention == "closed" else "closed")):
            loaded = load_config(config_to_dict(built))
            assert loaded.strata == built.strata and loaded.components == built.components
            mine, theirs = engine._packed_strata(loaded), engine._packed_strata(built)
            assert (mine.width, mine.offsets, mine.norm) == (theirs.width, theirs.offsets, theirs.norm)
            assert mine == theirs

    @settings(max_examples=80, deadline=None)
    @given(lattice_configs(), st.booleans())
    def test_same_value_on_the_formula_sums(self, cfg, bent_open):
        # the agreement check holds on the two formula sums, and one unit
        # added to either sum's packed value breaks it
        sums = [engine._open_sum(cfg), engine._closed_sum(cfg)]
        assert exact_poly.same_value(*sums)
        at = 0 if bent_open else 1
        p, den = sums[at]
        sums[at] = (PackedNumerator(p.value + 1, p.width, p.offsets, p.degree, p.norm), den)
        assert not exact_poly.same_value(*sums)

    @settings(max_examples=80, deadline=None)
    @given(lattice_configs())
    def test_local_contribution_from_stored_tables(self, cfg):
        # the union is a signed sum of the stored tables in either
        # convention, equal to inclusion-exclusion over the closed ones; the
        # local contribution subtracts the part away from it from E_st
        closed = convert_strata(cfg, "closed")
        union = {}
        for key, value in closed.strata.items():
            union = dict_add(union, dict_scale(dict(value.poly.items()), 1 if len(key) % 2 else -1))
        cfg = cfg.replace(singular_locus=HodgeDelignePolynomial(P({(0, 0): 1})))
        with pytest.MonkeyPatch.context() as patch:
            for module, name in ((resolution, "convert_strata"), (resolution, "_converted")):
                patch.setattr(module, name, None)  # a call would raise
            assert dict(resolution.exceptional_union_hd(cfg).poly.items()) == union
            local = {formula: local_contribution(cfg, formula=formula) for formula in ("open", "closed")}
        away = dict_add(dict(cfg.ambient.poly.items()), dict_scale(union, -1))
        for formula, e in (("open", stringy_e_open(cfg)), ("closed", stringy_e_closed(cfg))):
            away_times_den = away
            for m in e.denominator:
                away_times_den = dict_mul(away_times_den, cyclo_dict(m))
            # reduced from scratch: the value and its canonical form
            want = StringyRational(P(dict_add(dict(e.numerator.items()), dict_scale(away_times_den, -1))),
                                   e.denominator)
            assert local[formula] == want
            assert local[formula] == e - StringyRational(P(away))

    @settings(max_examples=60, deadline=None)
    @given(lattice_configs())
    def test_local_contribution_equals_the_union_route(self, cfg):
        # away as one signed sum, taken into a flat E_st's list, against the
        # ambient less the union's H, subtracted through a term map
        other = "closed" if cfg.convention == "open" else "open"
        for each in (cfg, convert_strata(cfg, other)):
            each = each.replace(singular_locus=HodgeDelignePolynomial(P({(0, 0): 1})))
            away = StringyRational(each.ambient.poly - exceptional_union_hd(each).poly)
            for formula, e in (("open", stringy_e_open(each)), ("closed", stringy_e_closed(each))):
                local = local_contribution(each, formula=formula)
                mapped = StringyRational._from_canonical(P(dict(e.numerator.items())), e.denominator) - away
                assert local == e - away == mapped
                assert rational_text(local) == rational_text(mapped)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_open_equals_closed_and_oracle_series(self, seed):
        rng = random.Random(seed)
        cfg = random_lenient_config(rng)
        result = compute(cfg, 12)
        assert result.agree
        assert result.e_open == result.e_closed
        opened = convert_strata(cfg, "open")
        want = stringy_series_oracle(
            cfg.dimension,
            dict(cfg.ambient.poly.items()),
            {c.label: c.discrepancy for c in cfg.components},
            {k: dict(v.poly.items()) for k, v in opened.strata.items()},
            12,
        )
        assert series_dict(result.series) == want

    def test_sixteen_component_ladder_budget(self):
        # Guards the one-pass evaluation: adding term by term with a
        # cancellation after every addition takes seconds here.
        rng = random.Random(16)
        d = 6
        labels = [f"E{k:02d}" for k in range(1, 17)]

        def symmetric(max_exp, count):
            terms = {}
            for _ in range(count):
                i, j = rng.randint(0, max_exp), rng.randint(0, max_exp)
                c = rng.choice([-3, -2, -1, 1, 2, 3])
                for pair in {(i, j), (j, i)}:
                    terms[pair] = terms.get(pair, 0) + c
            return terms

        components = [Component(label, rng.randint(1, 30)) for label in labels]
        strata = {(label,): symmetric(d - 1, 4) for label in labels}
        for size, p in ((2, 0.3), (3, 0.05)):
            for key in itertools.combinations(labels, size):
                if rng.random() < p:
                    strata[key] = symmetric(d - size, 3)
        strata = {key: hd(terms) for key, terms in strata.items() if terms}
        cfg = ResolutionConfig(d, hd(symmetric(d, 5), d), components, "closed", strata)

        started = time.perf_counter()
        result = compute(cfg)
        elapsed = time.perf_counter() - started
        assert result.agree
        assert same_fraction(_e_open_at(result), _closed_formula_at(cfg))
        assert elapsed < 1.0, f"compute on 16 components took {elapsed:.3f}s"

    def test_large_discrepancies_stay_sparse(self):
        # Denominators of degree 10^5: the packed reduction is a few int
        # operations per step, per degree only at C speed, so this takes
        # milliseconds.
        components = [Component("A", 10 ** 5), Component("B", 3), Component("C", 5)]
        strata = {("A",): hd({(0, 0): 1, (1, 1): 1}, 2),
                  ("B",): hd({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, 2),
                  ("C",): hd({(0, 0): 1}, 2),
                  ("A", "B"): hd({(0, 0): 2}, 1),
                  ("B", "C"): hd({(0, 0): 1}, 1)}
        cfg = ResolutionConfig(3, projective_space(3), components, "closed", strata)
        assert validate(cfg).accepted
        started = time.perf_counter()
        result = compute(cfg)
        elapsed = time.perf_counter() - started
        assert result.agree
        assert result.e_open.denominator.factors == (4, 6, 100001)
        assert same_fraction(_e_open_at(result), _closed_formula_at(cfg))
        assert elapsed < 0.5, f"compute with a = 10^5 took {elapsed:.3f}s"

    def test_agreement_over_differing_denominators(self):
        # A (a = 0) shares a pair stratum with B (a = 1), and the open
        # strata of B cancel in the closed table: the open sum carries
        # (uv)^2 - 1, the closed sum does not
        p, q = hd({(0, 0): 1, (1, 1): 1}), hd({(0, 0): 2, (1, 0): 1, (0, 1): 1})
        cfg = ResolutionConfig(2, projective_space(2),
                               [Component("A", 0), Component("B", 1), Component("C", 2)], "open",
                               {("A", "B"): p, ("B",): hd({(0, 0): -1, (1, 1): -1}), ("C",): q})
        assert validate(cfg).accepted
        assert engine._open_sum(cfg)[1].factors == (2, 3)
        assert engine._closed_sum(cfg)[1].factors == (3,)
        result = compute(cfg)
        assert result.agree
        assert result.e_closed is result.e_open
        closed = convert_strata(cfg, "closed")
        u, v = Fraction(2, 3), Fraction(5, 7)
        t = u * v
        direct = exact_fraction_eval(dict(closed.ambient.poly.items()), [], u, v)
        for key, value in closed.strata.items():
            if all(cfg.discrepancy(label) for label in key):
                term = exact_fraction_eval(dict(value.poly.items()), [], u, v)
                for label in key:
                    e = cfg.discrepancy(label) + 1
                    term *= (t - t ** e) / (t ** e - 1)
                direct += term
        x = result.e_open
        assert exact_fraction_eval(dict(x.numerator.items()), x.denominator.factors, u, v) == direct

    def test_default_horizon_is_twice_dimension(self):
        result = compute(node_config())
        assert result.series.horizon == 6

    def test_rejected_config_raises(self):
        cfg = ResolutionConfig(3, hd({(1, 0): 1}, 3), [], "closed", {})
        with pytest.raises(ConfigValidationError, match="config rejected"):
            stringy_e_open(cfg)
        with pytest.raises(ConfigValidationError):
            compute(cfg)

    def test_b00_is_one_when_ambient_starts_at_one(self):
        result = compute(node_config(), 4)
        assert result.series.coefficient(0, 0) == 1


class TestCorrectionFactor:
    def test_a_zero_is_zero_series(self):
        s = correction_factor_series(0, 10)
        assert dict(s.items()) == {}

    def test_a1_pattern(self):
        s = correction_factor_series(1, 7)
        assert dict(s.items()) == {1: -1, 2: 1, 3: -1, 4: 1, 5: -1, 6: 1, 7: -1}

    def test_a2_pattern(self):
        s = correction_factor_series(2, 7)
        assert dict(s.items()) == {1: -1, 3: 1, 4: -1, 6: 1, 7: -1}

    @pytest.mark.parametrize("a", range(1, 7))
    def test_sign_pattern(self, a):
        horizon = 30
        s = correction_factor_series(a, horizon)
        e = a + 1
        want = {}
        for k in range(e, horizon + 1, e):
            want[k] = 1
        for k in range(1, horizon + 1, e):
            want[k] = -1
        assert dict(s.items()) == want


class TestPolynomiality:
    def test_division_residual_witness(self):
        x = StringyRational(BivariatePolynomial.one(), (1,))
        verdict = is_polynomial(x, 2)
        assert isinstance(verdict, NotPolynomial)
        assert "division residual" in verdict.reason
        assert verdict.witness == (3, 3)

    @given(st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                           st.integers(-4, 4).filter(bool), max_size=8),
           st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(0, 6))
    @example({(0, 0): 1}, [1], 2)  # the residual path
    @example({(9, 9): 1, (9, 0): 2}, [1], 0)  # nothing within the horizon
    @example({(0, 0): 1, (7, 0): -1, (0, 2): 3}, [2, 3], 3)  # a column wholly out of the box
    @settings(max_examples=80, deadline=None)
    def test_witness_from_the_flat_layout_matches_the_term_walk(self, num, dens, d):
        # the flat reading gives the witness and reason of a walk over the
        # expansion's terms in output order
        x = StringyRational(BivariatePolynomial(num), dens)
        verdict = is_polynomial(x, d)
        if x.is_polynomial:
            assert verdict == Polynomial(x.numerator)
            return
        terms = list(expand_rational(x, 2 * d + x.denominator.degree_uv()).items())
        outside = [(pair, c) for pair, c in terms if max(pair) > d]
        if outside:
            (i, j), c = outside[0]
            want = NotPolynomial((i, j), f"series coefficient {c} at ({i},{j}) exceeds degree ({d},{d})")
        else:
            candidate = BivariatePolynomial(terms)
            residual = candidate * x.denominator.polynomial() - x.numerator
            (i, j), c = residual.sorted_items()[0]
            want = NotPolynomial((i, j), f"division residual {c} at ({i},{j})")
        assert verdict == want

    @settings(max_examples=80, deadline=None)
    @given(lattice_configs())
    def test_witness_read_from_the_run_expansion(self, cfg):
        # from an expansion that reaches 2d + deg D, the witness is read off
        # its prefix with no expansion of its own; from a shorter one it is
        # expanded.  Either way it is is_polynomial's, witness and reason
        other = "open" if cfg.convention == "closed" else "closed"
        for each in (cfg, convert_strata(cfg, other)):
            x, d = stringy_e_open(each), each.dimension
            want = is_polynomial(x, d)
            reach = 2 * d + x.denominator.degree_uv()
            for horizon in (reach - 1, reach, reach + 1):
                series = compute(each, horizon).series
                with pytest.MonkeyPatch.context() as patch:
                    if horizon >= reach:
                        patch.setattr(engine, "expand_rational", None)  # a call would raise
                    assert engine._polynomial_verdict(x, d, series) == want

    def test_all_crepant_config_gives_ambient(self):
        cfg = ResolutionConfig(
            3, projective_space(3),
            [Component("E1", 0), Component("E2", 0)], "closed",
            {("E1",): hd({(1, 1): 1}), ("E1", "E2"): hd({(0, 0): 1})},
        )
        verdict = is_polynomial(stringy_e_open(cfg), 3)
        assert isinstance(verdict, Polynomial)
        assert verdict.value == projective_space(3).poly


class TestNonnegativity:
    def test_horizon_below_dimension_rejected(self):
        series = TruncatedBiseries(2, {(0, 0): 1})
        with pytest.raises(ValueError):
            check_nonnegativity(series, 3)

    def test_violation_in_range(self):
        series = TruncatedBiseries(4, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 2): -3})
        report = check_nonnegativity(series, 4)
        assert not report.passed
        assert report.violations == ((1, 0, 1), (0, 1, 1), (2, 2, -3))

    def test_sign_rule_alternates_by_parity(self):
        # negative coefficients at odd i+j encode positive stringy Hodge numbers
        series = TruncatedBiseries(4, {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 7})
        assert check_nonnegativity(series, 4).passed

    def test_beyond_range_note(self):
        series = TruncatedBiseries(8, {(0, 0): 1, (4, 4): -2})
        report = check_nonnegativity(series, 3)
        assert report.passed
        assert report.beyond_notes == ((4, 4, -2),)


class TestStringyHodgeNumbers:
    def test_smooth_p3(self):
        dia = stringy_hodge_numbers(projective_space(3).poly, 3)
        assert isinstance(dia, HodgeDiamond)
        assert [dia.entry(k, k) for k in range(4)] == [1, 1, 1, 1]

    def test_h00_must_be_one(self):
        out = stringy_hodge_numbers(P({(0, 0): 2, (1, 1): 1, (2, 2): 2}), 2)
        assert not isinstance(out, HodgeDiamond)
        assert out.location == (0, 0)

    def test_generalized_requires_horizon_at_least_d(self):
        series = TruncatedBiseries(2, {(0, 0): 1})
        with pytest.raises(ValueError):
            generalized_stringy_hodge_numbers(series, 3)

    def test_generalized_negative_entry(self):
        series = TruncatedBiseries(2, {(0, 0): 1, (1, 1): -1})
        out = generalized_stringy_hodge_numbers(series, 2)
        assert not isinstance(out, HodgeDiamond)

    def test_generalized_middle_line_mismatch(self):
        series = TruncatedBiseries(2, {(0, 0): 1, (2, 0): 1, (0, 2): 2, (1, 1): 1})
        out = generalized_stringy_hodge_numbers(series, 2)
        assert not isinstance(out, HodgeDiamond)

    def test_generalized_off_middle_asymmetry_is_a_violation(self, diamond_walks):
        series = TruncatedBiseries(4, {(0, 0): 1, (1, 0): -1, (1, 1): 1})
        out = generalized_stringy_hodge_numbers(series, 2)
        assert out == DiamondViolation((1, 0), 1, "h^{0,1} = 0 differs")
        assert diamond_walks == [2]

    def test_generalized_middle_line_reason(self):
        series = TruncatedBiseries(2, {(0, 0): 1, (2, 0): 1, (0, 2): 2, (1, 1): 1})
        out = generalized_stringy_hodge_numbers(series, 2)
        assert out == DiamondViolation((0, 2), 2, "h^{2,0} = 1 differs")

    def test_generalized_mirrors_lower_half(self):
        series = TruncatedBiseries(2, {(0, 0): 1, (1, 1): 4, (1, 0): -2, (0, 1): -2})
        dia = generalized_stringy_hodge_numbers(series, 2)
        assert isinstance(dia, HodgeDiamond)
        assert dia.entry(1, 0) == 2
        assert dia.entry(1, 2) == 2
        assert dia.entry(2, 2) == 1


class TestDecomposition:
    def test_pair_canonicalization(self):
        res = decompose_coefficients(node_config(), [(1, 1), (0, 1)])
        assert [(r.i, r.j) for r in res.rows] == [(1, 1), (1, 0)]

    def test_rejections(self):
        res = decompose_coefficients(
            node_config(), [(1, 1), (5, 0), (-1, 0), (1.5, 0), "xy", (1,)]
        )
        assert len(res.rows) == 1
        reasons = {pair: reason for pair, reason in res.rejected}
        assert reasons[(5, 0)] == "i + j = 5 exceeds the dimension 3"
        assert "nonnegative" in reasons[(-1, 0)]
        assert "integers" in reasons[(1.5, 0)]
        assert "pair" in reasons["xy"]
        assert "pair" in reasons[(1,)]

    def test_strict_validation_enforced(self):
        with pytest.raises(ConfigValidationError):
            decompose_coefficients(e6_config(), [(1, 1)])

    def test_flagged_negative_implied_dimension(self):
        cfg = ResolutionConfig(
            3, hd({(0, 0): 1, (1, 1): -4, (2, 2): -4, (3, 3): 1}, 3),
            [Component("E1", 1)], "closed",
            {("E1",): hd({(0, 0): 1, (1, 1): 2, (2, 2): 1})},
        )
        assert validate(cfg, "strict").accepted
        row = decompose_coefficients(cfg, [(1, 1)]).rows[0]
        assert row.direct == -5
        assert row.implied_hodge_dim == -5
        assert row.flagged

    def test_planted_d5_regression(self):
        orbit = P({(1, 0): -2, (0, 1): -2, (3, 4): -2, (4, 3): -2})
        stratum = HodgeDelignePolynomial(projective_space(4).poly + orbit)
        cfg = ResolutionConfig(5, projective_space(5), [Component("E1", 1)],
                               "closed", {("E1",): stratum})
        rows = decompose_coefficients(cfg, [(3, 2), (2, 2)]).rows
        by_pair = {(r.i, r.j): r for r in rows}
        r32 = by_pair[(3, 2)]
        assert (r32.direct, r32.c_term, r32.alternating_sum, r32.r_term, r32.s_term) == (
            -2, 0, 0, -2, 2)
        assert r32.implied_hodge_dim == 0
        r22 = by_pair[(2, 2)]
        assert (r22.direct, r22.c_term, r22.alternating_sum, r22.r_term, r22.s_term) == (
            1, 1, -1, 1, 1)

    # strict configs at the edges of reading b_{i,j} off the closed sum's
    # rows 0 to d // 2, over its uncancelled denominator
    _LOW_ROW_CASES = {
        "rational, rows past d // 2": lambda: ResolutionConfig(
            5, projective_space(5), [Component("E1", 1)], "closed",
            {("E1",): HodgeDelignePolynomial(projective_space(4).poly + P({(1, 0): -2, (0, 1): -2,
                                                                             (3, 4): -2, (4, 3): -2}))}),
        "polynomial over a factor": node_config,
        "polynomial, no factor": lambda: ResolutionConfig(3, projective_space(3), [], "closed", {}),
        "zero sum": lambda: ResolutionConfig(3, hd({}, 3), [Component("E", 0)], "closed",
                                             {("E",): projective_space(2)}),
        "no offsets": lambda: ResolutionConfig(3, hd({}, 3), [], "closed", {}),
    }

    @pytest.mark.parametrize("case", list(_LOW_ROW_CASES))
    def test_low_rows_of_the_closed_sum(self, case, monkeypatch):
        cfg = self._LOW_ROW_CASES[case]()
        assert validate(cfg, "strict").accepted
        d = cfg.dimension
        num, den = engine._closed_sum(cfg)
        e_st = compute(cfg, d)
        shape = {"rational, rows past d // 2": num.degree > d // 2 and not e_st.e_open.is_polynomial,
                 "polynomial over a factor": bool(den) and e_st.e_open.is_polynomial,
                 "polynomial, no factor": not den and e_st.e_open.is_polynomial,
                 "zero sum": not num.value and bool(num.offsets),
                 "no offsets": not num.offsets}
        assert shape[case]
        read = []
        real_unpack = engine._unpack
        monkeypatch.setattr(engine, "_unpack", lambda packed: read.append(packed.degree + 1) or real_unpack(packed))
        pairs = [(i, j) for i in range(d + 1) for j in range(i + 1) if i + j <= d]
        rows = decompose_coefficients(cfg, pairs).rows
        assert len(read) == 1 and read[0] <= d // 2 + 1
        assert [row.direct for row in rows] == [e_st.series.coefficient(i, j) for i, j in pairs]
        assert all(row.decomposed == row.direct for row in rows)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_rows_equal_direct_expansion(self, seed):
        rng = random.Random(seed)
        cfg = random_strict_config(rng)
        d = cfg.dimension
        pairs = [(i, j) for i in range(d + 1) for j in range(i + 1) if i + j <= d]
        res = decompose_coefficients(cfg, pairs)
        assert res.rejected == ()
        series = compute(cfg, d).series
        for row in res.rows:
            assert row.direct == series.coefficient(row.i, row.j)
            assert row.decomposed == row.direct
