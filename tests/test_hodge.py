import pytest
from hypothesis import given
from hypothesis import strategies as st

from stringy.exact_poly import BivariatePolynomial
from stringy.hodge import (
    DiamondViolation,
    HodgeDelignePolynomial,
    HodgeDiamond,
    blowup,
    diamond_from_polynomial,
    projective_space,
    scissor,
    validate_smooth_projective,
)

from oracles import hodge_numbers_from_polynomial


def P(terms):
    return BivariatePolynomial(terms)


def hd(terms, dim=None):
    return HodgeDelignePolynomial(P(terms), claimed_dimension=dim)


class TestHodgeDelignePolynomial:
    def test_projective_space(self):
        p3 = projective_space(3)
        assert dict(p3.poly.items()) == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}
        assert p3.claimed_dimension == 3

    def test_point(self):
        assert dict(projective_space(0).poly.items()) == {(0, 0): 1}

    def test_add_keeps_matching_dimension(self):
        a = hd({(1, 1): 1}, 2)
        b = hd({(0, 0): 1}, 2)
        assert (a + b).claimed_dimension == 2
        c = hd({(0, 0): 1}, 3)
        assert (a + c).claimed_dimension is None

    def test_mul_adds_dimensions(self):
        a = projective_space(2)
        b = projective_space(3)
        prod = a * b
        assert prod.claimed_dimension == 5
        assert prod.poly == a.poly * b.poly

    def test_no_symmetry_enforcement(self):
        # open strata legitimately violate Serre duality; the type must not reject them
        h = hd({(1, 0): 2})
        assert h.coefficient(1, 0) == 2

    def test_scissor_example(self):
        z = hd({(3, 3): 1, (2, 2): 7, (1, 1): 7, (0, 0): 1})
        cut = scissor(z, projective_space(0))
        assert dict(cut.poly.items()) == {(3, 3): 1, (2, 2): 7, (1, 1): 7}


class TestBlowup:
    def test_point_center_in_threefold(self):
        ambient = projective_space(3)
        out = blowup(3, projective_space(0), 3, ambient)
        # exceptional P^2 replaces the point: add uv + (uv)^2
        assert out.poly == ambient.poly + P({(1, 1): 1, (2, 2): 1})

    def test_curve_center(self):
        ambient = projective_space(3)
        center = projective_space(1)
        out = blowup(3, center, 2, ambient)
        assert out.poly == ambient.poly + center.poly * P({(1, 1): 1})

    def test_codim_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            blowup(3, projective_space(0), 1, projective_space(3))

    def test_codim_bounded_by_dimension(self):
        with pytest.raises(ValueError):
            blowup(2, projective_space(0), 3, projective_space(2))

    def test_center_dimension_mismatch(self):
        with pytest.raises(ValueError):
            blowup(3, projective_space(2), 3, projective_space(3))

    @given(st.integers(min_value=2, max_value=6))
    def test_difference_divisible_by_uv(self, codim):
        ambient = projective_space(6)
        out = blowup(6, projective_space(6 - codim), codim, ambient)
        diff = out.poly - ambient.poly
        assert not diff.is_zero
        assert all(i >= 1 and j >= 1 for (i, j) in diff.support())


class TestValidateSmoothProjective:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_projective_spaces_pass(self, n):
        assert validate_smooth_projective(projective_space(n), n).accepted

    def test_affine_line_fails_serre(self):
        report = validate_smooth_projective(hd({(1, 1): 1}), 1)
        assert not report.accepted
        codes = {f.code for f in report.errors}
        assert codes == {"serre-reflection"}
        assert report.errors[0].location == "(0,0) vs (1,1)"

    def test_asymmetric_fails(self):
        report = validate_smooth_projective(hd({(1, 0): 1, (0, 1): 2}), 1)
        codes = {f.code for f in report.errors}
        assert "uv-asymmetry" in codes

    def test_messages_past_the_digit_limit(self):
        # Python's int/str conversion stops at 4300 digits; messages must not
        big = 10 ** 5000
        digits = "1" + "0" * 5000
        report = validate_smooth_projective(hd({(0, 0): big, (1, 0): big, (0, 1): 1}), 1)
        assert {f.code for f in report.errors} == {"uv-asymmetry", "serre-reflection"}
        assert all(digits in f.message for f in report.errors)
        violation = diamond_from_polynomial(P({(0, 0): -big}), 0)
        assert digits in violation.describe()
        with pytest.raises(ValueError, match=digits):
            HodgeDiamond(1, {(1, 0): big})
        diamond = HodgeDiamond(0, {(0, 0): big})
        assert digits in str(diamond) and digits in repr(diamond)

    def test_k3_passes(self):
        k3 = hd({(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}, 2)
        assert validate_smooth_projective(k3, 2).accepted


class TestHodgeDiamond:
    def test_p3_diamond(self):
        dia = diamond_from_polynomial(projective_space(3).poly, 3)
        assert isinstance(dia, HodgeDiamond)
        assert dia.entry(1, 1) == 1
        assert dia.entry(1, 0) == 0
        assert dia.dimension == 3

    def test_negative_entry_violation(self):
        out = diamond_from_polynomial(P({(0, 0): 1, (1, 1): -2, (2, 2): 1}), 2)
        assert isinstance(out, DiamondViolation)
        assert out.location == (1, 1)
        assert out.value == -2

    def test_conjugation_violation(self):
        out = diamond_from_polynomial(P({(0, 0): 1, (1, 0): 1, (2, 1): 1, (2, 2): 1}), 2)
        assert isinstance(out, DiamondViolation)

    def test_exponent_beyond_dimension_raises(self):
        with pytest.raises(ValueError):
            diamond_from_polynomial(P({(3, 3): 1}), 2)

    def test_oracle_signs(self):
        # h^{p,q} carries (-1)^{p+q}: entries of the diamond match the sign-stripped table
        poly = P({(0, 0): 1, (1, 0): -3, (0, 1): -3, (1, 1): 9, (2, 2): 1,
                  (2, 1): -3, (1, 2): -3, (2, 0): 1, (0, 2): 1})
        dia = diamond_from_polynomial(poly, 2)
        assert isinstance(dia, HodgeDiamond)
        oracle = hodge_numbers_from_polynomial(dict(poly.items()), 2)
        for (p, q), h in oracle.items():
            assert dia.entry(p, q) == h

    def test_direct_construction_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            HodgeDiamond(2, {(0, 0): 1, (1, 1): -1})
        with pytest.raises(ValueError):
            HodgeDiamond(2, {(0, 0): 1, (1, 0): 1})  # missing (0,1) partner
        with pytest.raises(ValueError):
            HodgeDiamond(2, {(3, 3): 1})

    def test_equality_and_zero_dropping(self):
        a = HodgeDiamond(1, {(0, 0): 1, (1, 1): 1, (1, 0): 0, (0, 1): 0})
        b = HodgeDiamond(1, {(0, 0): 1, (1, 1): 1})
        assert a == b

    @given(st.data())
    def test_construction_and_reading_share_one_walk(self, data):
        # symmetric orbits, then a few perturbed entries: HodgeDiamond raises
        # exactly when diamond_from_polynomial returns a violation, with its text
        d = data.draw(st.integers(min_value=0, max_value=3))
        points = st.tuples(st.integers(0, d), st.integers(0, d))
        values = st.integers(min_value=-3, max_value=3)
        entries = {}
        for (p, q), val in data.draw(st.dictionaries(points, values, max_size=4)).items():
            for mirror in ((p, q), (q, p), (d - p, d - q), (d - q, d - p)):
                entries[mirror] = val
        entries.update(data.draw(st.dictionaries(points, values, max_size=2)))
        out = diamond_from_polynomial(P({(p, q): (-1) ** (p + q) * h for (p, q), h in entries.items()}), d)
        if isinstance(out, DiamondViolation):
            with pytest.raises(ValueError) as info:
                HodgeDiamond(d, entries)
            assert str(info.value) == out.describe()
            assert str(info.value).startswith(f"violation at {out.location}: ")
        else:
            assert HodgeDiamond(d, entries) == out
            assert all(h >= 0 for h in entries.values())

    def test_each_reading_walks_the_table_once(self, diamond_walks):
        assert isinstance(diamond_from_polynomial(projective_space(3).poly, 3), HodgeDiamond)
        assert diamond_walks == [3]
        HodgeDiamond(2, {(0, 0): 1, (2, 2): 1})
        assert diamond_walks == [3, 2]
        assert isinstance(diamond_from_polynomial(P({(0, 0): 1, (1, 1): -2, (2, 2): 1}), 2), DiamondViolation)
        assert diamond_walks == [3, 2, 2]

    def test_exponent_beyond_dimension_is_outside_the_diamond(self):
        with pytest.raises(ValueError, match=r"^entry \(3,3\) outside the 2-diamond$"):
            diamond_from_polynomial(P({(0, 0): 1, (3, 3): 1}), 2)

    def test_str_renders_rows(self):
        text = str(diamond_from_polynomial(projective_space(2).poly, 2))
        rows = [line.split() for line in text.splitlines()]
        assert [r for r in rows if r] == [["1"], ["0", "0"], ["0", "1", "0"], ["0", "0"], ["1"]]
