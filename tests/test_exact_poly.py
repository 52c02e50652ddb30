import ast
import random
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stringy import exact_poly
from stringy.exact_poly import (
    BivariatePolynomial,
    CycloProduct,
    PackedSizeError,
    StringyRational,
    TruncatedBiseries,
    common_denominator_sum,
    decimal_str,
    decode_json_int,
    encode_json_int,
    expand_rational,
    same_value,
)
from stringy.engine import check_nonnegativity
from stringy.render import polynomial_latex, polynomial_text, series_latex, series_text

from oracles import (
    binomial_series_check,
    cyclo_dict,
    cyclotomic,
    dict_add,
    dict_mul,
    divide_by_t_poly,
    long_divide_by_cyclo,
    merge_by_levels_tuples,
    rational_equal,
    series_expand,
    truncate_total_degree,
)

exponents = st.integers(min_value=0, max_value=8)
coeffs = st.integers(min_value=-50, max_value=50).filter(bool)
term_dicts = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=8)
polys = st.builds(BivariatePolynomial, term_dicts)
cyclo_m = st.integers(min_value=1, max_value=6)


def P(terms):
    return BivariatePolynomial(terms)


def _power(p, n):
    out = BivariatePolynomial.one()
    for _ in range(n):
        out = out * p
    return out


def _diagonal(poly):
    """The map {k: coefficient of (uv)^k} of a polynomial in uv alone."""
    assert all(i == j for (i, j), _ in poly.items())
    return {i: c for (i, _), c in poly.items()}


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        assert dict(P({(1, 1): 0, (2, 0): 3}).items()) == {(2, 0): 3}

    def test_bool_coefficient_rejected(self):
        with pytest.raises(TypeError):
            P({(0, 0): True})

    def test_bool_exponent_rejected(self):
        with pytest.raises(TypeError):
            P({(True, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            P({(-1, 0): 1})

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            P({(0, 0): 1.5})

    def test_constructors(self):
        assert BivariatePolynomial.zero().is_zero
        assert dict(BivariatePolynomial.one().items()) == {(0, 0): 1}
        assert dict(BivariatePolynomial.uv_power(3).items()) == {(3, 3): 1}
        assert dict(BivariatePolynomial.monomial(2, 5, -4).items()) == {(2, 5): -4}
        assert dict(BivariatePolynomial.from_diagonal({0: 1, 2: 7}).items()) == {
            (0, 0): 1,
            (2, 2): 7,
        }
        assert dict(BivariatePolynomial.cyclo_factor(3).items()) == {(3, 3): 1, (0, 0): -1}

    def test_sorted_items_total_degree_order(self):
        p = P({(0, 3): 1, (2, 0): 1, (0, 0): 5, (1, 1): -2})
        assert [k for k, _ in p.sorted_items()] == [(0, 0), (2, 0), (1, 1), (0, 3)]


class TestRingAxioms:
    @given(polys, polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_sub_is_add_neg(self, a, b):
        assert a - b == a + (-b)

    @given(polys)
    def test_int_coercion(self, a):
        assert a + 0 == a
        assert a * 1 == a
        assert a * 0 == BivariatePolynomial.zero()
        assert 2 * a == a + a

    @given(polys)
    def test_uv_symmetry_matches_swapped_terms(self, a):
        assert a.is_uv_symmetric() == (a == BivariatePolynomial({(j, i): c for (i, j), c in a.items()}))


class TestCycloQuotient:
    def test_known_quotient(self):
        q = P({(2, 2): 1, (0, 0): -1}).exact_cyclo_quotient(1)
        assert q is not None and dict(q.items()) == {(1, 1): 1, (0, 0): 1}

    def test_non_divisible(self):
        assert P({(1, 1): 1, (2, 2): -1}).exact_cyclo_quotient(2) is None

    def test_zero_divides(self):
        q = BivariatePolynomial.zero().exact_cyclo_quotient(5)
        assert q is not None and q.is_zero

    def test_off_diagonal_shift(self):
        # u * ((uv)^3 - 1) lives entirely at shift i - j = 1
        p = P({(4, 3): 1, (1, 0): -1})
        q = p.exact_cyclo_quotient(3)
        assert q is not None and dict(q.items()) == {(1, 0): 1}

    @given(polys, cyclo_m)
    def test_product_always_divides_back(self, a, m):
        prod = a * BivariatePolynomial.cyclo_factor(m)
        q = prod.exact_cyclo_quotient(m)
        assert q == a

    @given(polys, cyclo_m)
    def test_agrees_with_long_division(self, a, m):
        q = a.exact_cyclo_quotient(m)
        oq, orem = long_divide_by_cyclo(dict(a.items()), m)
        if orem:
            assert q is None
        else:
            assert q is not None and dict(q.items()) == oq

    @given(polys, cyclo_m)
    def test_quotient_multiplies_back(self, a, m):
        q = a.exact_cyclo_quotient(m)
        if q is not None:
            assert q * BivariatePolynomial.cyclo_factor(m) == a


class TestCycloProduct:
    def test_sorted_and_degree(self):
        den = CycloProduct([3, 1, 3])
        assert den.factors == (1, 3, 3)
        assert den.degree_uv() == 7

    def test_union_is_max_multiplicity(self):
        a = CycloProduct([2, 2, 5])
        b = CycloProduct([2, 5, 5])
        assert a.union(b).factors == (2, 2, 5, 5)

    def test_minus_requires_containment(self):
        with pytest.raises(ValueError):
            CycloProduct([2]).minus(CycloProduct([3]))
        assert CycloProduct([2, 3]).minus(CycloProduct([3])).factors == (2,)

    def test_polynomial_expansion(self):
        den = CycloProduct([1, 2])
        expected = P({(1, 1): 1, (0, 0): -1}) * P({(2, 2): 1, (0, 0): -1})
        assert den.polynomial() == expected

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            CycloProduct([0])
        with pytest.raises(ValueError):
            CycloProduct([True])


class TestStringyRational:
    def test_full_cancellation(self):
        x = StringyRational(P({(1, 1): 1, (0, 0): -1}), (1,))
        assert x.is_polynomial and x.as_polynomial() == BivariatePolynomial.one()

    def test_single_factor_cancellation(self):
        t_plus = P({(1, 1): 1, (0, 0): 1})
        num = t_plus * t_plus * P({(1, 1): 1, (0, 0): -1})
        x = StringyRational(num, (2,))
        assert x.is_polynomial
        assert x.as_polynomial() == P({(1, 1): 1, (0, 0): 1})

    def test_cancellation_is_full_cyclotomic_factorization(self):
        # (1+t)^2 (t-1) / (t^2-1)^2 = 1/(t-1): the factors t^2 - 1 = Phi_1 Phi_2
        # cancel one cyclotomic factor at a time, not only as whole binomials.
        t_plus = P({(1, 1): 1, (0, 0): 1})
        num = t_plus * t_plus * P({(1, 1): 1, (0, 0): -1})
        x = StringyRational(num, (2, 2))
        assert x.denominator.factors == (1,)
        assert x.numerator == BivariatePolynomial.one()
        assert x == StringyRational(BivariatePolynomial.one(), (1,))

    def test_canonical_form_is_unique(self):
        a = StringyRational(BivariatePolynomial.one(), (1,))
        b = StringyRational(P({(1, 1): 1, (0, 0): 1}), (2,))
        assert a.numerator == b.numerator
        assert a.denominator.factors == b.denominator.factors == (1,)
        assert a == b

    def test_equal_values_hash_equal(self):
        a = StringyRational(BivariatePolynomial.one(), (1,))
        b = StringyRational(P({(1, 1): 1, (0, 0): 1}), (2,))
        assert hash(a) == hash(b)
        assert len({a, b, StringyRational(BivariatePolynomial.one(), (2,))}) == 2

    def test_non_divisible_stays(self):
        x = StringyRational(P({(1, 1): 1, (2, 2): -1}), (2,))
        assert x.denominator.factors == (2,)

    def test_as_polynomial_raises_on_true_fraction(self):
        x = StringyRational(BivariatePolynomial.one(), (1,))
        with pytest.raises(ValueError):
            x.as_polynomial()

    @given(term_dicts, st.lists(cyclo_m, max_size=3))
    def test_normalization_idempotent(self, num, dens):
        x = StringyRational(BivariatePolynomial(num), dens)
        again = StringyRational(x.numerator, x.denominator.factors)
        assert again.numerator == x.numerator
        assert again.denominator.factors == x.denominator.factors

    @given(term_dicts, term_dicts, st.lists(cyclo_m, max_size=2), st.lists(cyclo_m, max_size=2))
    def test_add_matches_oracle(self, n1, n2, d1, d2):
        x = StringyRational(BivariatePolynomial(n1), d1)
        y = StringyRational(BivariatePolynomial(n2), d2)
        s = x + y
        lhs = dict_mul(n1, _den_dict(d2))
        rhs = dict_mul(n2, _den_dict(d1))
        onum = {k: lhs.get(k, 0) + rhs.get(k, 0) for k in set(lhs) | set(rhs)}
        onum = {k: c for k, c in onum.items() if c}
        assert rational_equal(
            dict(s.numerator.items()), list(s.denominator.factors), onum, list(d1) + list(d2)
        )

    @given(term_dicts, term_dicts, st.lists(cyclo_m, max_size=2), st.lists(cyclo_m, max_size=2))
    def test_mul_matches_oracle(self, n1, n2, d1, d2):
        x = StringyRational(BivariatePolynomial(n1), d1)
        y = StringyRational(BivariatePolynomial(n2), d2)
        p = x * y
        assert rational_equal(
            dict(p.numerator.items()), list(p.denominator.factors),
            dict_mul(n1, n2), list(d1) + list(d2),
        )

    @given(term_dicts, st.lists(cyclo_m, max_size=3))
    def test_sub_roundtrip(self, num, dens):
        x = StringyRational(BivariatePolynomial(num), dens)
        zero = x - x
        assert zero == StringyRational(BivariatePolynomial.zero())
        assert (x + (-x)) == zero


def _den_dict(ms):
    out = {(0, 0): 1}
    for m in ms:
        out = dict_mul(out, {(m, m): 1, (0, 0): -1})
    return out


def _phi_multiplicity(num, k, cap):
    """How many times, up to cap, the oracle Phi_k divides num."""
    phi = cyclotomic(k)
    count = 0
    while count < cap:
        num = divide_by_t_poly(num, phi)
        if num is None:
            break
        count += 1
    return count


def _write_back(terms, dens):
    """The reduced denominator by the write-back rule applied to the full
    multiplicities, counted by the oracle."""
    left = {}
    for k in range(1, max(dens, default=0) + 1):
        e_k = sum(1 for m in dens if m % k == 0)
        if e_k:
            left[k] = e_k - _phi_multiplicity(terms, k, e_k)
    written = []
    while any(left.values()):
        m = max(k for k, e in left.items() if e)
        for d in range(1, m + 1):
            if m % d == 0 and left.get(d):
                left[d] -= 1
        written.append(m)
    return sorted(written)


rationals = st.tuples(term_dicts, st.lists(cyclo_m, max_size=3))


class TestCanonicalForm:
    @given(term_dicts, st.lists(cyclo_m, max_size=3), st.lists(cyclo_m, max_size=3), term_dicts)
    @settings(max_examples=80, deadline=None)
    def test_value_built_two_ways_is_identical(self, num, dens, extra, other):
        # N / D against N * prod(extra) / (D * prod(extra)), and against the
        # same value reached through a sum that cancels
        x = StringyRational(BivariatePolynomial(num), dens)
        thick = BivariatePolynomial(num) * CycloProduct(extra).polynomial()
        y = StringyRational(thick, list(dens) + list(extra))
        z = (x + StringyRational(BivariatePolynomial(other), extra)) - StringyRational(
            BivariatePolynomial(other), extra)
        for w in (y, z):
            assert w.numerator == x.numerator
            assert w.denominator.factors == x.denominator.factors

    @given(rationals, rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_sums_in_any_order_are_identical(self, a, b, c):
        a, b, c = (StringyRational(BivariatePolynomial(n), d) for n, d in (a, b, c))
        left = (a + b) + c
        for other in (c + (b + a), (a + c) + b,
                      StringyRational(*common_denominator_sum([(x.numerator, x.denominator)
                                                               for x in (b, c, a)]))):
            assert other.numerator == left.numerator
            assert other.denominator.factors == left.denominator.factors
            assert hash(other) == hash(left)

    @given(term_dicts, st.lists(st.integers(min_value=1, max_value=12), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_canonical_value_equals_input(self, num, dens):
        x = StringyRational(BivariatePolynomial(num), dens)
        assert rational_equal(dict(x.numerator.items()), list(x.denominator.factors), num, dens)

    @given(term_dicts, st.lists(st.integers(min_value=1, max_value=12), max_size=4),
           st.lists(st.integers(min_value=1, max_value=12), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_no_cyclotomic_factor_left(self, num, dens, cancelling):
        # Multiplying in factors of the denominator makes cancellation happen.
        # Afterwards, for every factor (uv)^m - 1 of the result, Phi_m divides
        # the numerator fewer times than the denominator.
        numerator = BivariatePolynomial(num) * CycloProduct(cancelling).polynomial()
        x = StringyRational(numerator, list(dens) + list(cancelling))
        factors = x.denominator.factors
        terms = dict(x.numerator.items())
        for m in set(factors):
            e_m = sum(1 for f in factors if f % m == 0)
            assert _phi_multiplicity(terms, m, e_m) < e_m

    @given(term_dicts,
           st.lists(st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=3)),
                    max_size=3),
           st.lists(st.integers(min_value=1, max_value=12), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_denominator_is_the_write_back_of_full_multiplicities(self, num, repeated, cancelling):
        # The reduction tests each Phi_k only as deep as the written-back
        # denominator can show.  The result must still be the write-back
        # rule applied to the full multiplicities, counted by the oracle:
        # r_k = min(e_k, times Phi_k divides), then repeatedly write the
        # largest k left and use up one Phi_d for every d | k.
        dens = [m for m, n in repeated for _ in range(n)][:6]
        numerator = BivariatePolynomial(num) * CycloProduct(cancelling).polynomial()
        x = StringyRational(numerator, dens)
        assert list(x.denominator.factors) == _write_back(dict(numerator.items()), dens)

    @given(term_dicts, st.lists(cyclo_m, max_size=3), st.lists(cyclo_m, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_same_value_without_cancelling(self, num, dens, extra):
        n = BivariatePolynomial(num)
        thick = (n * CycloProduct(extra).polynomial(), CycloProduct(list(dens) + list(extra)))
        assert same_value(thick, (n, CycloProduct(dens)))
        assert same_value((n, CycloProduct(dens)), thick)
        assert not same_value(thick, (n + BivariatePolynomial.monomial(1, 0), CycloProduct(dens)))

    def test_zero_has_empty_denominator(self):
        x = StringyRational(BivariatePolynomial.zero(), (2, 3))
        assert x.numerator.is_zero and not x.denominator

    def test_denominator_written_back_largest_order_first(self):
        # 1 / (Phi_2 Phi_3) needs Phi_1 for both t^2 - 1 and t^3 - 1
        t_minus = P({(1, 1): 1, (0, 0): -1})
        value = StringyRational(t_minus * t_minus, (2, 3))
        assert value.denominator.factors == (2, 3)
        assert value.numerator == t_minus * t_minus
        # Phi_1 Phi_2 Phi_3 Phi_6 is t^6 - 1 alone
        assert StringyRational(1, (6,)).denominator.factors == (6,)
        assert StringyRational(P({(1, 1): 1, (0, 0): 1}), (6, 2)).denominator.factors == (1, 6)

    def test_repeated_factors_cancel_to_their_multiplicity(self):
        # u (t - 1)^5 (t + 1)^3 / (t^2 - 1)^4 = u (t - 1) / (t + 1): Phi_1 cancels
        # four times and Phi_2 three, then Phi_1 returns for t^2 - 1
        t_minus, t_plus = P({(1, 1): 1, (0, 0): -1}), P({(1, 1): 1, (0, 0): 1})
        u = P({(1, 0): 1})
        value = StringyRational(u * _power(t_minus, 5) * _power(t_plus, 3), (2, 2, 2, 2))
        assert value.denominator.factors == (2,)
        assert value.numerator == u * t_minus * t_minus

    @given(st.dictionaries(st.integers(min_value=0, max_value=10), coeffs, min_size=1, max_size=6),
           st.lists(st.integers(min_value=1, max_value=8), max_size=4),
           st.lists(st.integers(min_value=1, max_value=8), max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_diagonal_cases_match_sympy_cancel(self, num, dens, cancelling):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")

        def expr(coeffs, factors):
            n = sum(c * t ** k for k, c in coeffs.items())
            d = sympy.prod([t ** m - 1 for m in factors])
            return n, d

        numerator = BivariatePolynomial.from_diagonal(num) * CycloProduct(cancelling).polynomial()
        x = StringyRational(numerator, list(dens) + list(cancelling))
        n_in, d_in = expr(_diagonal(numerator), list(dens) + list(cancelling))
        p, q = sympy.fraction(sympy.cancel(n_in / d_in))
        n_out, d_out = expr(_diagonal(x.numerator), x.denominator.factors)
        # the same value, and the reduced denominator is sympy's once the
        # cyclotomic factors added by the write-back are cancelled again
        assert sympy.expand(n_out * q - p * d_out) == 0
        reduced = sympy.quo(d_out, sympy.gcd(n_out, d_out), t)
        assert sympy.Poly(reduced, t).monic() == sympy.Poly(q, t).monic()


def _near_width(nbytes):
    # digits on either side of the largest one a slot of nbytes bytes holds
    return st.integers(min_value=-4, max_value=3).map(lambda r: 2 ** (8 * nbytes - 1) + r)


signed_coeffs = st.one_of(
    coeffs,
    st.tuples(st.integers(min_value=1, max_value=9).flatmap(_near_width), st.sampled_from([1, -1]))
    .map(lambda cs: cs[0] * cs[1]),
)


@st.composite
def kernel_dicts(draw, max_size=6):
    """Terms with negative and near-width coefficients, one of them in the
    top slot: the largest power of uv at the largest offset."""
    terms = draw(st.dictionaries(st.tuples(exponents, exponents), signed_coeffs, max_size=max_size))
    terms[(16, 8)] = draw(signed_coeffs)
    return terms


@st.composite
def sparse_dicts(draw):
    """Terms in rows (powers of uv) hundreds apart, at offsets far enough
    apart that each row's terms land in several rows of the output order:
    the packed value is read in several blocks."""
    rows = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4, unique=True))
    terms = {}
    for row in rows:
        for s in draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=3, unique=True)):
            n = 300 * row + draw(st.integers(min_value=0, max_value=3))
            terms[(n + s, n) if s >= 0 else (n, n - s)] = draw(signed_coeffs)
    return terms


@st.composite
def wide_dicts(draw):
    """Terms at offsets up to 1200 apart in a few rows, and maybe a second
    group 1000 rows up: the skew (up to 300 rows) outgrows the rows, so
    most blocks are read term by term."""
    terms = {}
    for base in draw(st.lists(st.sampled_from([0, 1000]), min_size=1, max_size=2, unique=True)):
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            n = base + draw(st.integers(min_value=0, max_value=4))
            s = draw(st.integers(min_value=-600, max_value=600))
            terms[(n + s, n) if s >= 0 else (n, n - s)] = draw(signed_coeffs)
    return terms


@pytest.fixture
def digit_reads(monkeypatch):
    """The number of slots of each read through ``exact_poly._digits``."""
    read = []
    real = exact_poly._digits

    def counting(data, nb):
        read.append(len(data) // nb)
        return real(data, nb)

    monkeypatch.setattr(exact_poly, "_digits", counting)
    return read


def _assert_round_trip(terms):
    poly = BivariatePolynomial(terms)
    unpacked = exact_poly._unpack(common_denominator_sum([(poly, ())])[0])
    assert unpacked == poly
    assert list(unpacked.items()) == poly.sorted_items()  # read back in output order


def _oracle_value(num, den, factors):
    """num * prod(factors) / prod(den) by the oracle's long division."""
    out = dict(num)
    for m in factors:
        out = dict_mul(out, cyclo_dict(m))
    for m in den:
        out, rem = long_divide_by_cyclo(out, m)
        assert not rem
    return out


merge_keys = st.tuples(st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=4),
                       st.lists(st.sampled_from([1, 2, 3, 5]), max_size=4))


@st.composite
def merge_terms(draw):
    """(num, factors, gains, lift) terms that share keys, with repeated
    factors and gains, lifts and zero numerators."""
    keys = draw(st.lists(merge_keys, min_size=1, max_size=4))
    return [(P(num), factors, gains, lift) for num, (factors, gains), lift
            in draw(st.lists(st.tuples(term_dicts, st.sampled_from(keys), st.integers(0, 3)), max_size=7))]


class TestMerge:
    @given(merge_terms())
    # the second term needs (uv)^2 - 1 eight times: the first's four
    # factors and its own four gains, past either key's own counts
    @example([(P({(0, 0): 1}), (2, 2, 2, 2), (), 0), (P({(1, 0): 1}), (), (2, 2, 2, 2), 0)])
    @settings(max_examples=100, deadline=None)
    def test_merge_matches_the_tuple_need_merge(self, terms):
        # the merge makes the packed value, degree bound and common
        # denominator of the level order with a tuple per need, and the
        # sum's value
        expected = StringyRational(0)
        for num, factors, gains, lift in terms:
            expected = expected + StringyRational(
                num * CycloProduct(gains).polynomial() * P({(lift, lift): (-1) ** lift}), factors)
        calls = []
        real_merge = exact_poly._merge
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact_poly, "_merge", lambda *args: calls.append(args) or real_merge(*args))
            num, den = common_denominator_sum(terms)
        assert StringyRational(num, den) == expected
        (packed, width, offsets), = calls
        assert (num.value, num.degree, den.factors) == merge_by_levels_tuples(packed, width, offsets)


class TestPackedKernel:
    # The packed arithmetic against the dict oracles, on inputs that stress
    # the layout: negative digits, the top slot, digits next to the slot
    # width, and quotients that outgrow the width of the sum.

    @given(kernel_dicts(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_pack_round_trip(self, terms):
        _assert_round_trip(terms)

    @given(st.one_of(sparse_dicts(), wide_dicts()))
    @settings(max_examples=60, deadline=None)
    def test_sparse_pack_round_trip(self, terms):
        _assert_round_trip(terms)

    @pytest.mark.parametrize("size", [exact_poly._FEW_TERMS, exact_poly._FEW_TERMS + 1])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_pack_either_side_of_the_few_terms_rule(self, size, data):
        # a table of at most _FEW_TERMS terms is packed as a sum of shifted
        # digits, a larger one through bytes: both read back, and the other
        # way gives the same value
        terms = data.draw(st.dictionaries(st.tuples(exponents, exponents), signed_coeffs,
                                          min_size=size, max_size=size))
        _assert_round_trip(terms)
        packed = common_denominator_sum([(P(terms), ())])[0].value
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact_poly, "_FEW_TERMS", size - 1 if size <= exact_poly._FEW_TERMS else size)
            assert common_denominator_sum([(P(terms), ())])[0].value == packed
            _assert_round_trip(terms)

    def test_sparse_values_read_only_their_rows(self, digit_reads):
        # 1 + (uv)^(2^20) packs 2^20 + 1 slots; the zero rows between its
        # two terms are skipped, not read
        poly = P({(0, 0): 1, (2 ** 20, 2 ** 20): 1})
        packed = common_denominator_sum([(poly, ())])[0]
        assert (packed.degree + 1) * len(packed.offsets) == 2 ** 20 + 1
        unpacked = exact_poly._unpack(packed)
        assert unpacked == poly and unpacked.sorted_items() == [((0, 0), 1), ((2 ** 20, 2 ** 20), 1)]
        assert len(digit_reads) == 2 and sum(digit_reads) <= 4

    @pytest.mark.parametrize("terms", [
        # 1 + the sum of u^k + v^k for k <= 2^12: 8193 offsets in one row,
        # a skew of 2048 rows
        {(0, 0): 1, **{(k, 0): 1 for k in range(1, 2 ** 12 + 1)}, **{(0, k): 1 for k in range(1, 2 ** 12 + 1)}},
        # offsets -800, 0 and 800 (a skew of 400 rows) every 150 rows up to
        # row 29850: one block with all but 600 of its 89,553 slots zero
        {pair: 1 for n in range(0, 30000, 150) for pair in [(n + 800, n), (n, n), (n, n + 800)]},
    ], ids=["one-row", "rows-150-apart"])
    def test_wide_skews_read_only_their_terms(self, digit_reads, terms):
        # the skewed order of a block this sparse beside its skew would
        # span far more positions than it has terms: it is read term by term
        poly = P(terms)
        packed = common_denominator_sum([(poly, ())])[0]
        tracemalloc.start()
        try:
            unpacked = exact_poly._unpack(packed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert unpacked == poly and list(unpacked.items()) == poly.sorted_items()
        assert sum(digit_reads) == len(terms)
        assert peak < 2 ** 23  # 8 MB; the skewed order of the one-row case holds 16.8 million positions

    @pytest.mark.parametrize("nb", range(1, 10))
    def test_digits_in_either_byte_order(self, monkeypatch, nb):
        # the widened slots are cast in the host's byte order: on a
        # big-endian host each slot is written most significant byte first
        rng = random.Random(nb)
        digits = [rng.randrange(-2 ** (8 * nb - 1), 2 ** (8 * nb - 1)) for _ in range(50)]
        digits += [-2 ** (8 * nb - 1), 2 ** (8 * nb - 1) - 1, -1, 0, 1]
        data = b"".join(d.to_bytes(nb, "little", signed=True) for d in digits)
        assert exact_poly._digits(data, nb) == digits
        monkeypatch.setattr(exact_poly, "sys", SimpleNamespace(byteorder="big"))
        if nb <= 8:
            w = 1 << (nb - 1).bit_length()
            swapped = [int.from_bytes(d.to_bytes(w, "big", signed=True), sys.byteorder, signed=True)
                       for d in digits]
            assert exact_poly._digits(data, nb) == swapped
        else:
            assert exact_poly._digits(data, nb) == digits

    @given(st.lists(st.tuples(kernel_dicts(max_size=4), st.lists(cyclo_m, max_size=3),
                              st.lists(cyclo_m, max_size=2), st.integers(min_value=0, max_value=3)),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_sum_matches_oracle(self, terms):
        packed, common = common_denominator_sum([(P(n), den, gains, lift) for n, den, gains, lift in terms])
        largest = {}
        for _, den, _, _ in terms:
            for m in set(den):
                largest[m] = max(largest.get(m, 0), den.count(m))
        assert common.factors == tuple(sorted(m for m, n in largest.items() for _ in range(n)))
        expected = {}
        for n, den, gains, lift in terms:
            lacking = CycloProduct(common).minus(CycloProduct(den))
            lifted = dict_mul(n, {(lift, lift): -1 if lift % 2 else 1})  # times (-uv)^lift
            expected = dict_add(expected, _oracle_value(lifted, (), list(lacking) + gains))
        assert dict(exact_poly._unpack(packed).items()) == expected

    def test_factors_checked_once_in_the_order_met(self):
        one = BivariatePolynomial.one()
        with pytest.raises(ValueError, match="got 0$"):
            common_denominator_sum([(one, (2, 3)), (one, (2, 0), (-1,))])
        with pytest.raises(ValueError, match="got True$"):  # equal to 1, which passed, but no int
            common_denominator_sum([(one, (1,)), (one, (1, True))])

    @given(kernel_dicts(max_size=4), st.lists(st.integers(min_value=1, max_value=12), max_size=4),
           st.lists(st.integers(min_value=1, max_value=12), max_size=3))
    @example({(1, 1): 1, (0, 0): 2}, [1, 3], [1, 6])  # Phi_1 divides twice of three
    @settings(max_examples=60, deadline=None)
    def test_reduce_matches_oracle(self, terms, dens, cancelling):
        numerator = _oracle_value(terms, (), cancelling)
        dens = dens + cancelling
        x = StringyRational(P(numerator), dens)
        assert list(x.denominator.factors) == _write_back(numerator, dens)
        assert dict(x.numerator.items()) == _oracle_value(numerator, dens, x.denominator.factors)

    @given(kernel_dicts(max_size=4), st.integers(min_value=1, max_value=5),
           st.integers(min_value=2, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_growth_past_the_sum_width(self, q, j, L):
        # q (t^L - 1)^j / (t - 1)^j = q (1 + t + ... + t^(L-1))^j: the
        # quotient's digits grow like L^(j-1) past the width of the input
        numerator = _oracle_value(q, (), [L] * j)
        x = StringyRational(P(numerator), [1] * j)
        assert not x.denominator
        assert dict(x.numerator.items()) == _oracle_value(numerator, [1] * j, ())

    def test_growth_widens(self, monkeypatch):
        widened = []
        real = exact_poly._relayout

        def counting(p, width, offsets):
            widened.append((p.width, width))
            return real(p, width, offsets)

        monkeypatch.setattr(exact_poly, "_relayout", counting)
        numerator = _oracle_value({(1, 0): 1, (0, 0): -1}, (), [40] * 5)
        x = StringyRational(P(numerator), [1] * 5)
        assert widened and all(new > old for old, new in widened)
        assert dict(x.numerator.items()) == _oracle_value(numerator, [1] * 5, ())

    def test_packs_past_the_budget_are_refused(self):
        # a slot per power of uv up to the degree: past the budget the
        # library refuses before it allocates, not after
        top = exact_poly.PACKED_BIT_BUDGET  # slots are at least 8 bits wide
        far = P({(top, top): 1, (0, 0): -1})
        near = common_denominator_sum([(P({(top // 64, top // 64): 1, (0, 0): -1}), ())])[0]
        started = time.perf_counter()
        with pytest.raises(PackedSizeError):
            far.exact_cyclo_quotient(top)
        with pytest.raises(PackedSizeError):
            StringyRational(far, (2,))
        with pytest.raises(PackedSizeError):
            common_denominator_sum([(far, (2,)), (BivariatePolynomial.one(), (3,))])
        with pytest.raises(PackedSizeError):  # widening 8-bit slots to 512
            exact_poly._relayout(near, 512, near.offsets)
        assert time.perf_counter() - started < 0.5

    def test_uv_minus_one_cancels_without_level_tests(self, monkeypatch):
        # q prod (t^m - 1) / prod (t^m - 1) over 2^18 powers of uv: Phi_1
        # divides eight times, and the quotients by (t - 1)^L of the level
        # tests would need slots of about 16 + 17 L bits
        deeper = []
        real = exact_poly._deeper

        def counting(x, k, primes, limit):
            deeper.append((k, limit))
            return real(x, k, primes, limit)

        monkeypatch.setattr(exact_poly, "_deeper", counting)
        ms = [32749, 32719, 32717, 32713, 32707, 32693, 32687, 32653]
        q = P({(0, 0): 1, **{(k, 0): 1 for k in range(1, 5)}, **{(0, k): 1 for k in range(1, 5)}})
        numerator = q
        for m in ms:
            numerator = numerator * BivariatePolynomial.cyclo_factor(m)
        started = time.perf_counter()
        x = StringyRational(numerator, ms)
        assert time.perf_counter() - started < 0.5
        assert x.is_polynomial and x.numerator == q
        assert sorted(deeper) == [(m, 0) for m in sorted(ms)]  # none for Phi_1

    @given(kernel_dicts(max_size=6), cyclo_m, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_quotient_matches_long_division(self, terms, m, divisible):
        if divisible:
            terms = dict_mul(terms, cyclo_dict(m))
        q = P(terms).exact_cyclo_quotient(m)
        oq, orem = long_divide_by_cyclo(terms, m)
        if orem:
            assert q is None
        else:
            assert q is not None and dict(q.items()) == oq


class TestSeries:
    def test_biseries_horizon_is_total_degree(self):
        s = TruncatedBiseries(6, {(3, 3): 1})
        assert s.coefficient(3, 3) == 1
        assert s.coefficient(0, 6) == 0
        with pytest.raises(ValueError):
            s.coefficient(4, 3)
        with pytest.raises(ValueError):
            TruncatedBiseries(6, {(4, 3): 1})

    @given(term_dicts, st.lists(cyclo_m, max_size=3))
    def test_expand_matches_naive_oracle(self, num, dens):
        x = StringyRational(BivariatePolynomial(num), dens)
        horizon = 14
        got = dict(expand_rational(x, horizon).items())
        want = series_expand(num, dens, horizon)
        assert got == want

    @given(term_dicts, st.lists(cyclo_m, max_size=3))
    def test_expansion_times_denominator_is_numerator(self, num, dens):
        x = StringyRational(BivariatePolynomial(num), dens)
        horizon = 14
        series = expand_rational(x, horizon)
        assert binomial_series_check(
            dict(series.items()), list(x.denominator.factors),
            dict(x.numerator.items()), horizon,
        )

    @given(term_dicts, st.lists(cyclo_m, max_size=3))
    def test_equal_rationals_expand_identically(self, num, dens):
        x = StringyRational(BivariatePolynomial(num), dens)
        thickened = StringyRational(
            x.numerator * BivariatePolynomial.cyclo_factor(3), list(x.denominator.factors) + [3]
        )
        assert x == thickened
        assert dict(expand_rational(x, 12).items()) == dict(expand_rational(thickened, 12).items())

    @given(term_dicts, st.lists(cyclo_m, max_size=2), term_dicts)
    @settings(max_examples=50)
    def test_expand_is_ring_homomorphism(self, n1, dens, n2):
        x = StringyRational(BivariatePolynomial(n1), dens)
        p = BivariatePolynomial(n2)
        horizon = 12
        via_rational = expand_rational(x * StringyRational(p), horizon)
        via_series = truncate_total_degree(dict_mul(dict(expand_rational(x, horizon).items()), n2), horizon)
        assert dict(via_rational.items()) == via_series



def _pair(k, s):
    """The exponent pair at index k = min(i, j) of diagonal offset s = i - j."""
    return (k + s, k) if s >= 0 else (k, k - s)


# Terms on both sides of the diagonal, often beyond the horizon (k up to 90
# alone reaches total degree 180).
deep_terms = st.dictionaries(
    st.builds(_pair, st.integers(min_value=0, max_value=90), st.integers(min_value=-20, max_value=20)),
    coeffs, max_size=8,
)
deep_dens = st.lists(st.integers(min_value=1, max_value=12), max_size=5)


class TestDeepExpansion:
    @given(deep_terms, deep_dens, st.integers(min_value=0, max_value=150))
    @example({(0, 0): 1, (3, 1): -2, (0, 9): 4}, [1, 2, 12, 12, 7], 150)
    @example({(0, 0): 1, (3, 1): -2, (0, 9): 4}, [1, 2, 12, 12, 7], 149)
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, num, dens, horizon):
        x = StringyRational(BivariatePolynomial(num), dens)
        got = expand_rational(x, horizon)
        assert got.horizon == horizon
        want = series_expand(dict(x.numerator.items()), list(x.denominator.factors), horizon)
        assert dict(got.items()) == want

    @given(deep_terms, deep_dens, st.integers(min_value=0, max_value=150))
    @settings(max_examples=60, deadline=None)
    def test_times_denominator_is_numerator(self, num, dens, horizon):
        x = StringyRational(BivariatePolynomial(num), dens)
        series = expand_rational(x, horizon)
        assert binomial_series_check(
            dict(series.items()), list(x.denominator.factors),
            dict(x.numerator.items()), horizon,
        )

    def test_horizon_zero(self):
        x = StringyRational(P({(0, 0): 5, (1, 0): 2, (1, 1): 3}), (1, 2))
        assert dict(expand_rational(x, 0).items()) == {(0, 0): 5}

    def test_zero_numerator(self):
        x = StringyRational(BivariatePolynomial.zero(), (3, 4))
        assert dict(expand_rational(x, 40).items()) == {}

    def test_class_with_top_zero(self):
        # offsets 5 and -6 at horizons 5 and 7 leave one slot, k = 0, in their class
        x = StringyRational(P({(5, 0): 2, (0, 6): -3, (0, 0): 1}), (1,))
        assert dict(expand_rational(x, 5).items()) == {
            (0, 0): -1, (1, 1): -1, (2, 2): -1, (5, 0): -2,
        }
        assert dict(expand_rational(x, 7).items()) == {
            (0, 0): -1, (1, 1): -1, (2, 2): -1, (3, 3): -1, (5, 0): -2, (6, 1): -2, (0, 6): 3,
        }

    def test_deep_expansion_budget(self):
        # Guards against a quadratic expansion: convolving with the inverse
        # series takes seconds here, the stride recurrence milliseconds.
        rng = random.Random(3200)
        num = {}
        while len(num) < 180:
            num[_pair(rng.randrange(40), rng.randrange(-6, 7))] = rng.choice([-3, -2, -1, 1, 2, 3])
        x = StringyRational(BivariatePolynomial(num), [3, 3, 4, 4, 5])
        assert x.denominator.factors == (3, 3, 4, 4, 5)
        horizon = 3200
        started = time.perf_counter()
        series = expand_rational(x, horizon)
        elapsed = time.perf_counter() - started
        assert binomial_series_check(
            dict(series.items()), list(x.denominator.factors), dict(x.numerator.items()), horizon,
        )
        assert elapsed < 1.0, f"expansion to horizon {horizon} took {elapsed:.3f}s"


def _in_output_order(series):
    """The series' terms as a dict, after checking that it hands them out
    ordered by i + j, then j, then i."""
    items = list(series.items())
    assert items == sorted(items, key=lambda item: (item[0][0] + item[0][1], item[0][1], item[0][0]))
    assert list(series.sorted_items()) == items
    return dict(items)


class TestOutputOrder:
    @given(deep_terms, deep_dens, st.integers(min_value=0, max_value=150))
    # offsets -3 to 2 of both parities, at an odd and an even horizon
    @example({(0, 3): 1, (0, 2): -2, (1, 0): 5, (4, 2): 1, (1, 1): -1, (7, 8): 2}, [1, 2], 31)
    @example({(0, 3): 1, (0, 2): -2, (1, 0): 5, (4, 2): 1, (1, 1): -1, (7, 8): 2}, [1, 2], 30)
    @example({(40, 40): 3, (50, 41): -1}, [2, 3], 60)  # no term inside the horizon
    @example({(0, 0): 1, (3, 0): 2, (0, 3): -1, (5, 1): 4, (1, 6): 1, (9, 9): 7}, [], 9)  # a polynomial, truncated
    @settings(max_examples=80, deadline=None)
    def test_expansion_is_in_output_order(self, num, dens, horizon):
        x = StringyRational(BivariatePolynomial(num), dens)
        got = expand_rational(x, horizon)
        want = series_expand(dict(x.numerator.items()), list(x.denominator.factors), horizon)
        assert _in_output_order(got) == want

    @given(term_dicts, st.randoms(use_true_random=False))
    def test_constructor_puts_terms_in_output_order(self, terms, rng):
        shuffled = list(terms.items())
        rng.shuffle(shuffled)
        assert _in_output_order(TruncatedBiseries(16, shuffled)) == terms

    @given(deep_terms, deep_dens, st.integers(min_value=0, max_value=150))
    @settings(max_examples=60, deadline=None)
    def test_terms_inside_the_horizon_are_a_prefix(self, num, dens, horizon):
        # a numerator read back in output order is cut at the first term
        # past the horizon; any other is scanned whole, with the same terms
        x = StringyRational(BivariatePolynomial(num), dens)
        want = [(pair, c) for pair, c in x.numerator.sorted_items() if sum(pair) <= horizon]
        if x.denominator:  # the numerator is read back in output order
            assert exact_poly._inside(x.numerator, horizon) == want
        unordered = BivariatePolynomial(dict(x.numerator.items()))
        assert sorted(exact_poly._inside(unordered, horizon)) == sorted(want)

    def test_series_size_counts_the_skewed_layout(self):
        # offsets 0 and 9 to horizon 10: rows 0-5 of two slots, less the odd
        # offset's slot in the last row (degree 11); its column starts four
        # rows down, so 4 of the 11 positions hold no term
        x = StringyRational(P({(0, 0): 1, (9, 0): 1}), (1,))
        assert exact_poly.series_size(x, 10) == 11
        assert exact_poly.series_size(x, 11) == 12
        assert exact_poly.series_size(StringyRational(P({(9, 0): 1}), (1,)), 10) == 1


def _report(series, d):
    """check_nonnegativity's violations and notes, or the error it raises."""
    try:
        report = check_nonnegativity(series, d)
    except ValueError as exc:
        return str(exc)
    return report.violations, report.beyond_notes


class TestFlatSeries:
    """An expanded rational value stays on its skewed flat list; a series
    built from its terms by the public constructor is sparse.  The two must
    be indistinguishable through every reader."""

    @given(deep_terms, deep_dens, st.integers(min_value=0, max_value=150))
    # offsets of both parities at an even and an odd horizon
    @example({(0, 3): 1, (0, 2): -2, (1, 0): 5, (4, 2): 1, (1, 1): -1, (7, 8): 2}, [1, 2], 30)
    @example({(0, 3): 1, (0, 2): -2, (1, 0): 5, (4, 2): 1, (1, 1): -1, (7, 8): 2}, [1, 2], 31)
    @example({(9, 0): 3, (0, 12): -1}, [2], 8)  # the horizon below the least |s|: an empty layout
    @example({}, [3, 4], 40)  # the zero numerator: an empty layout
    @example({(0, 0): 1, (3, 0): 2, (0, 3): -1, (5, 1): 4, (9, 9): 7}, [], 9)  # a polynomial, truncated
    @example({(0, 0): -(10 ** 5000), (2, 1): -1, (1, 1): 1}, [1, 3], 12)  # past the digit limit
    @example({(0, 0): -1, (1, 0): 1}, [1], 6)  # units, at (0, 0) too
    @settings(max_examples=60, deadline=None)
    def test_flat_and_sparse_agree(self, num, dens, horizon):
        x = StringyRational(BivariatePolynomial(num), dens)
        flat = expand_rational(x, horizon)
        assert (flat._flat is not None) == bool(x.denominator)
        want = series_expand(dict(x.numerator.items()), list(x.denominator.factors), horizon)
        sparse = TruncatedBiseries(horizon, want)
        assert sparse._flat is None
        # the readers that do not build the term map come first
        for render in (polynomial_text, polynomial_latex):
            assert render(flat) == render(sparse)
        for continues in (False, True):
            assert series_text(flat, continues) == series_text(sparse, continues)
            assert series_latex(flat, continues) == series_latex(sparse, continues)
        for d in sorted({0, 1, horizon // 2, horizon - 1, horizon, horizon + 1} - {-1}):
            assert _report(flat, d) == _report(sparse, d)
        assert list(flat.items()) == list(sparse.items())
        assert list(flat.sorted_items()) == list(sparse.sorted_items())
        for i in range(horizon + 1):
            for j in range(horizon + 1 - i):
                assert flat.coefficient(i, j) == sparse.coefficient(i, j)
        with pytest.raises(ValueError):
            flat.coefficient(horizon + 1, 0)
        assert repr(flat) == repr(sparse)
        assert flat == sparse and sparse == flat
        assert hash(flat) == hash(sparse)
        assert flat != TruncatedBiseries(horizon + 1, want) != flat

    def test_layout_positions_hold_their_pairs(self):
        # offsets 0 and 9 to horizon 10: the odd column starts four rows
        # down and loses its slot in the last row
        layout = exact_poly._skewed_layout({0, 9}, 10)
        assert layout == exact_poly._Layout((0, 9), 0, 11, 10)
        pairs = layout.pairs()
        assert pairs == [(0, 0), None, (1, 1), None, (2, 2), None, (3, 3), None,
                         (4, 4), (9, 0), (5, 5)]
        assert all(layout.pair(at) == pair for at, pair in enumerate(pairs) if pair)


class TestJsonInts:
    def test_small_ints_stay_ints(self):
        assert encode_json_int(42) == 42
        assert encode_json_int(-(2 ** 63)) == -(2 ** 63)

    def test_big_ints_become_strings(self):
        big = 2 ** 63 + 1
        assert encode_json_int(big) == str(big)
        assert encode_json_int(-big) == str(-big)

    @given(st.integers(min_value=-(10 ** 30), max_value=10 ** 30))
    def test_round_trip(self, n):
        assert decode_json_int(encode_json_int(n)) == n

    def test_decode_rejects_junk(self):
        with pytest.raises(ValueError):
            decode_json_int("12.5")
        with pytest.raises(ValueError):
            decode_json_int(True)
        with pytest.raises(ValueError):
            decode_json_int(1.5)

    def test_decimal_strings_past_the_digit_limit_round_trip(self):
        digits = "9" * 10000
        n = decode_json_int(digits)
        assert n == 10 ** 10000 - 1
        assert encode_json_int(n) == digits
        assert encode_json_int(-n) == "-" + digits
        assert decode_json_int("-" + digits) == -n

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=30, deadline=None)
    def test_decimal_str_matches_str(self, exponent):
        n = 7 ** exponent + exponent
        assert decimal_str(n) == str(n)  # 7^3000 has 2536 digits, within str's default limit
        assert decimal_str(-n) == "-" + decimal_str(n)

    def test_reprs_past_the_digit_limit(self):
        big = 10 ** 5000
        digits = "1" + "0" * 5000
        assert digits in repr(StringyRational(BivariatePolynomial({(0, 0): big}), (2,)))
        assert digits in repr(TruncatedBiseries(3, {(1, 1): big}))

    def test_decode_error_truncates_the_value(self):
        with pytest.raises(ValueError) as info:
            decode_json_int("x" * 5000)
        assert len(str(info.value)) < 100


class TestIntegerOnly:
    def test_no_floats_in_the_package(self):
        # the computational path is integer arithmetic: no float literal,
        # no true division, no float() anywhere in the package source
        found = []
        for path in sorted(Path(exact_poly.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                    found.append((path.name, node.lineno, repr(node.value)))
                elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    found.append((path.name, node.lineno, "/"))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                    found.append((path.name, node.lineno, "float()"))
        assert found == []

    def test_no_dead_names_in_the_package(self):
        # every import, and every module-level private function, class or
        # assignment, is read somewhere in the package: a helper that loses
        # its only caller goes with it
        defined, read = [], set()
        for path in sorted(Path(exact_poly.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    names = []
                defined += [(path.name, node.lineno, name) for name in names
                            if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                    defined += [(path.name, node.lineno, (alias.asname or alias.name).split(".")[0])
                                for alias in node.names]
                elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)  # a name listed in __all__
        assert [entry for entry in defined if entry[2] not in read] == []
