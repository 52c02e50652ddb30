"""Every public integer argument goes through ``validation.checked_int``:
a bool, a float or a value below the bound raises a ValueError that names
the argument, and the bound itself is accepted."""

import re

import pytest

from stringy import (
    BivariatePolynomial,
    Component,
    CycloProduct,
    HodgeDelignePolynomial,
    HodgeDiamond,
    ResolutionConfig,
    StringyRational,
    TruncatedBiseries,
    blowup,
    check_duality,
    check_nonnegativity,
    correction_factor_series,
    diamond_from_polynomial,
    expand_rational,
    generalized_stringy_hodge_numbers,
    is_polynomial,
    projective_space,
    validate_smooth_projective,
)
from stringy.exact_poly import common_denominator_sum
from stringy.validation import checked_int

ONE = BivariatePolynomial.one()
POINT = HodgeDelignePolynomial(ONE)

# (what the message names, a call taking the value, the least accepted value;
# None: no bound, only the type is checked)
GUARDED = {
    "HodgeDelignePolynomial.claimed_dimension":
        ("claimed dimension", lambda n: HodgeDelignePolynomial(ONE, n), 0),
    "projective_space": ("projective-space dimension", projective_space, 0),
    "blowup.codim": ("blowup codimension", lambda n: blowup(5, POINT, n, projective_space(5)), 2),
    "blowup.ambient_dim": ("ambient dimension", lambda n: blowup(n, POINT, 2, projective_space(2)), 2),
    "validate_smooth_projective": ("dimension", lambda n: validate_smooth_projective(POINT, n), 0),
    "HodgeDiamond.d": ("dimension", lambda n: HodgeDiamond(n, {}), 0),
    "HodgeDiamond.entry": ("entry at (0,0)", lambda n: HodgeDiamond(0, {(0, 0): n}), None),
    "diamond_from_polynomial": ("dimension", lambda n: diamond_from_polynomial(ONE, n), 0),
    "check_duality": ("dimension", lambda n: check_duality(StringyRational(1), n), 0),
    "is_polynomial": ("dimension", lambda n: is_polynomial(StringyRational(1), n), 0),
    "generalized_stringy_hodge_numbers":
        ("dimension", lambda n: generalized_stringy_hodge_numbers(TruncatedBiseries(4, {(0, 0): 1}), n), 0),
    "check_nonnegativity": ("dimension", lambda n: check_nonnegativity(TruncatedBiseries(4), n), 0),
    "correction_factor_series.a": ("discrepancy", lambda n: correction_factor_series(n, 3), 0),
    "correction_factor_series.horizon": ("horizon", lambda n: correction_factor_series(1, n), 0),
    "BivariatePolynomial.exact_cyclo_quotient":
        ("cyclotomic-product exponent", ONE.exact_cyclo_quotient, 1),
    "CycloProduct": ("denominator factor", lambda n: CycloProduct([2, n]), 1),
    "common_denominator_sum.factors": ("denominator factor", lambda n: common_denominator_sum([(ONE, [2, n])]), 1),
    "common_denominator_sum.lift": ("lift", lambda n: common_denominator_sum([(ONE, [2], [], n)]), 0),
    "common_denominator_sum.lift_of_zero":
        ("lift", lambda n: common_denominator_sum([(BivariatePolynomial.zero(), [2], [], n)]), 0),
    "TruncatedBiseries": ("horizon", TruncatedBiseries, 0),
    "expand_rational": ("horizon", lambda n: expand_rational(StringyRational(1, (2,)), n), 0),
    "ResolutionConfig.dimension":
        ("dimension", lambda n: ResolutionConfig(n, projective_space(3), [Component("E", 1)], "closed", {}), 1),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_guarded_integer_arguments(name):
    what, call, least = GUARDED[name]
    bad = [True, 1.0] + ([] if least is None else [least - 1])
    for value in bad:
        with pytest.raises(ValueError, match=re.escape(f"{what} must be ")):
            call(value)
    call(1 if least is None else least)


def test_checked_int_wording():
    assert checked_int(0, "n") == 0 and checked_int(-3, "n", None) == -3
    for least, bound in [(0, "a nonnegative int"), (1, "a positive int"), (None, "an int"),
                         (4, "an int >= 4")]:
        with pytest.raises(ValueError, match=re.escape(f"n must be {bound}, got False")):
            checked_int(False, "n", least)
    # an int past Python's 4300-digit str limit is still shown in full
    with pytest.raises(ValueError, match="got -1" + "0" * 5000 + "$"):
        checked_int(-10 ** 5000, "n")
