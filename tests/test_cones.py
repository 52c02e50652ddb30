"""A geometric corpus: projective cones over smooth Fermat hypersurfaces.

The cone over Y of degree k <= N in P^N has one isolated singularity, and
its configs come from a variety (``oracles.fermat_cone_config``), so the
paper's statements must hold on them: strict validity, the functional
equation, nonnegativity in the proved range and the coefficient
decomposition with nonnegative implied dimensions.
"""

import json
from fractions import Fraction

import pytest

from stringy import check_duality, check_nonnegativity, compute, decompose_coefficients, validate
from stringy.cli import main
from stringy.resolution import load_config

from oracles import exact_fraction_eval, fermat_cone_config, fermat_hodge_deligne

CONES = [(3, 3), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4)]


def test_fermat_hodge_numbers():
    quartic_k3 = fermat_hodge_deligne(3, 4)
    assert quartic_k3 == {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
    assert fermat_hodge_deligne(3, 3)[(1, 1)] == 7  # the cubic surface: P^2 blown up in 6 points
    assert fermat_hodge_deligne(3, 2)[(1, 1)] == 2  # the quadric surface P^1 x P^1
    assert fermat_hodge_deligne(4, 3)[(2, 1)] == -5  # the cubic threefold: h^{2,1} = 5


@pytest.mark.parametrize("N,k", CONES)
def test_cone_verdicts(N, k):
    cfg = load_config(fermat_cone_config(N, k))
    assert validate(cfg, "strict").findings == ()
    result = compute(cfg)
    assert result.agree
    assert check_duality(result.e_open, N).passed
    nonneg = check_nonnegativity(result.series, N)
    assert nonneg.passed
    if (N, k) == (5, 4):  # the range bound is sharp: b_{5,5} < 0 just past it
        assert (5, 5, -141) in nonneg.beyond_notes
    pairs = [(i, j) for i in range(N + 1) for j in range(N + 1 - i)]
    decomposition = decompose_coefficients(cfg, pairs)
    assert decomposition.rejected == ()
    assert len(decomposition.rows) == len(pairs)
    for row in decomposition.rows:
        assert row.direct == row.decomposed
        assert row.implied_hodge_dim >= 0 and not row.flagged


@pytest.mark.parametrize("N,k", CONES)
def test_cone_value_at_a_rational_point(N, k):
    # E_st = H(Y) (uv + (uv - 1)/((uv)^(a+1) - 1)), a = N - k
    e_st = compute(load_config(fermat_cone_config(N, k))).e_open
    u, v = Fraction(2, 3), Fraction(5, 7)
    t = u * v
    fermat = sum(c * u ** i * v ** j for (i, j), c in fermat_hodge_deligne(N, k).items())
    expected = fermat * (t + (t - 1) / (t ** (N - k + 1) - 1))
    assert exact_fraction_eval(dict(e_st.numerator.items()), list(e_st.denominator.factors), u, v) == expected


def test_cone_note_beyond_the_range_on_the_command_line(tmp_path, capsys):
    path = tmp_path / "cone_5_4.json"
    path.write_text(json.dumps(fermat_cone_config(5, 4)), encoding="utf-8")
    assert main(["check", str(path), "--duality", "--nonneg", "--strict"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["duality: PASS", "nonneg: PASS (i+j <= 5)"]
    assert "note: b_{5,5} = -141 beyond range" in lines
