import json
import random
from pathlib import Path

import pytest

from stringy import (
    BivariatePolynomial,
    Component,
    HodgeDelignePolynomial,
    ResolutionConfig,
    hodge,
    projective_space,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def e6_path():
    return FIXTURES / "e6_fixture.json"


@pytest.fixture(scope="session")
def node_path():
    return FIXTURES / "node_a1.json"


@pytest.fixture
def diamond_walks(monkeypatch):
    """The dimension of each ``hodge._diamond_violation`` walk, in call order."""
    walks = []
    walk = hodge._diamond_violation

    def counting(entries, d):
        walks.append(d)
        return walk(entries, d)

    monkeypatch.setattr(hodge, "_diamond_violation", counting)
    return walks


def load_golden(name):
    with open(GOLDEN / name, encoding="utf-8") as fh:
        return json.load(fh)


def poly(terms):
    return BivariatePolynomial(terms)


def hd(terms, dim=None):
    return HodgeDelignePolynomial(BivariatePolynomial(terms), claimed_dimension=dim)


def node_config():
    """Threefold with one A1 node, blown up once: a = 1, H(D) = (1+uv)^2."""
    ambient = hd({(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}, 3)
    divisor = hd({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    return ResolutionConfig(
        3,
        ambient,
        [Component("E1", 1)],
        "closed",
        {("E1",): divisor},
        singular_locus=hd({(0, 0): 1}),
    )


def e6_config():
    ambient = hd(
        {(0, 0): 1, (1, 1): 8, (2, 2): 10, (3, 3): 2, (4, 4): 2,
         (5, 5): 2, (6, 6): 1, (7, 7): 2},
        3,
    )
    divisor = hd(
        {(0, 0): 1, (1, 1): 1, (2, 2): 3, (3, 3): 1, (4, 4): 2,
         (5, 5): 2, (6, 6): 1, (7, 7): 2}
    )
    return ResolutionConfig(
        3,
        ambient,
        [Component("E", 6)],
        "closed",
        {("E",): divisor},
        singular_locus=hd({(0, 0): 1}),
    )


# --- randomized config builders (seeded, not hypothesis: the acceptance
# criteria pin exact corpus sizes and wall-clock budgets) ---

LABELS = ("E1", "E2", "E3", "E4", "E5", "E6")


def random_symmetric_terms(rng, max_exp, max_terms, max_coeff=9):
    """u<->v symmetric sparse table built from orbit sums."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_exp)
        j = rng.randint(0, max_exp)
        c = rng.choice([x for x in range(-max_coeff, max_coeff + 1) if x])
        for pair in {(i, j), (j, i)}:
            terms[pair] = terms.get(pair, 0) + c
    return {k: c for k, c in terms.items() if c}


def random_lenient_config(rng):
    """Arbitrary lattice-consistent table: symmetric strata, a >= 0, any convention."""
    d = rng.randint(1, 6)
    n = rng.randint(0, 6)
    labels = LABELS[:n]
    components = [Component(lbl, rng.randint(0, 5)) for lbl in labels]
    ambient = hd(random_symmetric_terms(rng, d, 5) or {(0, 0): 1}, d)
    strata = {}
    for size in range(1, n + 1):
        for _ in range(rng.randint(0, 2)):
            key = tuple(sorted(rng.sample(labels, size)))
            if key in strata:
                continue
            terms = random_symmetric_terms(rng, max(d - size, 0), 4)
            if terms:
                strata[key] = hd(terms)
    convention = rng.choice(["open", "closed"])
    return ResolutionConfig(d, ambient, components, convention, strata)


def serre_symmetric_terms(rng, dim, max_terms, *, force_00=False, force_10=False):
    """Orbit sums over {(i,j),(j,i),(dim-i,dim-j),(dim-j,dim-i)}: u<->v symmetric
    and Serre-reflective at the given dimension."""
    terms = {}

    def add_orbit(i, j, c):
        for pair in {(i, j), (j, i), (dim - i, dim - j), (dim - j, dim - i)}:
            terms[pair] = terms.get(pair, 0) + c

    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, dim)
        j = rng.randint(0, dim)
        add_orbit(i, j, rng.choice([-3, -2, -1, 1, 2, 3]))
    if force_00 and not terms.get((0, 0)):
        add_orbit(0, 0, rng.choice([1, 2, 3]))
    if force_10:
        if dim < 1:
            raise ValueError("force_10 needs dim >= 1")
        if not terms.get((1, 0)):
            add_orbit(1, 0, rng.choice([-2, -1, 1, 2]))
    return {k: c for k, c in terms.items() if c}


def random_strict_config(rng, d=None):
    """Strict-valid closed-convention config with a planted boundary discrepancy.

    The planted component's discrepancy sits exactly at the threshold that
    makes the decomposition's R term nonzero (d/2 - 1 for even d, (d-3)/2
    for odd d), and its closed stratum is forced to have c_{0,0} != 0 and,
    for odd d, c_{1,0} != 0.
    """
    if d is None:
        d = rng.choice([3, 4, 5, 6])
    bound = (d - 4) // 2
    target = d // 2 - 1 if d % 2 == 0 else (d - 3) // 2
    assert target > bound
    n = rng.randint(1, 4)
    labels = LABELS[:n]
    discrepancies = {lbl: rng.randint(bound + 1, 5) for lbl in labels}
    planted = rng.choice(labels)
    discrepancies[planted] = target
    components = [Component(lbl, discrepancies[lbl]) for lbl in labels]
    ambient = hd(serre_symmetric_terms(rng, d, 5, force_00=True), d)
    strata = {}
    force = dict(force_00=True, force_10=d % 2 == 1)
    strata[(planted,)] = hd(serre_symmetric_terms(rng, d - 1, 4, **force))
    for size in range(1, n + 1):
        for _ in range(rng.randint(0, 2)):
            key = tuple(sorted(rng.sample(labels, size)))
            if key in strata or d - size < 0:
                continue
            terms = serre_symmetric_terms(rng, d - size, 3)
            if terms:
                strata[key] = hd(terms)
    return ResolutionConfig(d, ambient, components, "closed", strata)
