import gc
import json
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringy import exact_poly, resolution
from stringy.exact_poly import BivariatePolynomial
from stringy.hodge import HodgeDelignePolynomial, projective_space
from stringy.resolution import (
    DISCREPANCY_BUDGET,
    EXPONENT_BUDGET,
    Component,
    ResolutionConfig,
    component_closed_hd,
    config_to_dict,
    convert_strata,
    exceptional_union_hd,
    load_config,
    validate,
)
from stringy.validation import ConfigFormatError

from conftest import LABELS, node_config, random_lenient_config, random_strict_config
from oracles import (
    dict_add,
    dict_scale,
    factor_multiset_multipass,
    full_lattice_closed_from_open,
    full_lattice_open_from_closed,
    lenient_findings_multipass,
    packed_sum_bits_multipass,
    strict_findings_both_walks,
)


def P(terms):
    return BivariatePolynomial(terms)


def hd(terms, dim=None):
    return HodgeDelignePolynomial(P(terms), claimed_dimension=dim)


def simple_config(**overrides):
    base = dict(
        dimension=3,
        ambient=projective_space(3),
        components=[Component("A", 1), Component("B", 2)],
        convention="closed",
        strata={("A",): hd({(0, 0): 1}), ("A", "B"): hd({(0, 0): 2})},
    )
    base.update(overrides)
    return ResolutionConfig(
        base["dimension"], base["ambient"], base["components"],
        base["convention"], base["strata"],
        singular_locus=base.get("singular_locus"),
    )


class TestResolutionConfig:
    def test_keys_canonicalized(self):
        cfg = ResolutionConfig(
            3, projective_space(3), [Component("A", 1), Component("B", 1)],
            "closed", {("B", "A"): hd({(0, 0): 1})},
        )
        assert list(cfg.strata) == [("A", "B")]
        assert cfg.stratum(("B", "A")).coefficient(0, 0) == 1
        assert cfg.stratum("A").is_zero

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate stratum key"):
            ResolutionConfig(
                3, projective_space(3), [], "closed",
                {("A", "B"): hd({(0, 0): 1}), ("B", "A"): hd({(0, 0): 2})},
            )

    def test_repeated_label_in_key_rejected(self):
        with pytest.raises(ValueError, match="repeats a label"):
            ResolutionConfig(3, projective_space(3), [], "closed",
                             {("A", "A"): hd({(0, 0): 1})})

    def test_zero_strata_dropped(self):
        cfg = ResolutionConfig(3, projective_space(3), [Component("A", 1)],
                               "closed", {("A",): hd({})})
        assert cfg.strata == {}

    def test_bad_dimension(self):
        for bad in (0, -1, True, 2.5):
            with pytest.raises((ValueError, TypeError)):
                ResolutionConfig(bad, projective_space(3), [], "closed", {})

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            simple_config(convention="half-open")

    def test_discrepancy_lookup(self):
        cfg = simple_config()
        assert cfg.discrepancy("B") == 2
        with pytest.raises(KeyError):
            cfg.discrepancy("Z")

    def test_replace(self):
        cfg = simple_config()
        other = cfg.replace(dimension=4)
        assert other.dimension == 4
        assert other.strata == cfg.strata
        assert cfg.dimension == 3


class TestConvertStrata:
    def test_same_convention_is_identity(self):
        cfg = simple_config()
        assert convert_strata(cfg, "closed") is cfg

    def test_node_round_trip(self):
        cfg = node_config()
        opened = convert_strata(cfg, "open")
        back = convert_strata(opened, "closed")
        assert back.strata == cfg.strata
        assert opened.convention == "open"

    def test_closed_is_sum_of_opens(self):
        # two components meeting in a curve
        curve = hd({(0, 0): 1, (1, 1): 1})
        cfg = ResolutionConfig(
            3, projective_space(3),
            [Component("A", 1), Component("B", 1)],
            "open",
            {("A",): hd({(1, 1): 2}), ("B",): hd({(2, 2): 1}), ("A", "B"): curve},
        )
        closed = convert_strata(cfg, "closed")
        assert closed.stratum("A").poly == P({(1, 1): 2}) + curve.poly
        assert closed.stratum("B").poly == P({(2, 2): 1}) + curve.poly
        assert closed.stratum(("A", "B")).poly == curve.poly

    def test_claims_survive_only_when_every_summand_shares_them(self):
        cfg = ResolutionConfig(
            3, projective_space(3),
            [Component("A", 1), Component("B", 1), Component("C", 1)],
            "open",
            {("A",): hd({(1, 1): 1}, 2), ("B",): hd({(1, 1): 1}, 2), ("C",): hd({(1, 1): 1}),
             ("A", "B"): hd({(0, 0): 1}, 2), ("B", "C"): hd({(0, 0): 1}, 1)},
        )
        closed = convert_strata(cfg, "closed")
        assert closed.stratum("A").claimed_dimension == 2  # A and AB claim 2
        assert closed.stratum("B").claimed_dimension is None  # B, AB and BC: 2, 2 and 1
        assert closed.stratum("C").claimed_dimension is None  # C claims nothing
        assert closed.stratum(("B", "C")).claimed_dimension == 1
        opened = convert_strata(closed, "open")
        assert opened.stratum("A").claimed_dimension == 2  # A less AB: a negated summand keeps its claim

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_round_trip_matches_full_lattice_oracle(self, seed):
        rng = random.Random(seed)
        cfg = random_lenient_config(rng)
        labels = [c.label for c in cfg.components]
        here = {k: dict(v.poly.items()) for k, v in cfg.strata.items()}
        if cfg.convention == "open":
            want = full_lattice_closed_from_open(labels, here)
            got = convert_strata(cfg, "closed")
        else:
            want = full_lattice_open_from_closed(labels, here)
            got = convert_strata(cfg, "open")
        assert {k: dict(v.poly.items()) for k, v in got.strata.items()} == want
        back = convert_strata(got, cfg.convention)
        assert back.strata == cfg.strata


class TestPreparedConfig:
    # What is derived from a config is made once per config object.

    def test_conversion_round_trip_is_equal_and_made_once(self):
        cfg = node_config()
        opened = convert_strata(cfg, "open")
        assert convert_strata(cfg, "open") is opened
        back = convert_strata(opened, "closed")
        assert back.strata == cfg.strata
        assert convert_strata(opened, "closed") is back

    def test_conversion_checks_no_key_again(self, monkeypatch):
        # the walk makes sorted tuples of checked labels, which the twin
        # takes over without canonicalising them again
        cfg = node_config()
        canonicalised = []
        real = resolution._canonical_key

        def counting(key):
            canonicalised.append(key)
            return real(key)

        monkeypatch.setattr(resolution, "_canonical_key", counting)
        opened = convert_strata(cfg, "open")
        assert canonicalised == []
        assert opened.convention == "open" and opened.dimension == cfg.dimension
        assert opened.components == cfg.components and opened.singular_locus is cfg.singular_locus
        assert convert_strata(opened, "closed").strata == cfg.strata

    def test_loading_checks_no_key_again(self, monkeypatch):
        # the loader checks every key and table once and builds the config
        # from them as they are, as the conversion does; an empty table is
        # an absent stratum, as the constructor has it
        canonicalised = []
        real = resolution._canonical_key

        def counting(key):
            canonicalised.append(key)
            return real(key)

        monkeypatch.setattr(resolution, "_canonical_key", counting)
        cfg = load_config({"dimension": 3, "ambient": [[0, 0, 1], [1, 1, 1]], "strata_convention": "closed",
                           "components": [{"label": "A", "discrepancy": 1}, {"label": "B", "discrepancy": 2}],
                           "strata": {"A": [[0, 0, 1]], "A,B": [], "B": [[0, 0, 2]]}})
        assert canonicalised == []
        assert dict(cfg.strata) == {("A",): hd({(0, 0): 1}), ("B",): hd({(0, 0): 2})}
        assert cfg.components == (Component("A", 1), Component("B", 2))
        built = ResolutionConfig(3, hd({(0, 0): 1, (1, 1): 1}, 3), list(cfg.components), "closed",
                                 {("A",): hd({(0, 0): 1}), ("A", "B"): hd({}), ("B",): hd({(0, 0): 2})})
        assert config_to_dict(cfg) == config_to_dict(built)
        assert validate(cfg) == validate(built)

    def test_conversion_makes_no_reference_cycle(self):
        # a cycle would be freed only by the cycle collector, so a batch
        # would hold several files' tables at once
        gc.disable()
        try:
            cfg = node_config()
            opened = convert_strata(cfg, "open")
            original = weakref.ref(cfg)
            del cfg
            assert original() is None
            back = convert_strata(opened, "closed")
            assert back.strata == node_config().strata
            assert convert_strata(opened, "closed") is back
        finally:
            gc.enable()

    def test_strata_cannot_be_written_through(self):
        cfg = node_config()
        with pytest.raises(TypeError):
            cfg.strata[("E2",)] = hd({(0, 0): 1})
        assert list(cfg.strata) == [("E1",)]

    def test_one_report_per_mode(self):
        cfg = node_config()
        strict = validate(cfg, "strict")
        lenient = validate(cfg, "lenient")
        assert validate(cfg, "strict") is strict
        assert validate(cfg) is lenient
        assert strict.findings[:len(lenient.findings)] == lenient.findings


class TestDerivedPolynomials:
    def test_component_closed_hd(self):
        cfg = node_config()
        assert component_closed_hd(cfg, "E1").poly == P({(0, 0): 1, (1, 1): 2, (2, 2): 1})
        with pytest.raises(KeyError):
            component_closed_hd(cfg, "nope")

    def test_exceptional_union_inclusion_exclusion(self):
        curve = {(0, 0): 1, (1, 1): 1}
        cfg = ResolutionConfig(
            3, projective_space(3),
            [Component("A", 1), Component("B", 1)],
            "closed",
            {("A",): hd({(1, 1): 2}), ("B",): hd({(2, 2): 1}), ("A", "B"): hd(curve)},
        )
        want = dict_add(
            dict_add({(1, 1): 2}, {(2, 2): 1}), dict_scale(curve, -1)
        )
        assert dict(exceptional_union_hd(cfg).poly.items()) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_union_convention_independent(self, seed):
        rng = random.Random(seed)
        cfg = random_lenient_config(rng)
        other = convert_strata(cfg, "open" if cfg.convention == "closed" else "closed")
        assert exceptional_union_hd(cfg).poly == exceptional_union_hd(other).poly


@st.composite
def scan_configs(draw):
    """Configs for the one scan of lenient validation: tables that may be
    u<->v asymmetric, also with both pairs (i, j) and (j, i) present, or with
    every i > j term matched and one i < j term not, with exponents up to 12
    (a lowered exponent budget of 8 sits among them), zero to three
    components, and a singular locus that is absent, a number of points or a
    table."""
    labels = ["A", "B", "C"][:draw(st.integers(min_value=0, max_value=3))]
    components = [Component(label, draw(st.integers(min_value=0, max_value=3))) for label in labels]

    def table():
        exponent = st.integers(min_value=0, max_value=12)
        coefficient = st.integers(min_value=-9, max_value=9).filter(bool)
        terms = draw(st.dictionaries(st.tuples(exponent, exponent), coefficient, min_size=1, max_size=5))
        shape = draw(st.sampled_from(["any", "symmetric", "one mirror off", "one mirror missing"]))
        if shape != "any":
            terms = {pair: c for (i, j), c in terms.items() for pair in ((i, j), (j, i))}
            if shape == "one mirror off":  # both pairs present, their coefficients apart
                pair = draw(st.sampled_from(sorted(terms)))
                terms[pair] += draw(st.sampled_from([-1, 1]))
            if shape == "one mirror missing":  # every i > j term matched, one i < j term not
                i = draw(st.integers(min_value=0, max_value=11))
                j = draw(st.integers(min_value=i + 1, max_value=12))
                terms[(i, j)] = draw(coefficient)
                terms.pop((j, i), None)
        return HodgeDelignePolynomial(P(terms))

    keys = draw(st.sets(st.frozensets(st.sampled_from(labels), min_size=1), max_size=4)) if labels else set()
    strata = {tuple(sorted(key)): table() for key in keys}
    locus = draw(st.sampled_from([None, "points", "table"]))
    singular = table() if locus == "table" else hd({(0, 0): 2}) if locus else None
    return ResolutionConfig(draw(st.integers(min_value=1, max_value=4)), table(), components,
                            draw(st.sampled_from(["open", "closed"])), strata, singular)


def _figures_multipass(poly):
    """A table's figures (least and largest min(i, j), |p|_1, u<->v
    symmetry, largest exponent) and its offsets i - j, a walk each; None
    for the zero table."""
    terms = dict(poly.items())
    if not terms:
        return None
    rows = [min(pair) for pair in terms]
    return (min(rows), max(rows), sum(abs(c) for c in terms.values()),
            all(terms.get((j, i)) == c for (i, j), c in terms.items()),
            max(max(pair) for pair in terms), {i - j for i, j in terms})


class TestValidateLenient:
    @settings(max_examples=200, deadline=None)
    @given(scan_configs(), st.sampled_from([-8, -1, 0, 1, 8]))
    def test_one_scan_matches_multipass(self, cfg, margin):
        # the findings read from one scan per table equal those of a walk
        # per figure, on both sides of the exponent and packed-size budgets
        bits = packed_sum_bits_multipass(cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resolution, "EXPONENT_BUDGET", 8)
            patch.setattr(resolution, "PACKED_BIT_BUDGET", bits + margin)
            want = lenient_findings_multipass(cfg)
            patch.setattr(BivariatePolynomial, "support", None)  # a call would raise
            assert resolution._lenient_findings(cfg) == want
        # and each table's figures, which the packed layout reads too, equal
        # those of a walk per figure
        scan = resolution._table_scan(cfg)
        stored = [h.poly for h in cfg.strata.values()]
        locus = cfg.singular_locus
        for poly, figures in [(cfg.ambient.poly, scan.ambient), *zip(stored, scan.strata),
                              (locus.poly if locus is not None else P({}), scan.locus)]:
            want = _figures_multipass(poly)
            assert figures == (want[:5] if want else None)
            if want:
                offsets = set()
                exact_poly._scan(dict(poly.items()), offsets)
                assert offsets == want[5]
        tables = [(0, cfg.ambient.poly), *zip(map(len, cfg.strata), stored)]
        assert scan.offsets == set().union(*(_figures_multipass(p)[5] for _, p in tables if p))
        assert scan.norm == sum(_figures_multipass(p)[2] << size for size, p in tables if p)
        assert scan.walk == sum(2 ** len(key) for key in cfg.strata)
        # and K, from a walk of the stored keys, with its degree past the
        # largest row and its size
        most = factor_multiset_multipass(cfg)
        rows = max((_figures_multipass(p)[1] for _, p in tables if p), default=0)
        assert scan.most == most and scan.factors == sum(most.values())
        assert scan.degree == rows + sum(m * n for m, n in most.items())

    def test_accepted_clean_config(self):
        report = validate(node_config())
        assert report.accepted and report.mode == "lenient"

    def test_bad_label(self):
        cfg = ResolutionConfig(3, projective_space(3),
                               [Component("", 1), Component("A,B", 1)], "closed", {})
        codes = [f.code for f in validate(cfg).errors]
        assert codes.count("bad-label") == 2

    def test_duplicate_label(self):
        cfg = ResolutionConfig(3, projective_space(3),
                               [Component("A", 1), Component("A", 2)], "closed", {})
        assert "duplicate-label" in {f.code for f in validate(cfg).errors}

    def test_bad_discrepancy(self):
        cfg = ResolutionConfig(3, projective_space(3),
                               [Component("A", -1), Component("B", True)], "closed", {})
        codes = [f.code for f in validate(cfg).errors]
        assert codes.count("bad-discrepancy") == 2

    def test_unknown_label_in_stratum(self):
        cfg = ResolutionConfig(3, projective_space(3), [Component("A", 1)],
                               "closed", {("A", "Z"): hd({(0, 0): 1})})
        assert "unknown-label" in {f.code for f in validate(cfg).errors}

    def test_uv_asymmetry(self):
        cfg = ResolutionConfig(3, hd({(1, 0): 1}, 3), [Component("A", 1)],
                               "closed", {("A",): hd({(2, 1): 1})},
                               singular_locus=hd({(1, 0): 1}))
        locations = [f.location for f in validate(cfg).errors if f.code == "uv-asymmetry"]
        assert len(locations) == 3

    def test_component_cap(self):
        comps = [Component(f"E{k}", 1) for k in range(30)]
        cfg = ResolutionConfig(3, projective_space(3), comps, "closed", {})
        # the cap is the only thing wrong with 30 unused components
        assert {f.code for f in validate(cfg).errors} == {"too-many-components"}

    def test_subset_walk_cost(self):
        # one 16-label key: 65536 subsets to convert, refused before any work
        labels = [f"E{k:02d}" for k in range(16)]
        comps = [Component(label, 1) for label in labels]
        cfg = ResolutionConfig(3, projective_space(3), comps, "closed", {tuple(labels): hd({(0, 0): 1})})
        started = time.perf_counter()
        report = validate(cfg)
        assert time.perf_counter() - started < 1.0
        assert "subset-walk-cost" in {f.code for f in report.errors}
        assert "subset-walk-cost" in {f.code for f in validate(cfg, "strict").errors}
        within = cfg.replace(strata={tuple(labels[:12]): hd({(0, 0): 1})})
        assert "subset-walk-cost" not in {f.code for f in validate(within).findings}

    def test_exponent_and_discrepancy_cost(self):
        # the budgets bound what the formulas may be handed, before any work
        at = EXPONENT_BUDGET
        line = hd({(0, 0): 1, (at, at): 1})
        within = ResolutionConfig(1, line, [Component("E", DISCREPANCY_BUDGET - 1)], "closed",
                                  {("E",): hd({(0, 0): 1})})
        assert validate(within).accepted
        over = line.poly + BivariatePolynomial.monomial(at + 1, at + 1)
        cases = {
            "exponent-cost": within.replace(ambient=HodgeDelignePolynomial(over, 1)),
            "discrepancy-cost": within.replace(components=[Component("E", DISCREPANCY_BUDGET)]),
        }
        for code, cfg in cases.items():
            codes = [f.code for f in validate(cfg).errors]
            assert codes == [code]
        singular = within.replace(singular_locus=hd({(at + 1, at + 1): 1}))
        assert [f.location for f in validate(singular).errors] == ["singular_locus"]

    def test_discrepancy_budget_bounds_the_sum(self):
        # the budget bounds the common denominator's degree, the sum of
        # a + 1 over the components with a != 0
        half = DISCREPANCY_BUDGET // 2
        cfg = ResolutionConfig(1, hd({(0, 0): 1, (1, 1): 1}),
                               [Component("A", half - 1), Component("B", half - 1), Component("C", 0)],
                               "closed", {("A",): hd({(0, 0): 1}), ("B",): hd({(0, 0): 1})})
        assert validate(cfg).accepted
        over = cfg.replace(components=[Component("A", half - 1), Component("B", half), Component("C", 0)])
        assert [(f.code, f.location) for f in validate(over).errors] == [("discrepancy-cost", "B")]

    def test_packed_size_budget(self):
        # offsets i - j present times powers of uv times the slot width the
        # sums need: 2 * 8 + 1 offsets with a denominator of degree 2^15 fit
        # in 8-bit slots; 2 * 128 + 1 offsets at degree 2^16 do not fit the
        # budget, nor does one coefficient of 10^4 digits at degree 2^15
        def fan(n):
            terms = {(0, 0): 1}
            for k in range(1, n + 1):
                terms[(k, 0)] = terms[(0, k)] = 1
            return hd(terms)

        cfg = ResolutionConfig(1, fan(8), [Component("A", 2 ** 15 - 1)], "closed", {("A",): hd({(0, 0): 1})})
        assert validate(cfg).accepted
        cases = [cfg.replace(ambient=fan(128), components=[Component("A", 2 ** 16 - 1)]),
                 cfg.replace(strata={("A",): hd({(0, 0): 10 ** 10000})})]
        for over in cases:
            assert [f.code for f in validate(over).errors] == ["packed-size-cost"]

    def test_unused_component_is_warning(self):
        cfg = ResolutionConfig(3, projective_space(3), [Component("A", 1)], "closed", {})
        report = validate(cfg)
        assert report.accepted
        assert "unused-component" in {f.code for f in report.warnings}

    def test_nonisolated_locus_is_warning(self):
        cfg = node_config().replace(singular_locus=hd({(0, 0): 1, (1, 1): 1}))
        report = validate(cfg)
        assert report.accepted
        assert "nonisolated-locus" in {f.code for f in report.warnings}


class TestValidateStrict:
    def test_node_passes(self):
        assert validate(node_config(), "strict").accepted

    def test_dimension_too_small(self):
        cfg = ResolutionConfig(2, projective_space(2), [], "closed", {})
        assert "dimension-too-small" in {f.code for f in validate(cfg, "strict").errors}

    def test_discrepancy_bound(self):
        # d = 5: bound is floor(1/2) = 0, so a = 0 fails and a = 1 passes
        amb = projective_space(5)
        low = ResolutionConfig(5, amb, [Component("A", 0)], "closed", {})
        assert "discrepancy-bound" in {f.code for f in validate(low, "strict").errors}
        ok = ResolutionConfig(5, amb, [Component("A", 1)], "closed", {})
        assert validate(ok, "strict").accepted

    def test_serre_checked_on_ambient_and_strata(self):
        cfg = ResolutionConfig(
            3, hd({(0, 0): 1}, 3), [Component("A", 1)],
            "closed", {("A",): hd({(0, 0): 1, (1, 1): 5})},
        )
        locations = {f.location for f in validate(cfg, "strict").errors
                     if f.code == "serre-reflection"}
        assert locations == {"ambient", "A"}

    def test_serre_skipped_when_structurally_broken(self):
        cfg = ResolutionConfig(3, hd({(0, 0): 1}, 3),
                               [Component("A", 1), Component("A", 1)], "closed", {})
        codes = {f.code for f in validate(cfg, "strict").errors}
        assert "duplicate-label" in codes
        assert "serre-reflection" not in codes

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9), st.data())
    def test_serre_findings_match_both_walks(self, seed, data):
        # strict-valid configs, then terms that break the Serre reflection
        # at one or more points or lie past the dimension, in stored tables
        # or new ones, and asymmetric terms that lenient validation rejects
        cfg = random_strict_config(random.Random(seed))
        d = cfg.dimension
        tables = {(): dict(cfg.ambient.poly.items()), **{k: dict(v.poly.items()) for k, v in cfg.strata.items()}}
        keys = [(), *sorted(cfg.strata), *(tuple(LABELS[:n]) for n in range(1, len(cfg.components) + 1))]
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            key = data.draw(st.sampled_from(keys))
            dim = d - len(key)
            kind = data.draw(st.sampled_from(["break", "past", "asymmetric"]))
            top = max(dim, 0) + (3 if kind == "past" else 0)
            i = data.draw(st.integers(min_value=top - 2 if kind == "past" else 0, max_value=top))
            j = data.draw(st.integers(min_value=0, max_value=top))
            c = data.draw(st.integers(min_value=-3, max_value=3).filter(bool))
            table = tables.setdefault(key, {})
            for pair in {(i, j)} if kind == "asymmetric" else {(i, j), (j, i)}:
                table[pair] = table.get(pair, 0) + c
        strata = {k: hd(terms) for k, terms in tables.items() if k and any(terms.values())}
        mutated = ResolutionConfig(d, hd(tables[()], d), list(cfg.components), "closed", strata)
        opened = convert_strata(mutated, "open")
        for each in (mutated, ResolutionConfig(d, mutated.ambient, list(cfg.components), "open", opened.strata)):
            lenient = validate(each)
            want = strict_findings_both_walks(each, lenient)
            assert resolution._strict_findings(each, lenient) == want
            assert validate(each, "strict").findings == lenient.findings + want

    def test_deep_intersection_rejected(self):
        labels = ["A", "B", "C", "D"]
        cfg = ResolutionConfig(
            3, projective_space(3), [Component(l, 1) for l in labels], "closed",
            {tuple(labels): hd({(0, 0): 1})},
        )
        assert not validate(cfg, "strict").accepted


# a bad triple after good ones, and the loader's text for it
BAD_TRIPLES = [
    ([True, 0, 1], "exponents must be integers, got [True, 0, 1]"),
    ([0, -1, 1], "exponents must be nonnegative, got [0, -1, 1]"),
    ([0.0, 1, 1], "exponents must be integers, got [0.0, 1, 1]"),
    ([0, 1, 1.0], "expected an integer or decimal string, got 1.0"),
    ([0, 1, 0], "zero coefficient at (0,1) must be omitted"),
    ([1, 0, -2], "duplicate exponent pair (1,0)"),
    ([0, 1], "each term must be a triple [i, j, c], got [0, 1]"),
    ([0, 1, False], "expected an integer, got False"),
    ((0, 1, 1), "each term must be a triple [i, j, c], got (0, 1, 1)"),
]
BAD_TRIPLE_IDS = ["bool-exponent", "negative-exponent", "float-exponent", "float-coefficient", "zero-coefficient",
                  "duplicate-pair", "two-elements", "bool-coefficient", "tuple"]


class TestInterchange:
    def test_file_round_trip(self, e6_path):
        cfg = load_config(e6_path)
        again = load_config(config_to_dict(cfg))
        assert again.strata == cfg.strata
        assert again.ambient == cfg.ambient
        assert again.components == cfg.components
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_singular_locus_optional(self):
        d = {
            "dimension": 3,
            "ambient": [[0, 0, 1]],
            "components": [],
            "strata_convention": "closed",
            "strata": {},
        }
        cfg = load_config(d)
        assert cfg.singular_locus is None
        assert "singular_locus" not in config_to_dict(cfg)

    def test_unknown_field(self):
        with pytest.raises(ConfigFormatError, match="unknown config fields"):
            load_config({"dimension": 3, "ambient": [], "components": [],
                         "strata_convention": "closed", "strata": {}, "extra": 1})

    def test_missing_field(self):
        with pytest.raises(ConfigFormatError, match="missing config fields"):
            load_config({"dimension": 3})

    def test_bad_dimension(self):
        with pytest.raises(ConfigFormatError, match="dimension"):
            load_config({"dimension": "3", "ambient": [[0, 0, 1]], "components": [],
                         "strata_convention": "closed", "strata": {}})

    @pytest.mark.parametrize("triples, message", [
        ({"not": "a list"}, "list of"),
        ([[0, 0]], "triple"),
        ([[0.5, 0, 1]], "integers"),
        ([[True, 0, 1]], "integers"),
        ([[-1, 0, 1]], "nonnegative"),
        ([[0, 0, 0]], "zero coefficient"),
        ([[0, 0, 1], [0, 0, 2]], "duplicate exponent pair"),
        ([[0, 0, 1.5]], "integer"),
    ])
    def test_bad_triples(self, triples, message):
        with pytest.raises(ConfigFormatError, match=message):
            load_config({"dimension": 3, "ambient": triples, "components": [],
                         "strata_convention": "closed", "strata": {}})

    @pytest.mark.parametrize("bad, message", BAD_TRIPLES, ids=BAD_TRIPLE_IDS)
    def test_bad_triple_after_good_ones_keeps_its_message(self, bad, message):
        # the entries before it are exact ints, the common case; the bad one
        # meets the checks in their order, with the same text
        with pytest.raises(ConfigFormatError) as info:
            load_config({"dimension": 3, "ambient": [[1, 0, 2], [2, 2, 1], bad], "components": [],
                         "strata_convention": "closed", "strata": {}})
        assert str(info.value) == f"ambient: {message}"

    @pytest.mark.parametrize("key, where", [
        ("A,B", "strata['A,B']"),
        ("A,it's", 'strata["A,it\'s"]'),  # the key is shown as its repr
    ], ids=["plain", "quote"])
    @pytest.mark.parametrize("bad, message", BAD_TRIPLES, ids=BAD_TRIPLE_IDS)
    def test_bad_triple_in_a_stratum_keeps_its_message(self, bad, message, key, where):
        # the same texts at a stratum, after a good stratum and good entries
        with pytest.raises(ConfigFormatError) as info:
            load_config({"dimension": 3, "ambient": [[0, 0, 1]],
                         "components": [{"label": label, "discrepancy": 1} for label in ("A", "B", "it's")],
                         "strata_convention": "closed",
                         "strata": {"A": [[0, 0, 1]], key: [[1, 0, 2], [2, 2, 1], bad]}})
        assert str(info.value) == f"{where}: {message}"

    def test_triples_accept_decimal_strings_and_int_subclasses(self):
        class Exact(int):
            pass

        big = 10 ** 40
        cfg = load_config({"dimension": 3, "components": [], "strata_convention": "closed", "strata": {},
                           "ambient": [[0, 0, "-7"], [1, 0, str(big)], [Exact(2), 1, Exact(3)], [1, 1, 4]]})
        assert dict(cfg.ambient.poly.items()) == {(0, 0): -7, (1, 0): big, (2, 1): 3, (1, 1): 4}

    @pytest.mark.parametrize("component", [
        {"label": "A"},
        {"label": "A", "discrepancy": 1, "extra": 2},
        {"label": 3, "discrepancy": 1},
        {"label": "A", "discrepancy": "one"},
        {"label": "A", "discrepancy": True},
        "A",
    ])
    def test_bad_components(self, component):
        with pytest.raises(ConfigFormatError):
            load_config({"dimension": 3, "ambient": [[0, 0, 1]], "components": [component],
                         "strata_convention": "closed", "strata": {}})

    @pytest.mark.parametrize("key", ["", "B,A", "A,,B", "A,A", "B,A,A", "A,B,B"])
    def test_bad_stratum_keys(self, key):
        message = {
            "": "stratum key must be a nonempty string, got ''",
            "B,A": "stratum key 'B,A' is not sorted",
            "A,,B": "stratum key 'A,,B' has an empty label",
            "A,A": "stratum key 'A,A' repeats a label",
            "B,A,A": "stratum key 'B,A,A' is not sorted",  # the order is checked first
            "A,B,B": "stratum key 'A,B,B' repeats a label",
        }[key]
        with pytest.raises(ConfigFormatError) as info:
            load_config({
                "dimension": 3, "ambient": [[0, 0, 1]],
                "components": [{"label": "A", "discrepancy": 1},
                               {"label": "B", "discrepancy": 1}],
                "strata_convention": "closed",
                "strata": {key: [[0, 0, 1]]},
            })
        assert str(info.value) == message

    def test_big_coefficients_round_trip(self, tmp_path):
        big = 2 ** 80
        d = {
            "dimension": 3,
            "ambient": [[0, 0, str(big)], [1, 1, -7]],
            "components": [],
            "strata_convention": "closed",
            "strata": {},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(d))
        cfg = load_config(path)
        assert cfg.ambient.coefficient(0, 0) == big
        emitted = config_to_dict(cfg)
        assert emitted["ambient"] == [[0, 0, str(big)], [1, 1, -7]]

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigFormatError, match="invalid JSON"):
            load_config(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dimension": 3, "label": "\xe9"}')
        with pytest.raises(ConfigFormatError, match="not UTF-8"):
            load_config(path)

    @pytest.mark.parametrize("blob", [
        b'{\r\n  "dimension": 3,\r\n  "ambient": [[0, 0, 1]],\r\n  oops\r\n}\r\n',  # CRLF line ends
        b'{\r  "dimension": 3,\r  oops\r}',  # CR line ends
        b'{\r\n  "dimension": 3,\r  "x": "a\rb"\n}',  # mixed, and a CR inside a string
        b'\xef\xbb\xbf{"dimension": 3}',  # a UTF-8 byte order mark
        b'{"dimension": 3,\r\n "label": "\xe9"}',  # not UTF-8
        b'{"label": "\xe2\x82',  # UTF-8 cut short
        b"[" * 100000,
    ], ids=["crlf", "cr", "mixed", "bom", "latin1", "truncated", "deep"])
    def test_bytes_fail_as_the_file_text_does(self, tmp_path, blob):
        # the loader reads a file's bytes once, and decodes them as
        # Path.read_text would: every error names the same position
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            want = f"config is not UTF-8 text: {exc}"
        except RecursionError:
            want = "invalid JSON: nested too deeply"
        except ValueError as exc:
            want = f"invalid JSON: {exc}"
        for source in (path, str(path), blob):
            with pytest.raises(ConfigFormatError) as info:
                load_config(source)
            assert str(info.value) == want

    def test_deeply_nested_json_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        with pytest.raises(ConfigFormatError, match="nested too deeply"):
            load_config(path)

    def test_integer_over_digit_limit(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"dimension": ' + "9" * 5000 + "}")
        with pytest.raises(ConfigFormatError, match="invalid JSON"):
            load_config(path)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_config_round_trip(self, seed):
        rng = random.Random(seed)
        cfg = random_lenient_config(rng)
        blob = json.dumps(config_to_dict(cfg), sort_keys=True)
        again = load_config(json.loads(blob))
        assert config_to_dict(again) == config_to_dict(cfg)
        assert again.dimension == cfg.dimension
        assert again.strata == cfg.strata
