"""The input data model: exceptional components with discrepancies and a
sparse strata table, plus validation, strata-convention conversion, and the
JSON interchange format.

Strata are keyed by sorted tuples of component labels.  An absent key means
the intersection is empty (H = 0); nothing is ever stored densely, and every
lattice walk enumerates only stored keys and their subsets.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Union

from .exact_poly import (
    PACKED_BIT_BUDGET,
    BivariatePolynomial,
    _polynomial,
    _scan,
    decode_json_int,
    encode_json_int,
    packed_bits,
    signed_sum,
)
from .hodge import HodgeDelignePolynomial, serre_findings
from .validation import ConfigFormatError, Finding, ValidationReport, checked_int

StratumKey = tuple[str, ...]

DEFAULT_COMPONENT_CAP = 24

# Converting between conventions walks every subset of every stored key, and
# the formulas then carry a term per subset, so the cost grows as the sum of
# 2^|key| over stored keys.  Tables past this budget are refused up front
# with a ``subset-walk-cost`` finding; a single 12-label key is the largest
# that fits.
SUBSET_WALK_BUDGET = 2 ** 12

# A polynomial with an exponent e reaches the output as a canonical
# numerator of about e terms, and every exponent is printed as a JSON int;
# inputs with an exponent above this budget are refused with an
# ``exponent-cost`` finding.
EXPONENT_BUDGET = 2 ** 14

# A discrepancy a != 0 puts the factor (uv)^{a+1} - 1 into the formulas'
# denominators, as often as the labels of one stored key bring m = a + 1
# together: the multiset K of those factors (``_Scan.most``) holds either
# formula's common denominator, so its degree bounds theirs.  The formulas
# run on numerators packed densely in the powers of uv, so time and memory
# grow with that degree; tables whose K has a degree over this budget are
# refused with a ``discrepancy-cost`` finding.
DISCREPANCY_BUDGET = 2 ** 18

# The formula sums are packed on one layout per config, with one slot per
# offset i - j present in the tables and per power of uv up to the largest
# one in them plus the degree of K, each slot as wide as their digits need
# (``engine._packed_strata``); tables whose layout would pass
# ``exact_poly.PACKED_BIT_BUDGET`` bits are refused with a
# ``packed-size-cost`` finding.

# Expanding E_st to a horizon h computes about h // 2 + 1 - min |s| // 2
# coefficients for every offset s = i - j of its numerator, one per position
# of its skewed layout (``StringyResult.series_size``), and prints the
# nonzero ones; a series over this many coefficients is refused as an input
# error before any is computed.
SERIES_BUDGET = 2 ** 18


class Component(NamedTuple):
    label: str
    discrepancy: int  # validated, not enforced: see validate()


class ResolutionConfig:
    """Immutable bundle of dimension, ambient H, components, and strata.

    The constructor enforces structure only (key shape, convention flag);
    semantic requirements (label uniqueness, discrepancy range, symmetry) are
    findings from :func:`validate`, so that deliberately broken inputs can be
    represented and reported on.

    What is derived from a config (its validation reports, its twin in the
    other strata convention, its E-functions) is computed on first request
    and kept on the object, so every caller handed the same config shares
    one copy.  Nothing can go stale: the config never changes.
    """

    __slots__ = ("_dimension", "_ambient", "_components", "_convention", "_strata", "_singular_locus",
                 "_derived", "__weakref__")

    def __init__(self, dimension: int, ambient: HodgeDelignePolynomial,
                 components: list[Component], convention: str,
                 strata: Mapping, singular_locus: Union[HodgeDelignePolynomial, None] = None):
        checked_int(dimension, "dimension", 1)
        if convention not in ("open", "closed"):
            raise ValueError(f"strata convention must be 'open' or 'closed', got {convention!r}")
        if not isinstance(ambient, HodgeDelignePolynomial):
            raise TypeError("ambient must be a HodgeDelignePolynomial")
        comps = tuple(components)
        for comp in comps:
            if not isinstance(comp, Component):
                raise TypeError(f"components must be Component instances, got {comp!r}")
        table: dict[StratumKey, HodgeDelignePolynomial] = {}
        for key, value in strata.items():
            key = _canonical_key(key)
            if not isinstance(value, HodgeDelignePolynomial):
                raise TypeError(f"stratum {key} must map to a HodgeDelignePolynomial")
            if key in table:
                raise ValueError(f"duplicate stratum key {key}")
            if not value.is_zero:  # absent and zero are the same stratum
                table[key] = value
        if singular_locus is not None and not isinstance(singular_locus, HodgeDelignePolynomial):
            raise TypeError("singular_locus must be a HodgeDelignePolynomial or None")
        self._dimension, self._ambient, self._components = dimension, ambient, comps
        self._convention, self._strata = convention, MappingProxyType(table)
        self._singular_locus, self._derived = singular_locus, {}

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def ambient(self) -> HodgeDelignePolynomial:
        return self._ambient

    @property
    def components(self) -> tuple[Component, ...]:
        return self._components

    @property
    def convention(self) -> str:
        return self._convention

    @property
    def strata(self) -> Mapping[StratumKey, HodgeDelignePolynomial]:
        """The stored strata, as a read-only view."""
        return self._strata

    @property
    def singular_locus(self) -> Union[HodgeDelignePolynomial, None]:
        return self._singular_locus

    def stratum(self, key) -> HodgeDelignePolynomial:
        """H of the stratum for a label subset; absent keys are zero."""
        return self._strata.get(_canonical_key(key),
                                HodgeDelignePolynomial(BivariatePolynomial.zero()))

    def discrepancy(self, label: str) -> int:
        for comp in self._components:
            if comp.label == label:
                return comp.discrepancy
        raise KeyError(f"unknown component label {label!r}")

    def _derive(self, key, produce):
        """``produce()``, computed on the first request for ``key`` and kept
        for the object's lifetime.  Package-internal: the producers are
        :func:`validate`, :func:`convert_strata` and the engine's E-function
        formulas."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = produce()
        return value

    def replace(self, **changes) -> "ResolutionConfig":
        fields = {
            "dimension": self._dimension,
            "ambient": self._ambient,
            "components": list(self._components),
            "convention": self._convention,
            "strata": self._strata,
            "singular_locus": self._singular_locus,
        }
        fields.update(changes)
        return ResolutionConfig(**fields)


def _checked_config(dimension: int, ambient: HodgeDelignePolynomial, components: tuple[Component, ...],
                    convention: str, strata: dict, singular_locus: Union[HodgeDelignePolynomial, None]
                    ) -> ResolutionConfig:
    """A config of checked fields taken over as they are, the table's keys
    sorted tuples of checked labels and its values nonzero.  Package-internal:
    the producers are :func:`load_config` and :func:`convert_strata`."""
    out = ResolutionConfig.__new__(ResolutionConfig)
    out._dimension, out._ambient, out._components = dimension, ambient, components
    out._convention, out._strata = convention, MappingProxyType(strata)
    out._singular_locus, out._derived = singular_locus, {}
    return out


def _canonical_key(key) -> StratumKey:
    if isinstance(key, str):
        parts = [key]
    else:
        parts = list(key)
    for label in parts:
        if not isinstance(label, str) or not label:
            raise ValueError(f"stratum key labels must be nonempty strings, got {key!r}")
    if len(set(parts)) != len(parts):
        raise ValueError(f"stratum key {key!r} repeats a label")
    return tuple(sorted(parts))


def _subset_walk(strata: Mapping[StratumKey, object], target: str
                 ) -> dict[StratumKey, list[tuple[int, object]]]:
    """Inclusion-exclusion over the subset lattice: per label subset I of a
    stored key, the empty one included, the (sign, value) of every stored
    J >= I, whose signed values add up to the stratum I in the target
    convention:

        closed H(D_I) = sum over stored J >= I of open H(D_J)
        open H(D_I)   = sum over stored J >= I of (-1)^{|J|-|I|} closed H(D_J)

    Only subsets of stored keys can acquire nonzero values, so the walk
    enumerates exactly those.  The values are passed through as they are:
    polynomials here (:func:`convert_strata`), packed ints in the engine.
    The empty subset gathers every stored key, the ambient left out.
    """
    parts: dict[StratumKey, list[tuple[int, object]]] = defaultdict(list)
    for key, value in strata.items():
        n = len(key)
        plus, minus = (1, value), (-1 if target == "open" else 1, value)
        for size in range(n + 1):
            part = minus if (n - size) % 2 else plus
            for sub in combinations(key, size):  # sorted, as key is
                parts[sub].append(part)
    return parts


def convert_strata(cfg: ResolutionConfig, target: str) -> ResolutionConfig:
    """Convert the strata table between the open and closed conventions by
    inclusion-exclusion over the subset lattice (:func:`_subset_walk`).
    The converted config is made once per config object: converting
    ``cfg`` again returns the same object.
    """
    if target not in ("open", "closed"):
        raise ValueError(f"strata convention must be 'open' or 'closed', got {target!r}")
    if cfg.convention == target:
        return cfg
    return cfg._derive(("convention", target), lambda: _converted(cfg, target))


def _converted(cfg: ResolutionConfig, target: str) -> ResolutionConfig:
    table = {}
    for key, terms in _subset_walk(cfg.strata, target).items():
        if not key:
            continue  # the empty subset is no stratum
        if len(terms) == 1 and terms[0][0] == 1:
            # a stored value, as it is: through signed_sum too, the 150
            # conversions of a seed-7 ladder round took 66 ms, not 58
            # (medians of 11, Python 3.11 on 2 CPUs)
            value = terms[0][1]
        else:
            claims = {value.claimed_dimension for _, value in terms}  # the one they share, else none
            value = HodgeDelignePolynomial(signed_sum([(sign, value.poly) for sign, value in terms]),
                                           claims.pop() if len(claims) == 1 else None)
        if value.poly:
            table[key] = value
    return _checked_config(cfg.dimension, cfg.ambient, cfg.components, target, table, cfg.singular_locus)


def component_closed_hd(cfg: ResolutionConfig, label: str) -> HodgeDelignePolynomial:
    """H(D_label) in the closed convention, converting if needed."""
    cfg.discrepancy(label)  # raises KeyError for unknown labels
    closed = convert_strata(cfg, "closed")
    h = closed.stratum((label,))
    return HodgeDelignePolynomial(h.poly, None)


def exceptional_union_hd(cfg: ResolutionConfig) -> HodgeDelignePolynomial:
    """H of the union of all components: :func:`_union_parts`, summed."""
    return HodgeDelignePolynomial(signed_sum(_union_parts(cfg)))


def _union_parts(cfg: ResolutionConfig) -> list[tuple[int, BivariatePolynomial]]:
    """The (sign, table) parts whose sum is H of the union of all
    components, in either convention, with no table converted: the open
    strata D_J^o partition the union, so each open table counts once, and
    by inclusion-exclusion each closed table D_J counts (-1)^(|J|+1) times.
    The two agree: a stored open table at J is in the closed tables of its
    2^|J| - 1 nonempty subsets I, whose signs (-1)^(|I|+1) add up to 1."""
    if cfg.convention == "open":
        return [(1, value.poly) for value in cfg.strata.values()]
    return [(1 if len(key) % 2 else -1, value.poly) for key, value in cfg.strata.items()]


def validate(cfg: ResolutionConfig, mode: str = "lenient") -> ValidationReport:
    """Semantic validation.

    Lenient mode admits any formally consistent table: unique labels,
    integer discrepancies >= 0, u<->v symmetric polynomials, strata keyed by
    declared components.  Strict mode additionally enforces the hypotheses
    under which the coefficient decomposition is proved: d >= 3, every
    discrepancy > floor((d-4)/2), and the Serre reflection on the ambient
    polynomial and every closed stratum (a necessary condition for genuinely
    geometric smooth projective input, not a sufficient one).

    A strict report starts with the lenient report's findings.  Each report
    is made once per config object and mode.
    """
    if mode not in ("lenient", "strict"):
        raise ValueError(f"validation mode must be 'lenient' or 'strict', got {mode!r}")
    lenient = cfg._derive(("validate", "lenient"), lambda: ValidationReport("lenient", _lenient_findings(cfg)))
    if mode == "lenient":
        return lenient
    return cfg._derive(("validate", "strict"),
                       lambda: ValidationReport("strict", lenient.findings + _strict_findings(cfg, lenient)))


def _lenient_findings(cfg: ResolutionConfig) -> tuple[Finding, ...]:
    findings: list[Finding] = []
    seen_labels: set[str] = set()
    scan = _table_scan(cfg)
    unmet = dict(scan.most)  # the m of K not met yet in the walk below
    degree = 0  # of K, over the m met so far
    for comp in cfg.components:
        label = comp.label
        if not isinstance(label, str) or not label or "," in label:
            findings.append(Finding("error", "bad-label",
                                    f"label must be a nonempty string without commas, got {label!r}",
                                    repr(label)))
            continue
        if label in seen_labels:
            findings.append(Finding("error", "duplicate-label",
                                    f"component label {label!r} declared twice", label))
        seen_labels.add(label)
        a = comp.discrepancy
        if isinstance(a, bool) or not isinstance(a, int) or a < 0:
            findings.append(Finding("error", "bad-discrepancy",
                                    f"discrepancy of {label!r} must be an integer >= 0, got {a!r}",
                                    label))
        elif a + 1 in unmet and degree <= DISCREPANCY_BUDGET:
            degree += (a + 1) * unmet.pop(a + 1)
            if degree > DISCREPANCY_BUDGET:
                findings.append(Finding("error", "discrepancy-cost",
                                        f"the factors (uv)^(a+1) - 1 that the labels of one stored key "
                                        f"bring together pass the degree budget of {DISCREPANCY_BUDGET} "
                                        f"at {label!r}", label))

    if len(cfg.components) > DEFAULT_COMPONENT_CAP:
        findings.append(Finding("error", "too-many-components",
                                f"{len(cfg.components)} components exceed the cap of {DEFAULT_COMPONENT_CAP} "
                                f"(subset enumeration cost)", ""))

    if scan.walk > SUBSET_WALK_BUDGET:
        findings.append(Finding("error", "subset-walk-cost",
                                f"the stored strata keys span {scan.walk} label subsets, over the budget "
                                f"of {SUBSET_WALK_BUDGET}", ""))

    used_labels = set().union(*cfg.strata)
    if not used_labels <= seen_labels:
        for key in cfg.strata:
            unknown = [label for label in key if label not in seen_labels]
            if unknown:
                findings.append(Finding("error", "unknown-label",
                                        f"stratum key {','.join(key)} references undeclared {unknown}",
                                        ",".join(key)))
    for comp in cfg.components:
        if comp.label in seen_labels and comp.label not in used_labels:
            findings.append(Finding("warning", "unused-component",
                                    f"component {comp.label!r} appears in no stratum", comp.label))

    # per table, from its figures (low, high, norm, symmetric, top): the
    # ambient, the strata by key, the singular locus; a zero table has none
    flagged = sorted((key, figures) for key, figures in zip(cfg.strata, scan.strata)
                     if not figures[3] or figures[4] > EXPONENT_BUDGET)
    for name, figures in [("ambient", scan.ambient), *((",".join(key), figures) for key, figures in flagged),
                          ("singular_locus", scan.locus)]:
        if figures and not figures[3]:
            findings.append(Finding("error", "uv-asymmetry",
                                    f"polynomial of {name} is not symmetric in u and v", name))
        if figures and figures[4] > EXPONENT_BUDGET:
            findings.append(Finding("error", "exponent-cost",
                                    f"polynomial of {name} has an exponent over the budget of "
                                    f"{EXPONENT_BUDGET}", name))

    if not any(f.code in ("exponent-cost", "discrepancy-cost") for f in findings):
        bits = packed_bits(len(scan.offsets) * (scan.degree + 1), scan.norm << scan.factors)
        if bits > PACKED_BIT_BUDGET:
            findings.append(Finding("error", "packed-size-cost",
                                    f"the formulas' packed numerators take up to {bits} bits, over the "
                                    f"budget of {PACKED_BIT_BUDGET}", ""))

    locus = cfg.singular_locus
    if locus is not None and locus.poly and (len(locus.poly) > 1 or not locus.poly.coefficient(0, 0)):
        findings.append(Finding("warning", "nonisolated-locus",
                                "singular locus is not a finite set of points; local-contribution "
                                "reporting follows the isolated-case convention only",
                                "singular_locus"))

    return tuple(findings)


class _Scan(NamedTuple):
    """The figures of a config's tables, each walked once, and of its
    stored keys (:func:`_table_scan`)."""

    ambient: Union[tuple, None]  # exact_poly._scan's figures, None for a zero table
    strata: list[tuple]  # per stored table, in stored order
    locus: Union[tuple, None]  # the singular locus's, None when absent or zero
    offsets: set[int]  # i - j over the ambient and the strata
    norm: int  # N = |ambient|_1 + sum over stored keys J of 2^|J| |H_J|_1
    walk: int  # sum over stored keys J of 2^|J|, the subsets the walk enumerates
    most: dict[int, int]  # K: per m = a + 1 (a != 0), the most factors (uv)^m - 1 the labels of one stored key give
    degree: int  # the largest min(i, j) in the ambient and the strata, plus the degree of K
    factors: int  # |K|


def _table_scan(cfg: ResolutionConfig) -> _Scan:
    """One pass over the terms of every table (:func:`exact_poly._scan`)
    and over the labels of every stored key, made once per config, whose
    figures serve the lenient findings and the packed layout
    (``engine._packed_strata``, which walks no term but to pack it).  Both
    budgets read K: ``discrepancy-cost`` its degree, ``packed-size-cost``
    the size of that layout, len(offsets) (degree + 1) slots as wide as
    digits up to N 2^|K| need.  A label takes part in K when it is well
    formed and its discrepancy a valid a != 0, at its first declaration."""
    def scan():
        factor: dict[str, int] = {}
        for comp in cfg.components:
            label, a = comp.label, comp.discrepancy
            if (isinstance(label, str) and "," not in label
                    and isinstance(a, int) and not isinstance(a, bool) and a > 0):
                factor.setdefault(label, a + 1)
        offsets: set[int] = set()
        ambient, locus, strata = cfg.ambient.poly, cfg.singular_locus, []
        ambient = _scan(ambient._terms, offsets) if ambient else None
        rows, norm = ambient[1:3] if ambient else (0, 0)
        walk = 0
        most: dict[int, int] = {}
        for key, h in cfg.strata.items():  # stored tables are nonzero
            strata.append(figures := _scan(h.poly._terms, offsets))
            if figures[1] > rows:
                rows = figures[1]
            norm += figures[2] << len(key)
            walk += 2 ** len(key)
            here = [factor[label] for label in key if label in factor]
            for m in here:
                if most.get(m, 0) < (n := here.count(m)):
                    most[m] = n
        locus = _scan(locus.poly._terms, set()) if locus is not None and locus.poly else None
        return _Scan(ambient, strata, locus, offsets, norm, walk, most,
                     rows + sum(m * n for m, n in most.items()), sum(most.values()))
    return cfg._derive("table scan", scan)


def _strict_findings(cfg: ResolutionConfig, lenient: ValidationReport) -> tuple[Finding, ...]:
    """The findings strict mode adds to the lenient ones.  Of the smooth
    projective identities it checks the Serre reflection alone
    (:func:`hodge.serre_findings`): once lenient validation accepts, the
    ambient, the stored tables and their signed sums are u<->v symmetric."""
    findings: list[Finding] = []
    d = cfg.dimension
    if d < 3:
        findings.append(Finding("error", "dimension-too-small",
                                f"strict mode requires dimension >= 3, got {d}", ""))
    bound = (d - 4) // 2
    for comp in cfg.components:
        a = comp.discrepancy
        if isinstance(a, int) and not isinstance(a, bool) and a >= 0 and a <= bound:
            findings.append(Finding("error", "discrepancy-bound",
                                    f"discrepancy {a} of {comp.label!r} violates the bound "
                                    f"> floor((d-4)/2) = {bound} at dimension {d}", comp.label))
    if lenient.accepted and d >= 3:
        closed = convert_strata(cfg, "closed")
        for name, h, dim in [("ambient", cfg.ambient, d)] + [
            (",".join(k), v, d - len(k)) for k, v in sorted(closed.strata.items())
        ]:
            if dim < 0:
                findings.append(Finding("error", "serre-reflection",
                                        f"stratum {name} is an intersection deeper than the dimension",
                                        name))
                continue
            findings += [Finding("error", "serre-reflection", f"closed stratum {name} at dimension {dim}: "
                                 f"{f.message}", name) for f in serre_findings(h.poly, dim)]
    return tuple(findings)


# -- JSON interchange ---------------------------------------------------------

_CONFIG_FIELDS = {"dimension", "ambient", "components", "strata_convention", "strata", "singular_locus"}
_REQUIRED_FIELDS = {"dimension", "ambient", "components", "strata_convention", "strata"}
_COMPONENT_FIELDS = {"label", "discrepancy"}


def _poly_from_triples(raw, where: str, key: Union[str, None] = None) -> BivariatePolynomial:
    """The polynomial of a list of [i, j, c] triples.  An error names the
    table ``where``, or the stratum ``key`` in it, whose text is made only
    then."""
    if type(raw) is list:
        # exact ints, the common case; anything else meets the checks below
        terms: dict[tuple[int, int], int] = {}
        for entry in raw:
            if type(entry) is not list or len(entry) != 3:
                break
            i, j, c = entry
            if type(i) is not int or type(j) is not int or type(c) is not int or i < 0 or j < 0 or not c:
                break
            terms[i, j] = c
        else:
            if len(terms) == len(raw):  # no pair twice
                return _polynomial(terms)
    try:
        if not isinstance(raw, list):
            raise ValueError("expected a list of [i, j, c] triples")
        terms = {}
        for entry in raw:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValueError(f"each term must be a triple [i, j, c], got {entry!r}")
            i, j, c = entry
            if isinstance(i, bool) or isinstance(j, bool) or not isinstance(i, int) or not isinstance(j, int):
                raise ValueError(f"exponents must be integers, got {entry!r}")
            if i < 0 or j < 0:
                raise ValueError(f"exponents must be nonnegative, got {entry!r}")
            c = decode_json_int(c)
            if c == 0:
                raise ValueError(f"zero coefficient at ({i},{j}) must be omitted")
            if (i, j) in terms:
                raise ValueError(f"duplicate exponent pair ({i},{j})")
            terms[(i, j)] = c
    except ValueError as exc:
        raise ConfigFormatError(f"{where}: {exc}" if key is None else f"{where}[{key!r}]: {exc}") from None
    return _polynomial(terms)  # every triple is checked above


def _poly_to_triples(p: BivariatePolynomial) -> list:
    return [[i, j, encode_json_int(c)] for (i, j), c in p.sorted_items()]


def load_config(source: Union[str, Path, bytes, Mapping]) -> ResolutionConfig:
    """Build a ResolutionConfig from the interchange format: a JSON file
    path, the bytes of such a file, or an already-decoded mapping.  Parsing
    is strict; unknown fields and malformed shapes raise ConfigFormatError
    so typos cannot pass silently.  So does a file that cannot be decoded at
    all: bytes that are not UTF-8, invalid JSON, or JSON nested too deeply
    for the parser.  Bytes are read as text the way ``Path.read_text``
    reads a file, with \\r\\n and \\r taken for \\n, so the positions in
    JSON errors are the same whichever is given.
    """
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            data = json.loads(text)
        except UnicodeDecodeError as exc:
            raise ConfigFormatError(f"config is not UTF-8 text: {exc}") from None
        except RecursionError:
            raise ConfigFormatError("invalid JSON: nested too deeply") from None
        except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
            raise ConfigFormatError(f"invalid JSON: {exc}") from None
    else:
        data = source
    # type() first: isinstance against typing's Mapping is the slow path
    if type(data) is not dict and not isinstance(data, Mapping):
        raise ConfigFormatError("config must be a JSON object")

    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigFormatError(f"unknown config fields: {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(data)
    if missing:
        raise ConfigFormatError(f"missing config fields: {sorted(missing)}")

    dimension = data["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise ConfigFormatError(f"dimension must be an integer >= 1, got {dimension!r}")

    convention = data["strata_convention"]
    if convention not in ("open", "closed"):
        raise ConfigFormatError(f"strata_convention must be 'open' or 'closed', got {convention!r}")

    raw_components = data["components"]
    if not isinstance(raw_components, list):
        raise ConfigFormatError("components must be a list")
    components: list[Component] = []
    for idx, raw in enumerate(raw_components):
        if type(raw) is not dict and not isinstance(raw, Mapping):
            raise ConfigFormatError(f"components[{idx}] must be an object")
        extra = set(raw) - _COMPONENT_FIELDS
        if extra:
            raise ConfigFormatError(f"components[{idx}]: unknown fields {sorted(extra)}")
        if set(raw) != _COMPONENT_FIELDS:
            raise ConfigFormatError(f"components[{idx}]: needs exactly 'label' and 'discrepancy'")
        label = raw["label"]
        if not isinstance(label, str):
            raise ConfigFormatError(f"components[{idx}]: label must be a string")
        a = raw["discrepancy"]
        if isinstance(a, bool) or not isinstance(a, int):
            raise ConfigFormatError(f"components[{idx}]: discrepancy must be an integer, got {a!r}")
        components.append(Component(label, a))

    raw_strata = data["strata"]
    if type(raw_strata) is not dict and not isinstance(raw_strata, Mapping):
        raise ConfigFormatError("strata must be an object keyed by comma-joined sorted labels")
    # each key and table is checked once, here: the config takes them as they are
    strata: dict[StratumKey, HodgeDelignePolynomial] = {}
    for raw_key, triples in raw_strata.items():
        if not isinstance(raw_key, str) or not raw_key:
            raise ConfigFormatError(f"stratum key must be a nonempty string, got {raw_key!r}")
        labels = raw_key.split(",")
        if "" in labels:
            raise ConfigFormatError(f"stratum key {raw_key!r} has an empty label")
        if len(labels) > 1 and labels != sorted(set(labels)):
            if labels != sorted(labels):
                raise ConfigFormatError(f"stratum key {raw_key!r} is not sorted")
            raise ConfigFormatError(f"stratum key {raw_key!r} repeats a label")
        poly = _poly_from_triples(triples, "strata", raw_key)
        if poly._terms:  # an empty table is an absent stratum, as in the constructor
            strata[tuple(labels)] = HodgeDelignePolynomial(poly)

    ambient = HodgeDelignePolynomial(_poly_from_triples(data["ambient"], "ambient"),
                                     claimed_dimension=dimension)
    singular = None
    if "singular_locus" in data:
        singular = HodgeDelignePolynomial(_poly_from_triples(data["singular_locus"], "singular_locus"))

    return _checked_config(dimension, ambient, tuple(components), convention, strata, singular)


def config_to_dict(cfg: ResolutionConfig) -> dict:
    """The inverse of load_config, emitting the interchange shape."""
    out: dict = {
        "dimension": cfg.dimension,
        "ambient": _poly_to_triples(cfg.ambient.poly),
        "components": [{"label": c.label, "discrepancy": c.discrepancy} for c in cfg.components],
        "strata_convention": cfg.convention,
        "strata": {",".join(key): _poly_to_triples(val.poly) for key, val in sorted(cfg.strata.items())},
    }
    if cfg.singular_locus is not None:
        out["singular_locus"] = _poly_to_triples(cfg.singular_locus.poly)
    return out
