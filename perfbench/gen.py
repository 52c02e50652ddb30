"""Seeded input generators and workload definitions for the benchmark.

A workload is a list of passes.  A pass is one batch CLI command over one
directory of generated config files, so the program sees only those files.
The same seed writes byte-identical files.

A config's cost is set by its shape: which strata exist, the discrepancies,
the degrees and positions of the terms.  Drawn from the seed, the shapes
moved the median and 90th-percentile file times by 10-30 % between seeds
(few costly files on ``ladder`` and ``series``, a long tail on ``corpus``).
So every workload draws its shapes from a stream fixed per workload, and the
seed draws every coefficient: that changes every value the program
computes, and so what the output check sees, but hardly the cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

LENIENT_FILES = 1000
STRICT_PER_DIMENSION = 60
# components -> configs per discrepancy cap: few of the costly rungs keep a
# round within the run time while every rung spans every cap
LADDER_RUNGS = {4: 4, 8: 17, 12: 3, 16: 1}
LADDER_CAPS = (5, 10, 15, 20, 25, 30)
SERIES_FILES = 40
SERIES_HORIZONS = (50, 200, 800)
DECOMPOSE_PAIRS = "0,0;1,0;1,1;2,0;2,1;3,0"


@dataclass(frozen=True)
class Pass:
    """One CLI batch call: ``stringy <command> <dir> <options...>``."""

    name: str
    command: str
    options: tuple[str, ...]

    @property
    def fmt(self) -> str:
        return "json" if "json" in self.options else "text"

    def argv(self, directory: Path) -> list[str]:
        return [self.command, str(directory), *self.options]


# -- polynomial tables ---------------------------------------------------------
# ``shape`` draws how many terms and where, ``values`` the coefficients.


def _symmetric_terms(shape: random.Random, values: random.Random, max_exp: int, max_terms: int,
                     max_coeff: int = 9) -> dict:
    """u<->v symmetric sparse table built from orbit sums."""
    terms: dict = {}
    for _ in range(shape.randint(1, max_terms)):
        i, j = shape.randint(0, max_exp), shape.randint(0, max_exp)
        c = values.choice([x for x in range(-max_coeff, max_coeff + 1) if x])
        for pair in {(i, j), (j, i)}:
            terms[pair] = terms.get(pair, 0) + c
    return {k: c for k, c in terms.items() if c}


def _serre_terms(shape: random.Random, values: random.Random, dim: int, max_terms: int, *,
                 force_00: bool = False, force_10: bool = False) -> dict:
    """Orbit sums over {(i,j),(j,i),(dim-i,dim-j),(dim-j,dim-i)}: u<->v
    symmetric and Serre-reflective at the given dimension."""
    terms: dict = {}

    def add_orbit(i, j, c):
        for pair in {(i, j), (j, i), (dim - i, dim - j), (dim - j, dim - i)}:
            terms[pair] = terms.get(pair, 0) + c

    for _ in range(shape.randint(1, max_terms)):
        add_orbit(shape.randint(0, dim), shape.randint(0, dim), values.choice([-3, -2, -1, 1, 2, 3]))
    if force_00 and not terms.get((0, 0)):
        add_orbit(0, 0, values.choice([1, 2, 3]))
    if force_10 and not terms.get((1, 0)):
        add_orbit(1, 0, values.choice([-2, -1, 1, 2]))
    return {k: c for k, c in terms.items() if c}


def _triples(terms: dict) -> list:
    return [[i, j, c] for (i, j), c in sorted(terms.items())]


def _config(d: int, ambient: dict, discrepancies: dict, convention: str, strata: dict,
            singular_locus: dict | None = None) -> dict:
    cfg = {
        "dimension": d,
        "ambient": _triples(ambient),
        "components": [{"label": lbl, "discrepancy": a} for lbl, a in discrepancies.items()],
        "strata_convention": convention,
        "strata": {",".join(key): _triples(terms) for key, terms in sorted(strata.items()) if terms},
    }
    if singular_locus is not None:
        cfg["singular_locus"] = _triples(singular_locus)
    return cfg


def _labels(n: int) -> list[str]:
    # zero-padded so that string order is numeric order in stratum keys
    return [f"E{k:02d}" for k in range(1, n + 1)]


# -- config shapes ---------------------------------------------------------------


def lenient_config(shape: random.Random, values: random.Random) -> dict:
    """Any lattice-consistent table: d 1-6, up to 6 components, a 0-5, either
    convention, plus a one-point singular locus for ``compute --local``."""
    d = shape.randint(1, 6)
    labels = _labels(shape.randint(0, 6))
    discrepancies = {lbl: shape.randint(0, 5) for lbl in labels}
    ambient = _symmetric_terms(shape, values, d, 5) or {(0, 0): 1}
    strata: dict = {}
    for size in range(1, len(labels) + 1):
        for _ in range(shape.randint(0, 2)):
            key = tuple(sorted(shape.sample(labels, size)))
            if key not in strata:
                strata[key] = _symmetric_terms(shape, values, max(d - size, 0), 4)
    convention = shape.choice(["open", "closed"])
    return _config(d, ambient, discrepancies, convention, strata, {(0, 0): 1})


def strict_config(shape: random.Random, values: random.Random, d: int) -> dict:
    """Strict-valid closed-convention config with a planted boundary
    discrepancy, so the decomposition's R term is reached for d >= 4."""
    bound = (d - 4) // 2
    target = d // 2 - 1 if d % 2 == 0 else (d - 3) // 2
    labels = _labels(shape.randint(1, 4))
    discrepancies = {lbl: shape.randint(bound + 1, 5) for lbl in labels}
    planted = shape.choice(labels)
    discrepancies[planted] = target
    ambient = _serre_terms(shape, values, d, 5, force_00=True)
    strata = {(planted,): _serre_terms(shape, values, d - 1, 4, force_00=True, force_10=d % 2 == 1)}
    for size in range(1, len(labels) + 1):
        for _ in range(shape.randint(0, 2)):
            key = tuple(sorted(shape.sample(labels, size)))
            if key not in strata and d - size >= 0:
                strata[key] = _serre_terms(shape, values, d - size, 3)
    return _config(d, ambient, discrepancies, "closed", strata)


def ladder_config(shape: random.Random, values: random.Random, n: int, cap: int) -> dict:
    """One big resolution: d 4-8, a 1-cap, every component has a closed
    self-stratum, each pair stratum is present with p = 0.3 and each triple
    with p = 0.05."""
    d = shape.randint(4, 8)
    labels = _labels(n)
    discrepancies = {lbl: shape.randint(1, cap) for lbl in labels}
    ambient = _symmetric_terms(shape, values, d, 5) or {(0, 0): 1}
    strata = {(lbl,): _symmetric_terms(shape, values, d - 1, 4) or {(0, 0): 1} for lbl in labels}
    for size, p in ((2, 0.3), (3, 0.05)):
        for key in combinations(labels, size):
            if shape.random() < p:
                strata[key] = _symmetric_terms(shape, values, d - size, 3)
    return _config(d, ambient, discrepancies, "closed", strata)


def series_config(shape: random.Random, values: random.Random) -> dict:
    """A moderate config, n 4-8 and d 2-5, whose denominator carries several
    small-m factors (a <= 4), so deep expansions dominate the cost."""
    d = shape.randint(2, 5)
    labels = _labels(shape.randint(4, 8))
    discrepancies = {lbl: shape.randint(1, 4) for lbl in labels}
    ambient = _symmetric_terms(shape, values, d, 5) or {(0, 0): 1}
    strata = {(lbl,): _symmetric_terms(shape, values, d - 1, 4) or {(0, 0): 1} for lbl in labels}
    for key in combinations(labels, 2):
        if shape.random() < 0.2:
            strata[key] = _symmetric_terms(shape, values, d - 2, 3)
    convention = shape.choice(["open", "closed"])
    return _config(d, ambient, discrepancies, convention, strata)


# -- workloads -----------------------------------------------------------------


def _write(directory: Path, configs: list[dict]) -> None:
    directory.mkdir(parents=True)
    for k, cfg in enumerate(configs):
        (directory / f"{k:04d}.json").write_text(json.dumps(cfg, sort_keys=True) + "\n")


def corpus(shape: random.Random, values: random.Random, root: Path) -> list[Pass]:
    """Why: many small configs, the documented batch use.  Per-file fixed
    costs dominate: ``validate`` runs four times per ``compute --local``
    file and E_closed is evaluated twice.  The strict pass is the only
    traffic for ``hodge`` and ``decompose``."""
    _write(root / "lenient", [lenient_config(shape, values) for _ in range(LENIENT_FILES)])
    _write(root / "strict", [strict_config(shape, values, d)
                             for d in (3, 4, 5, 6) for _ in range(STRICT_PER_DIMENSION)])
    return [
        Pass("lenient", "compute", ("--local", "--format", "json", "--horizon", "20")),
        Pass("strict", "decompose", ("--format", "json", "--pairs", DECOMPOSE_PAIRS)),
    ]


def ladder(shape: random.Random, values: random.Random, root: Path) -> list[Pass]:
    """Why: single big resolutions.  The two formulas and the agreement check
    are nearly all of an item while expansion and rendering do almost
    nothing, so this carries canonical cancellation and one-pass evaluation,
    and is the bypass for expansion changes."""
    configs = [ladder_config(shape, values, n, cap)
               for n, repeats in LADDER_RUNGS.items() for cap in LADDER_CAPS for _ in range(repeats)]
    # interleave the rungs in processing order, so that a slow spell of the
    # machine touches every rung a little instead of one rung a lot
    shape.shuffle(configs)
    _write(root / "ladder", configs)
    return [Pass("ladder", "compute", ("--format", "json"))]


def series(shape: random.Random, values: random.Random, root: Path) -> list[Pass]:
    """Why: deep expansions.  At horizon 800 expansion is most of an item,
    and this is the only workload where rendering and the verdict scans
    handle thousands of terms.  ``exact_poly`` does convolution here and
    accumulate-and-cancel on ``ladder``.  Horizon 3200 is left out: about
    9 s per item."""
    _write(root / "series", [series_config(shape, values) for _ in range(SERIES_FILES)])
    return [Pass("series", command, ("--horizon", str(h)))
            for command in ("compute", "check") for h in SERIES_HORIZONS]


WORKLOADS = {"corpus": corpus, "ladder": ladder, "series": series}


def generate(workload: str, seed: int, root: Path) -> list[Pass]:
    """Write the workload's input directories under root and return its passes."""
    shape = random.Random(f"{workload} shapes")
    values = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](shape, values, root)
