"""Value checks of the program's outputs, made after the timed region.

Nothing here compares bytes or canonical forms, so a change that prints the
same value in another form still passes, while a wrong value fails:

* E_st and the local contribution are compared with an independent
  evaluation of the input's closed-strata formula at fixed integer points;
* a reported series is checked against the reported E_st with
  ``binomial_series_check`` from the test oracles;
* polynomiality is decided by long division of the reported E_st, duality
  by the functional equation at the same points, nonnegativity by scanning
  the verified series;
* decomposition rows are compared with the naive series oracle and must
  satisfy ``direct == c + alt + R``.

Every check returns a list of problems (empty when the output is right) and
the exit code the program should give for that file.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations

import oracles  # tests/oracles.py: independent reference implementations

POINTS = ((2, 3), (-3, 5))


def _poly(triples) -> dict:
    return {(i, j): int(c) for i, j, c in triples}


def _at(poly: dict, u, v) -> Fraction:
    u, v = Fraction(u), Fraction(v)
    return sum((c * u ** i * v ** j for (i, j), c in poly.items()), Fraction(0))


def _subsets(key: tuple):
    for size in range(1, len(key) + 1):
        yield from combinations(key, size)


class Reference:
    """An input config, evaluated without the package under test."""

    def __init__(self, cfg: dict):
        self.d = cfg["dimension"]
        self.ambient = _poly(cfg["ambient"])
        self.discrepancy = {c["label"]: c["discrepancy"] for c in cfg["components"]}
        self.convention = cfg["strata_convention"]
        self.strata = {tuple(k.split(",")): _poly(v) for k, v in cfg["strata"].items()}
        self.singular_locus = _poly(cfg["singular_locus"]) if "singular_locus" in cfg else None
        self._e: dict = {}

    def _closed_at(self, u, v) -> dict:
        values = {key: _at(poly, u, v) for key, poly in self.strata.items()}
        if self.convention == "closed":
            return values
        closed: dict = {}
        for key, value in values.items():
            for sub in _subsets(key):
                closed[sub] = closed.get(sub, 0) + value
        return closed

    def e_st(self, u, v) -> Fraction:
        """sum over I of H(D_I) * prod_{i in I} (t - t^{a_i+1}) / (t^{a_i+1} - 1)."""
        if (u, v) not in self._e:
            t = Fraction(u) * Fraction(v)
            total = _at(self.ambient, u, v)
            for key, value in self._closed_at(u, v).items():
                for label in key:
                    e = self.discrepancy[label] + 1
                    value *= (t - t ** e) / (t ** e - 1)
                total += value
            self._e[(u, v)] = total
        return self._e[(u, v)]

    def local_contribution(self, u, v) -> Fraction:
        union = sum((value if len(key) % 2 else -value)
                    for key, value in self._closed_at(u, v).items())
        return self.e_st(u, v) - (_at(self.ambient, u, v) - union)

    def is_self_dual(self) -> bool:
        return all(self.e_st(u, v) == (Fraction(u) * v) ** self.d * self.e_st(Fraction(1, u), Fraction(1, v))
                   for u, v in POINTS)

    def series(self, horizon: int) -> dict:
        """The naive open-strata series oracle, to total degree ``horizon``."""
        if self.convention == "open":
            table = self.strata
        else:
            table = oracles.full_lattice_open_from_closed(sorted(self.discrepancy), self.strata)
        return oracles.stringy_series_oracle(self.d, self.ambient, self.discrepancy, table, horizon)


def _value_problems(ref: Reference, what: str, num: dict, den: list, want) -> list[str]:
    if any(not isinstance(m, int) or m < 1 for m in den):
        return [f"{what}: bad denominator {den}"]
    return [f"{what} is wrong at (u, v) = ({u}, {v})" for u, v in POINTS
            if oracles.exact_fraction_eval(num, den, u, v) != want(u, v)]


def polynomial_value(num: dict, den: list):
    """The polynomial num / prod((uv)^m - 1) equals, or None if it is not one."""
    for m in den:
        num, remainder = oracles.long_divide_by_cyclo(num, m)
        if remainder:
            return None
    return num


def _series_problems(num: dict, den: list, series: dict, horizon: int) -> list[str]:
    problems = []
    if any(i + j > horizon for i, j in series):
        problems.append("series has terms beyond its horizon")
    if not oracles.binomial_series_check(series, den, num, horizon):
        problems.append("series does not expand the reported E_st")
    return problems


def _shape_problems(num: dict, den: list, polynomial: bool, truncated: bool, horizon: int) -> list[str]:
    value = polynomial_value(num, den)
    problems = []
    if polynomial != (value is not None):
        problems.append(f"polynomial flag {polynomial} is wrong")
    if truncated != (value is None or any(i + j > horizon for i, j in value)):
        problems.append(f"truncated flag {truncated} is wrong")
    return problems


# -- json outputs -------------------------------------------------------------------


def check_compute_json(ref: Reference, text: str, horizon: int | None, local: bool) -> tuple[list[str], int]:
    try:
        doc = json.loads(text)
        if doc.get("exit_code") != 0 or "error" in doc:
            return [f"unexpected exit code {doc.get('exit_code')}: {doc.get('error', '')}"], 0
        horizon = 2 * ref.d if horizon is None else horizon
        problems = [] if doc["agree"] is True else ["the two formulas disagree"]
        num, den = _poly(doc["e_st"]["num"]), list(doc["e_st"]["den"])
        problems += _value_problems(ref, "E_st", num, den, ref.e_st)
        series = doc["series"]
        if series["horizon"] != horizon:
            problems.append(f"series horizon {series['horizon']} is not {horizon}")
        problems += _series_problems(num, den, _poly(series["coefficients"]), horizon)
        problems += _shape_problems(num, den, doc["polynomial"], series["truncated"], horizon)
        if local:
            lc = doc["local_contribution"]
            problems += _value_problems(ref, "local contribution", _poly(lc["num"]), list(lc["den"]),
                                        ref.local_contribution)
            if _poly(doc["singular_locus"]) != ref.singular_locus:
                problems.append("singular locus differs from the input")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"], 0
    return problems, 0


def check_decompose_json(ref: Reference, text: str, pairs: list[tuple[int, int]]) -> tuple[list[str], int]:
    try:
        doc = json.loads(text)
        if doc.get("exit_code") != 0 or "error" in doc:
            return [f"unexpected exit code {doc.get('exit_code')}: {doc.get('error', '')}"], 0
        problems = [f"pair rejected: {r}" for r in doc["rejected"]]
        want = ref.series(ref.d)
        rows = {(row["i"], row["j"]): row for row in doc["rows"]}
        if set(rows) != {(max(i, j), min(i, j)) for i, j in pairs}:
            problems.append(f"rows {sorted(rows)} do not answer the pairs")
        for (i, j), row in rows.items():
            direct, c, alt = int(row["direct"]), int(row["c_term"]), int(row["alternating_sum"])
            r, s, implied = int(row["r_term"]), int(row["s_term"]), int(row["implied_hodge_dim"])
            if direct != want.get((i, j), 0):
                problems.append(f"b_{{{i},{j}}} = {direct}, oracle {want.get((i, j), 0)}")
            if c != ref.ambient.get((i, j), 0):
                problems.append(f"c_{{{i},{j}}} = {c} is not the ambient coefficient")
            if direct != c + alt + r:
                problems.append(f"row ({i},{j}): direct != c + alt + R")
            if implied != (-1) ** (i + j) * direct - s or row["flagged"] != (implied < 0):
                problems.append(f"row ({i},{j}): implied dimension or flag is wrong")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"], 0
    return problems, 0


# -- text outputs ----------------------------------------------------------------------

_MONOMIAL = re.compile(r"(u(?:\^(\d+))?)?(?: ?(v(?:\^(\d+))?))?")
_DIAGONAL = re.compile(r"\(uv\)\^(\d+)")
_FACTOR = re.compile(r"\(\(uv\)\^(\d+) - 1\)|\(uv - 1\)")


def _monomial(text: str) -> tuple[int, int]:
    if text == "uv":
        return 1, 1
    m = _DIAGONAL.fullmatch(text)
    if m:
        return int(m[1]), int(m[1])
    m = _MONOMIAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a monomial: {text!r}")
    i = (int(m[2]) if m[2] else 1) if m[1] else 0
    j = (int(m[4]) if m[4] else 1) if m[3] else 0
    return i, j


def parse_polynomial(text: str) -> dict:
    """Invert the renderer's text form, e.g. ``-1 + 2u v + 3(uv)^2``."""
    if text == "0":
        return {}
    tokens = re.split(r" ([+-]) ", text)
    signs, bodies = ["+", *tokens[1::2]], tokens[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = "-", bodies[0][1:]
    terms: dict = {}
    for sign, body in zip(signs, bodies):
        m = re.fullmatch(r"(\d*)(.*)", body)
        pair = _monomial(m[2])
        if pair in terms or (not m[1] and not m[2]):
            raise ValueError(f"bad term {body!r}")
        c = int(m[1]) if m[1] else 1
        terms[pair] = -c if sign == "-" else c
    return terms


def parse_rational(text: str) -> tuple[dict, list[int]]:
    """Invert ``(N) / ((uv)^m - 1)...`` or a bare polynomial."""
    cut = text.rfind(") / ")
    if not text.startswith("(") or cut < 0:
        return parse_polynomial(text), []
    den_text = text[cut + 4:]
    factors = [int(m[1]) if m[1] else 1 for m in _FACTOR.finditer(den_text)]
    if "".join(m[0] for m in _FACTOR.finditer(den_text)) != den_text:
        raise ValueError(f"bad denominator {den_text!r}")
    return parse_polynomial(text[1:cut]), factors


def check_compute_text(ref: Reference, text: str, horizon: int) -> tuple[list[str], int, tuple | None]:
    """Also returns the verified (num, den, series) for the check pass."""
    lines = text.splitlines()
    try:
        head, series_line, rest = lines[0], lines[1], lines[2:]
        if not head.startswith("E_st = ") or not series_line.startswith("series = "):
            raise ValueError("unexpected line layout")
        body = head[len("E_st = "):]
        polynomial = body.endswith(" (polynomial)")
        num, den = parse_rational(body.removesuffix(" (polynomial)"))
        series_body = series_line[len("series = "):]
        truncated = series_body.endswith(" + ...")
        series = parse_polynomial(series_body.removesuffix(" + ..."))
    except (IndexError, ValueError) as exc:
        return [f"malformed output: {exc}"], 0, None
    problems = _value_problems(ref, "E_st", num, den, ref.e_st)
    problems += _series_problems(num, den, series, horizon)
    problems += _shape_problems(num, den, polynomial, truncated, horizon)
    problems += [f"unexpected line {line!r}" for line in rest if not line.startswith("warning: ")]
    return problems, 0, (None if problems else (num, den, series))


def check_check_text(ref: Reference, text: str, verified: tuple | None) -> tuple[list[str], int]:
    """``verified`` is the compute pass's (num, den, series) at the same horizon."""
    if verified is None:
        return ["no verified E_st for this file"], 1
    num, den, series = verified
    d = ref.d
    dual = ref.is_self_dual()
    value = polynomial_value(num, den)
    violations, notes = [], []
    for (i, j), b in series.items():
        if (-1) ** (i + j) * b < 0:
            (violations if i + j <= d else notes).append(f"b_{{{i},{j}}} = {b}")
    expected_code = 0 if dual and value is not None and not violations else 1

    lines = text.splitlines()
    problems = []
    duality = [line for line in lines if line.startswith("duality: ")]
    if len(duality) != 1 or not (duality[0] == "duality: PASS" if dual
                                 else duality[0].startswith("duality: FAIL at ")):
        problems.append(f"duality verdict {duality} is wrong")
    verdict = [line for line in lines if line.startswith("polynomial: ")]
    if value is None:
        if len(verdict) != 1 or not verdict[0].startswith("polynomial: NOT POLYNOMIAL at "):
            problems.append(f"polynomial verdict {verdict} is wrong")
    elif len(verdict) != 1 or not verdict[0].startswith("polynomial: POLYNOMIAL = ") or \
            parse_polynomial(verdict[0][len("polynomial: POLYNOMIAL = "):]) != value:
        problems.append(f"polynomial verdict {verdict} is wrong")
    nonneg = [line for line in lines if line.startswith("nonneg: ")]
    want = f"nonneg: PASS (i+j <= {d})" if not violations else f"nonneg: FAIL ({len(violations)} violation(s))"
    if nonneg != [want]:
        problems.append(f"nonnegativity verdict {nonneg} is not {want!r}")
    got_violations = sorted(line[len("violation: "):] for line in lines if line.startswith("violation: "))
    got_notes = sorted(line[len("note: "):].removesuffix(" beyond range")
                       for line in lines if line.startswith("note: "))
    if got_violations != sorted(violations) or got_notes != sorted(notes):
        problems.append("nonnegativity violations or notes are wrong")
    known = ("duality: ", "polynomial: ", "nonneg: ", "violation: ", "note: ")
    problems += [f"unexpected line {line!r}" for line in lines if not line.startswith(known)]
    return problems, expected_code
