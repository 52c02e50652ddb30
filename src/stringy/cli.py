"""Batch-oriented command line: compute, check, decompose, validate.

Each input is a config file in the JSON interchange format, or a directory
of them (every *.json inside, processed independently, output buffered per
file).  Exit codes: 0 all verdicts pass, 1 a verdict failed or an internal
inconsistency surfaced, 2 input error, 3 some decomposition pairs rejected;
a batch exits with the worst per-file code.

The json format is loss-free and byte-stable: keys are sorted, indentation
is fixed, timings are integer microseconds, and any integer beyond signed
64-bit range is a decimal string.  Each report is exactly the standard
``json`` module's ``dumps(report, sort_keys=True, indent=2) + "\n"``,
written by one writer (:func:`_json_text`), which reads polynomial terms
only when a report is written.  A flat numerator or series (one on its
skewed layout, see ``exact_poly``) is written from its nonzero values and
the text of a triple up to its coefficient kept per layout position, with
no term map; any other polynomial from ``sorted_items()``.  A dict is
written from its sorted keys' ``"key": `` heads, kept per shape (keys in
insertion order and indentation).  A file is read by one unbuffered read.
``check`` expands E_st once: its sign anomalies are found by position and
written from heads kept per layout position, and the polynomial witness is
read from that expansion when it reaches far enough.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .engine import (
    CheckOutcome,
    NotPolynomial,
    _polynomial_verdict,
    _sign_anomalies,
    check_duality,
    check_nonnegativity,
    check_symmetry,
    compute,
    decompose_coefficients,
    local_contribution,
)
from .exact_poly import (
    _DECIMAL_PIECE_BOUND,
    _I64_MAX,
    _I64_MIN,
    PackedSizeError,
    StringyRational,
    decimal_str,
    encode_json_int,
)
from .render import (
    _LayoutStrings,
    polynomial_latex,
    polynomial_text,
    rational_latex,
    rational_text,
    series_latex,
    series_text,
)
from .resolution import SERIES_BUDGET, load_config, validate
from .validation import ConfigFormatError, ConfigValidationError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_PARTIAL = 3

_PROP_34_NOTE = ("implied Hodge dimensions assume the resolution is an isomorphism "
                 "over the smooth locus; the config format cannot express that hypothesis")


class _InputError(Exception):
    """Anything wrong with the input file; rendered to the user, exit 2."""


class _Triples:
    """Terms ((i, j), c) in output order, written as [[i, j, c], ...] with
    encode_json_int's rule for c.  Holds the function that gives them and
    calls it only when the writer writes them, so a text run, which writes
    no report, neither orders nor copies any terms.  The terms of a flat
    polynomial or series are written from its values and layout (``flat``)
    instead, with no term map and no pair."""

    __slots__ = ("terms", "flat")

    def __init__(self, terms, flat=None):
        self.terms, self.flat = terms, flat


def _triples(poly) -> _Triples:
    return _Triples(poly.sorted_items, poly._flat)


def _triple_head(i: int, j: int, template: str) -> str:
    return template % (i, j)


def _quoted(c: int) -> str:
    """The JSON text of ``encode_json_int(c)`` for ``c`` beyond signed 64 bits."""
    return '"' + decimal_str(c) + '"'


# per layout and indentation: the text of a triple up to its coefficient at
# every position, bounded like the renderer's monomials
_LAYOUT_TRIPLES = _LayoutStrings()


# per dict shape (indentation, keys in insertion order): the sorted keys with
# their heads, the inner indentation and the close; bounded against input keys
_DICT_SHAPES_CAP = 1 << 10
_DICT_SHAPES: dict = {}
# the writer's types, looked up exactly; a subclass is written as its base
_JSON_TYPES = (str, int, bool, type(None), dict, list, _Triples)


def _write_json(value, pad: str, out: list) -> None:
    """Append to ``out`` the text that the ``json`` module's
    ``dumps(value, sort_keys=True, indent=2)`` gives for ``value``, nested at
    indentation ``pad``.  Takes dict (str keys), list, str, int, bool, None
    and :class:`_Triples`, and subclasses of them; any other type raises
    ``TypeError``."""
    kind = type(value)
    if kind not in _JSON_TYPES:
        kind = next((base for base in _JSON_TYPES if isinstance(value, base)), kind)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        kept = _DICT_SHAPES.get(shape := (pad, *value))
        if kept is None:
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            inner = pad + "  "
            kept = ([(key, ("," if n else "{") + "\n" + inner + encode_basestring_ascii(key) + ": ")
                     for n, key in enumerate(sorted(value))], inner, "\n" + pad + "}" if value else "{}")
            if len(_DICT_SHAPES) >= _DICT_SHAPES_CAP:
                _DICT_SHAPES.clear()
            _DICT_SHAPES[shape] = kept
        heads, inner, close = kept
        for key, head in heads:
            out.append(head)
            _write_json(value[key], inner, out)
        out.append(close)
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif kind is _Triples:
        row = "\n" + pad + "  "  # pad is spaces only, so no % in the templates
        cell = row + "  "
        lo, hi = _I64_MIN, _I64_MAX  # encode_json_int's rule, inlined
        if value.flat is None:
            texts = [f"{row}[{cell}{i:d},{cell}{j:d},{cell}{c if lo <= c <= hi else _quoted(c)}"
                     for (i, j), c in value.terms()]
        else:
            template = row + "[" + cell + "%d," + cell + "%d," + cell
            texts = [f"{piece}{c if lo <= c <= hi else _quoted(c)}"
                     for piece, c in _LAYOUT_TRIPLES.terms(*value.flat, _triple_head, template)]
        if not texts:
            out.append("[]")
            return
        end = row + "]"
        out.append("[" + (end + ",").join(texts) + end + "\n" + pad + "]")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value) -> str:
    """The ``json`` module's ``dumps(value, sort_keys=True, indent=2)``, with
    :class:`_Triples` written as the lists they stand for."""
    out: list = []
    _write_json(value, "", out)
    return "".join(out)


def _rational_json(x: StringyRational) -> dict:
    return {"num": _triples(x.numerator), "den": list(x.denominator.factors)}


def _series_json(series, truncated: bool) -> dict:
    return {
        "horizon": series.horizon,
        "truncated": truncated,
        "coefficients": _triples(series),
    }


def _render_polynomial(p, fmt: str) -> str:
    return polynomial_latex(p) if fmt == "latex" else polynomial_text(p)


def _render_rational(x: StringyRational, fmt: str) -> str:
    return rational_latex(x) if fmt == "latex" else rational_text(x)


def _render_series(series, continues: bool, fmt: str) -> str:
    return series_latex(series, continues) if fmt == "latex" else series_text(series, continues)


def _series(result):
    """The expansion of E_st, refused up front when it would compute more
    coefficients than the budget allows."""
    size = result.series_size
    if size > SERIES_BUDGET:
        raise _InputError(f"series-cost: expanding to horizon {result.horizon} computes {size} "
                          f"coefficients, over the budget of {SERIES_BUDGET}")
    return result.series


def _read(path: Path) -> bytes:
    try:
        with path.open("rb", buffering=0) as raw:
            return raw.readall()
    except OSError as exc:
        raise _InputError(str(exc)) from None


def _load(data: bytes):
    try:
        return load_config(data)
    except ConfigFormatError as exc:
        raise _InputError(str(exc)) from None


def _load_and_validate(data: bytes, mode: str):
    cfg = _load(data)
    report = validate(cfg, mode)
    if not report.accepted:
        lines = [f.describe() for f in report.findings]
        raise _InputError("config rejected:\n  " + "\n  ".join(lines))
    return cfg, report


def _cmd_compute(data: bytes, args, out: list[str]) -> tuple[int, dict]:
    mode = "strict" if args.strict else "lenient"
    cfg, report = _load_and_validate(data, mode)
    horizon = args.horizon if args.horizon is not None else 2 * cfg.dimension
    result = compute(cfg, horizon)
    polynomial = result.e_open.is_polynomial
    truncated = not polynomial or result.e_open.numerator.total_degree() > horizon
    series = _series(result)

    payload: dict = {
        "dimension": cfg.dimension,
        "agree": result.agree,
        "e_st": _rational_json(result.e_open),
        "polynomial": polynomial,
        "series": _series_json(series, truncated),
        "warnings": [f.describe() for f in report.warnings],
    }
    lines = args.format != "json"
    if lines:
        suffix = " (polynomial)" if polynomial else ""
        out.append(f"E_st = {_render_rational(result.e_open, args.format)}{suffix}")
        out.append(f"series = {_render_series(series, truncated, args.format)}")
        out.extend(f.describe() for f in report.warnings)

    code = EXIT_OK
    if not result.agree:
        out.append("internal error: the open- and closed-strata formulas disagree")
        code = EXIT_FAILED

    if args.local:
        if cfg.singular_locus is None:
            raise _InputError("--local needs the config's singular_locus")
        local = local_contribution(cfg)
        payload["local_contribution"] = _rational_json(local)
        payload["singular_locus"] = _triples(cfg.singular_locus.poly)
        if lines:
            out.append(f"local contribution = {_render_rational(local, args.format)}")
            out.append(f"singular locus = {_render_polynomial(cfg.singular_locus.poly, args.format)}")
    return code, payload


# the head of a sign anomaly's line, and per layout that head at every position
_nonneg_head = "b_{{{},{}}} = ".format
_NONNEG_HEADS = _LayoutStrings()


def _nonneg(series, d: int) -> tuple[int, list, _Triples, _Triples]:
    """How many sign anomalies lie in i + j <= d, (head, coefficient) of each
    in output order, and the violations and notes for JSON: a flat series'
    from their positions, with heads kept per layout position; a sparse
    one's from ``check_nonnegativity``."""
    if series._flat is None:
        report = check_nonnegativity(series, d)
        return (len(report.violations),
                [(_nonneg_head(i, j), b) for i, j, b in report.violations + report.beyond_notes],
                *(_Triples(lambda part=part: [((i, j), b) for i, j, b in part])
                  for part in (report.violations, report.beyond_notes)))
    positions, inside = _sign_anomalies(series, d)
    values, layout = series._flat
    return (inside, _NONNEG_HEADS.terms(values, layout, _nonneg_head, at=positions),
            *(_Triples(lambda at=at: [(layout.pair(p), values[p]) for p in at])
              for at in (positions[:inside], positions[inside:])))


def _record_outcome(name: str, outcome: CheckOutcome, checks: dict, out: list[str], lines: bool) -> bool:
    checks[name] = {
        "passed": outcome.passed,
        "witness": list(outcome.witness) if outcome.witness else None,
    }
    if lines:
        out.append(f"{name}: PASS" if outcome.passed else
                   f"{name}: FAIL at ({outcome.witness[0]},{outcome.witness[1]}) ({outcome.detail})")
    return outcome.passed


def _cmd_check(data: bytes, args, out: list[str]) -> tuple[int, dict]:
    mode = "strict" if args.strict else "lenient"
    cfg, _ = _load_and_validate(data, mode)
    d = cfg.dimension
    wanted = [name for name, on in
              (("duality", args.duality), ("symmetry", args.symmetry),
               ("polynomial", args.polynomial), ("nonneg", args.nonneg))
              if on]
    if not wanted:
        wanted = ["duality", "polynomial", "nonneg"]

    horizon = args.horizon if args.horizon is not None else 2 * d
    if "nonneg" in wanted:
        horizon = max(horizon, d)
    result = compute(cfg, horizon)
    if not result.agree:
        out.append("internal error: the open- and closed-strata formulas disagree")
        return EXIT_FAILED, {"dimension": d, "agree": False}

    checks: dict = {}
    all_passed = True
    lines = args.format != "json"

    if "duality" in wanted:
        all_passed &= _record_outcome("duality", check_duality(result.e_open, d), checks, out, lines)
    if "symmetry" in wanted:
        all_passed &= _record_outcome("symmetry", check_symmetry(result.e_open), checks, out, lines)

    if "polynomial" in wanted:
        # the expansion --nonneg reads holds the witness's when it reaches far enough
        verdict = _polynomial_verdict(result.e_open, d, _series(result) if "nonneg" in wanted else None)
        if isinstance(verdict, NotPolynomial):
            all_passed = False
            checks["polynomial"] = {
                "polynomial": False,
                "witness": list(verdict.witness),
                "reason": verdict.reason,
            }
            if lines:
                out.append(f"polynomial: NOT POLYNOMIAL at ({verdict.witness[0]},{verdict.witness[1]}) "
                           f"({verdict.reason})")
        else:
            checks["polynomial"] = {"polynomial": True, "value": _triples(verdict.value)}
            if lines:
                out.append(f"polynomial: POLYNOMIAL = {_render_polynomial(verdict.value, args.format)}")

    if "nonneg" in wanted:
        inside, wrong, violations, notes = _nonneg(_series(result), d)
        checks["nonneg"] = {"passed": not inside, "violations": violations, "notes": notes}
        all_passed &= not inside
        if lines:
            small = _DECIMAL_PIECE_BOUND  # decimal_str's own test, inlined: an int formats as str below it
            out.append(f"nonneg: FAIL ({inside} violation(s))" if inside else f"nonneg: PASS (i+j <= {d})")
            text = [f"violation: {head}{b if -small < b < small else decimal_str(b)}"
                    for head, b in wrong[:inside]]
            text += [f"note: {head}{b if -small < b < small else decimal_str(b)} beyond range"
                     for head, b in wrong[inside:]]
            if text:
                out.append("\n".join(text))

    payload = {"dimension": d, "agree": True, "checks": checks, "passed": all_passed}
    return (EXIT_OK if all_passed else EXIT_FAILED), payload


def _parse_pairs(raw: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        bits = chunk.split(",")
        if len(bits) != 2:
            raise _InputError(f"--pairs entries must look like 'i,j', got {chunk!r}")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise _InputError(f"--pairs entries must be integers, got {chunk!r}") from None
    if not pairs:
        raise _InputError("--pairs is empty")
    return pairs


def _cmd_decompose(data: bytes, args, out: list[str]) -> tuple[int, dict]:
    cfg, _ = _load_and_validate(data, "strict")
    pairs = _parse_pairs(args.pairs)
    result = decompose_coefficients(cfg, pairs)

    code = EXIT_OK
    rows_json = []
    for row in result.rows:
        rows_json.append({
            "i": row.i, "j": row.j,
            "direct": encode_json_int(row.direct),
            "c_term": encode_json_int(row.c_term),
            "alternating_sum": encode_json_int(row.alternating_sum),
            "r_term": encode_json_int(row.r_term),
            "s_term": encode_json_int(row.s_term),
            "implied_hodge_dim": encode_json_int(row.implied_hodge_dim),
            "flagged": row.flagged,
        })
        if args.format != "json":
            out.append(f"b_{{{row.i},{row.j}}} = {decimal_str(row.direct)} | c = {decimal_str(row.c_term)}, "
                       f"alt = {decimal_str(row.alternating_sum)}, R = {decimal_str(row.r_term)}, "
                       f"S = {decimal_str(row.s_term)}, implied dim = {decimal_str(row.implied_hodge_dim)}"
                       + (" [FLAGGED: negative implied dimension]" if row.flagged else ""))
        if row.direct != row.decomposed:
            out.append(f"internal error: decomposition of b_{{{row.i},{row.j}}} does not "
                       f"match the direct coefficient")
            code = EXIT_FAILED
    for pair, reason in result.rejected:
        out.append(f"rejected {tuple(pair)}: {reason}")
        if code == EXIT_OK:
            code = EXIT_PARTIAL
    out.append(f"note: {_PROP_34_NOTE}")
    payload = {
        "dimension": cfg.dimension,
        "rows": rows_json,
        "rejected": [{"pair": list(pair), "reason": reason} for pair, reason in result.rejected],
        "note": _PROP_34_NOTE,
    }
    return code, payload


def _cmd_validate(data: bytes, args, out: list[str]) -> tuple[int, dict]:
    mode = "strict" if args.strict else "lenient"
    report = validate(_load(data), mode)
    for f in report.findings:
        out.append(f.describe())
    out.append(f"{'accepted' if report.accepted else 'rejected'} ({mode})")
    payload = {
        "mode": mode,
        "accepted": report.accepted,
        "findings": [
            {"severity": f.severity, "code": f.code, "message": f.message, "location": f.location}
            for f in report.findings
        ],
    }
    return (EXIT_OK if report.accepted else EXIT_INPUT), payload


_COMMANDS = {
    "compute": _cmd_compute,
    "check": _cmd_check,
    "decompose": _cmd_decompose,
    "validate": _cmd_validate,
}


def _run_one(path: Path, args) -> tuple[int, str]:
    """One input file's exit code and output.  The file is read once: its
    bytes are both loaded and hashed."""
    started = time.perf_counter_ns()
    out: list[str] = []
    data = None
    try:
        data = _read(path)
        code, payload = _COMMANDS[args.command](data, args, out)
    except (_InputError, ConfigValidationError, PackedSizeError) as exc:
        # validation bounds the formula sums; a deeper cancellation test can need wider slots
        error = f"packed-size-cost: {exc}" if isinstance(exc, PackedSizeError) else str(exc)
        code, payload, out = EXIT_INPUT, {"error": error}, [f"error: {error}"]
    elapsed_us = (time.perf_counter_ns() - started) // 1000

    if args.format == "json":
        report = {
            "command": args.command,
            "path": str(path),
            "sha256": "" if data is None else hashlib.sha256(data).hexdigest(),
            "timing_us": elapsed_us,
            "exit_code": code,
        }
        report.update(payload)
        text = _json_text(report) + "\n"
    else:
        text = "\n".join(out) + "\n" if out else ""
    return code, text


def _collect_inputs(raw: str) -> list[Path]:
    path = Path(raw)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise _InputError(f"no *.json config files in {path}")
        return files
    return [path]


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("path", help="config file, or a directory of *.json configs")
    shared.add_argument("--format", choices=("text", "json", "latex"), default="text")
    shared.add_argument("--horizon", type=int, default=None, metavar="N",
                        help="series horizon in total degree (default 2*dimension)")
    shared.add_argument("--strict", action="store_true",
                        help="gate on strict validation instead of lenient")

    parser = argparse.ArgumentParser(
        prog="stringy",
        description="Exact stringy E-function computations from log-resolution data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[shared],
                               help="E_st in canonical form plus its series expansion")
    p_compute.add_argument("--local", action="store_true",
                           help="also report the singular locus' additive share")

    p_check = sub.add_parser("check", parents=[shared],
                             help="duality / symmetry / polynomiality / nonnegativity verdicts")
    p_check.add_argument("--duality", action="store_true")
    p_check.add_argument("--symmetry", action="store_true",
                         help="u<->v symmetry; not among the checks a bare 'check' runs")
    p_check.add_argument("--polynomial", action="store_true")
    p_check.add_argument("--nonneg", action="store_true")

    p_decompose = sub.add_parser("decompose", parents=[shared],
                                 help="coefficient decomposition rows (strict inputs only)")
    p_decompose.add_argument("--pairs", required=True, metavar="I,J;I,J",
                             help="semicolon-separated exponent pairs, e.g. '1,1;2,1'")

    sub.add_parser("validate", parents=[shared], help="run validation and print findings")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.horizon is not None and args.horizon < 0:
        print("error: --horizon must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    try:
        inputs = _collect_inputs(args.path)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    worst = EXIT_OK
    batch = len(inputs) > 1
    for path in inputs:
        code, text = _run_one(path, args)
        if batch and args.format != "json":
            sys.stdout.write(f"== {path} ==\n")
        sys.stdout.write(text)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
