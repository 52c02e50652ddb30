"""Outside-in tracing for the benchmark's traced run.

The program is not changed: the wrappers are installed from here around the
public functions of each layer, on every module binding of each name
(``engine`` and ``cli`` import functions by name) and on every class
attribute bound to the same method.  A name that no longer exists is
skipped, so its metrics read as 0 calls instead of crashing the run.

Spans are kept in memory as (name, start_ns, end_ns, parent, file) and
written out at the end; per-layer self times and counters are derived from
them after the timed region.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from pathlib import Path

# (module, attribute path, span name).  The layer is the span name's prefix.
TARGETS = (
    ("stringy.cli", "main", "cli.main"),
    ("stringy.resolution", "load_config", "resolution.load"),
    ("stringy.resolution", "validate", "resolution.validate"),
    ("stringy.resolution", "convert_strata", "resolution.convert"),
    ("stringy.resolution", "exceptional_union_hd", "resolution.union"),
    ("stringy.hodge", "validate_smooth_projective", "hodge.serre"),
    ("stringy.engine", "stringy_e_open", "engine.e_open"),
    ("stringy.engine", "stringy_e_closed", "engine.e_closed"),
    ("stringy.engine", "compute", "engine.compute"),
    ("stringy.engine", "check_duality", "engine.verdict"),
    ("stringy.engine", "is_polynomial", "engine.verdict"),
    ("stringy.engine", "check_nonnegativity", "engine.verdict"),
    ("stringy.engine", "decompose_coefficients", "engine.decompose"),
    ("stringy.engine", "local_contribution", "engine.local"),
    ("stringy.exact_poly", "StringyRational.__add__", "exact_poly.rational_op"),
    ("stringy.exact_poly", "StringyRational.__mul__", "exact_poly.rational_op"),
    ("stringy.exact_poly", "StringyRational.__eq__", "exact_poly.agree"),
    ("stringy.exact_poly", "BivariatePolynomial.exact_cyclo_quotient", "exact_poly.cancel"),
    ("stringy.exact_poly", "expand_rational", "exact_poly.expand"),
) + tuple(
    ("stringy.render", f"{kind}_{style}", "render.render")
    for kind in ("polynomial", "denominator", "rational", "series")
    for style in ("text", "latex")
)

COUNTERS = (
    "resolution.subset_walk",
    "exact_poly.cancel_hits",
    "exact_poly.series_terms",
    "exact_poly.den_degree",
    "exact_poly.num_terms",
    "render.bytes",
)


class Tracer:
    """Records one span per wrapped call and the counters measured at the
    same boundaries.  ``file_id`` reports which input file is in progress."""

    def __init__(self, file_id):
        self.file_id = file_id
        self.spans: list[tuple] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.mismatch_files: set[int] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            file_id = self.file_id()
            idx = len(spans)
            stack.append(idx)
            start = clock()
            spans.append((name, start, start, parent, file_id))  # end is filled in below
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, file_id)
            if hook is not None:
                try:
                    hook(self, idx, args, kwargs, result)
                except AttributeError:
                    pass  # the program's types changed shape; the counter reads 0
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.mismatch_files = set()

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tfile\n")
            for name, start, end, parent, file_id in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{file_id}\n")

    def self_times_ns(self) -> dict[str, int]:
        """Sum of span duration minus the duration of its direct children,
        by span name.  Calls are single-threaded, so children nest."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            totals[name] = totals.get(name, 0) + (end - start - inner)
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out


# -- counter hooks: (tracer, span index, args, kwargs, result) ---------------------


def _subset_walk(tracer, idx, args, kwargs, result):
    cfg = args[0]
    target = args[1] if len(args) > 1 else kwargs["target"]
    if cfg.convention != target:
        tracer.counters["resolution.subset_walk"] += sum(2 ** len(key) - 1 for key in cfg.strata)


def _cancel_hit(tracer, idx, args, kwargs, result):
    if result is not None:
        tracer.counters["exact_poly.cancel_hits"] += 1


def _formula_size(tracer, idx, args, kwargs, result):
    tracer.counters["exact_poly.den_degree"] += result.denominator.degree_uv()
    tracer.counters["exact_poly.num_terms"] += len(result.numerator)


def _repr_mismatch(tracer, idx, args, kwargs, result):
    a, b = args
    if result is True and type(a) is type(b) and (
            a.numerator != b.numerator or a.denominator != b.denominator):
        tracer.mismatch_files.add(tracer.spans[idx][4])


def _series_terms(tracer, idx, args, kwargs, result):
    tracer.counters["exact_poly.series_terms"] += sum(1 for _ in result.items())


def _render_bytes(tracer, idx, args, kwargs, result):
    parent = tracer.spans[idx][3]
    if parent < 0 or not tracer.spans[parent][0].startswith("render."):
        tracer.counters["render.bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "resolution.convert": _subset_walk,
    "exact_poly.cancel": _cancel_hit,
    "engine.e_open": _formula_size,
    "engine.e_closed": _formula_size,
    "exact_poly.agree": _repr_mismatch,
    "exact_poly.expand": _series_terms,
    "render.render": _render_bytes,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the targets that do not."""
    missing = []
    for module_name, attr_path, span_name in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr_path}")
            continue
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            missing.append(f"{module_name}.{attr_path}")
            continue
        wrapper = tracer.wrap(span_name, original, HOOKS.get(span_name))
        holders = [owner] if owners else []
        holders += [mod for name, mod in list(sys.modules.items())
                    if mod is not None and (name == "stringy" or name.startswith("stringy."))]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
    return missing


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round, by metric name."""
    self_ns = tracer.self_times_ns()
    calls = tracer.calls()
    counters = tracer.counters

    def ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6

    attempts = calls.get("exact_poly.cancel", 0)
    return {
        "cli.self_ms": ms("cli.main"),
        "resolution.load_ms": ms("resolution.load"),
        "resolution.validate_ms": ms("resolution.validate"),
        "resolution.validate_calls": calls.get("resolution.validate", 0),
        "resolution.convert_ms": ms("resolution.convert"),
        "resolution.convert_calls": calls.get("resolution.convert", 0),
        "resolution.subset_walk": counters["resolution.subset_walk"],
        "resolution.union_ms": ms("resolution.union"),
        "hodge.serre_ms": ms("hodge.serre"),
        "hodge.serre_calls": calls.get("hodge.serre", 0),
        "engine.e_open_ms": ms("engine.e_open"),
        "engine.e_closed_ms": ms("engine.e_closed"),
        "engine.e_closed_calls": calls.get("engine.e_closed", 0),
        "engine.compute_ms": ms("engine.compute"),
        "engine.verdicts_ms": ms("engine.verdict"),
        "engine.decompose_ms": ms("engine.decompose"),
        "engine.local_ms": ms("engine.local"),
        "exact_poly.rational_ops": calls.get("exact_poly.rational_op", 0),
        "exact_poly.rational_ms": ms("exact_poly.rational_op"),
        "exact_poly.cancel_attempts": attempts,
        "exact_poly.cancel_hits": counters["exact_poly.cancel_hits"],
        "exact_poly.cancel_hit_ratio": counters["exact_poly.cancel_hits"] / attempts if attempts else 0.0,
        "exact_poly.cancel_ms": ms("exact_poly.cancel"),
        "exact_poly.agree_ms": ms("exact_poly.agree"),
        "exact_poly.expand_ms": ms("exact_poly.expand"),
        "exact_poly.expand_calls": calls.get("exact_poly.expand", 0),
        "exact_poly.series_terms": counters["exact_poly.series_terms"],
        "exact_poly.den_degree": counters["exact_poly.den_degree"],
        "exact_poly.num_terms": counters["exact_poly.num_terms"],
        "exact_poly.repr_mismatch": len(tracer.mismatch_files),
        "render.ms": ms("render.render"),
        "render.bytes": counters["render.bytes"],
    }
