"""Digests of the benchmark workloads' CLI output, for byte-identity checks.

    PYTHONPATH=src python3 tests/workload_digests.py 7 11

For every seed given (default 7 and 11), writes the inputs of the
``corpus``, ``ladder`` and ``series`` workloads with ``perfbench/gen.py``
into a temporary directory, runs every pass through ``stringy.cli.main`` in
this process with stdout captured, masks ``timing_us`` and the temporary
path, and prints one line per pass: workload, seed, command, pass name,
options, exit code and the sha256 of stdout.  The workloads render text
only, so two more passes over the ``series`` inputs follow, after every
seed's workload lines: ``compute --format latex --horizon 200`` and
``check --format json --horizon 800``; then a text ``check --horizon 201``,
since the workload's horizons are all even: at an odd horizon the odd
offsets keep their last row.  Then one ``validate --strict
--format json`` pass over the ``corpus`` lenient inputs per seed, which
pins the strict findings: most of those files fail the Serre reflection
somewhere, and a few pass it.  Then one text ``decompose`` pass over the
``corpus`` strict inputs per seed, with the workload's pairs, which pins
the text rows that the workload writes only as JSON.  Last come the deep-cancellation
probes of ``tests/oracles.py`` (``DEEP_PROBES``), one ``compute --format
json`` line each, whatever the seeds: their formula sums merge many
full-size terms of distinct denominators.  After them, one such line per
shared-discrepancy probe (``SHARED_PROBES``): 24 components share one
discrepancy, so their sums carry the one factor.  Run it at two commits
and compare the printed lines: equal lines mean byte-identical output.  It
only reads ``perfbench/``; pytest does not collect it.

``tests/workload_digests.txt`` holds the lines for seeds 7 and 11, and CI
fails when the output differs from it:

    PYTHONPATH=src python3 tests/workload_digests.py 7 11 | diff tests/workload_digests.txt -

Regenerate that file only with a change whose output is meant to differ,
and say in the change which passes differ and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from oracles import (  # noqa: E402
    DEEP_PROBES,
    SHARED_PROBES,
    deep_cancellation_config,
    shared_discrepancy_config,
)
from stringy.cli import main  # noqa: E402

_TIMING = re.compile(r'"timing_us": \d+')

# the series inputs again, through the LaTeX and JSON renderers, and to an
# odd horizon
_SERIES_FORMATS = (("compute", ("--format", "latex", "--horizon", "200")),
                   ("check", ("--format", "json", "--horizon", "800")),
                   ("check", ("--horizon", "201")))


def _digest(argv: list[str], root: Path) -> tuple[int, str]:
    """The exit code and the sha256 of the masked stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = _TIMING.sub('"timing_us": 0', out.getvalue()).replace(str(root), "<root>")
    return code, hashlib.sha256(text.encode()).hexdigest()


def _digests(workload: str, seed: int, passes) -> list[str]:
    """One line per pass of ``passes(generated passes)`` over the workload's inputs."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for p in passes(gen.generate(workload, seed, root)):
            code, digest = _digest(p.argv(root / p.name), root)
            lines.append(f"{workload} {seed} {p.command} {p.name} {' '.join(p.options)} "
                         f"exit={code} sha256={digest}")
    return lines


def digests(seed: int) -> list[str]:
    return [line for workload in sorted(gen.WORKLOADS) for line in _digests(workload, seed, list)]


def format_digests(seed: int) -> list[str]:
    return _digests("series", seed, lambda passes: [gen.Pass(passes[0].name, command, options)
                                                    for command, options in _SERIES_FORMATS])


def strict_digests(seed: int) -> list[str]:
    return _digests("corpus", seed, lambda passes: [gen.Pass(passes[0].name, "validate",
                                                             ("--strict", "--format", "json"))])


def decompose_text_digests(seed: int) -> list[str]:
    return _digests("corpus", seed, lambda passes: [gen.Pass(passes[1].name, "decompose",
                                                             ("--pairs", gen.DECOMPOSE_PAIRS))])


def probe_digests(kind: str, probes: dict, config) -> list[str]:
    """One ``compute --format json`` line per probe, on ``config(*probe)``."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, probe in sorted(probes.items()):
            path = root / f"{name}.json"
            path.write_text(json.dumps(config(*probe)))
            code, digest = _digest(["compute", str(path), "--format", "json"], root)
            lines.append(f"{kind} - compute {name} --format json exit={code} sha256={digest}")
    return lines


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or [7, 11]
    for produce in (digests, format_digests, strict_digests, decompose_text_digests):
        for seed in seeds:
            for line in produce(seed):
                print(line, flush=True)
    for line in (probe_digests("deep", DEEP_PROBES, deep_cancellation_config)
                 + probe_digests("shared", SHARED_PROBES, shared_discrepancy_config)):
        print(line, flush=True)
