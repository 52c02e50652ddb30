"""Digests of the benchmark workloads' CLI output, for byte-identity checks.

    PYTHONPATH=src python3 tests/workload_digests.py 7 11

For every seed given (default 7 and 11), writes the inputs of the
``corpus``, ``ladder`` and ``series`` workloads with ``perfbench/gen.py``
into a temporary directory, runs every pass through ``stringy.cli.main`` in
this process with stdout captured, masks ``timing_us`` and the temporary
path, and prints one line per pass: workload, seed, command, pass name,
options, exit code and the sha256 of stdout.  Run it at two commits and
compare the printed lines: equal lines mean byte-identical output.  It only
reads ``perfbench/``; pytest does not collect it.

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
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from stringy.cli import main  # noqa: E402

_TIMING = re.compile(r'"timing_us": \d+')


def digests(seed: int) -> list[str]:
    lines = []
    for workload in sorted(gen.WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for p in gen.generate(workload, seed, root):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(p.argv(root / p.name))
                text = _TIMING.sub('"timing_us": 0', out.getvalue()).replace(str(root), "<root>")
                digest = hashlib.sha256(text.encode()).hexdigest()
                lines.append(f"{workload} {seed} {p.command} {p.name} {' '.join(p.options)} "
                             f"exit={code} sha256={digest}")
    return lines


if __name__ == "__main__":
    for seed in [int(s) for s in sys.argv[1:]] or [7, 11]:
        for line in digests(seed):
            print(line, flush=True)
