"""Byte-for-byte CLI output for every fixture config.

Each case runs one command line on one ``fixtures/*.json`` file from the
repository root, with the relative path ``fixtures/<name>.json``, and
compares stdout and the exit code with the recorded golden under
``fixtures/golden/cli/``.  ``timing_us`` is the only masked field.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CLI = ROOT / "fixtures" / "golden" / "cli"
FIXTURE_NAMES = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))

COMMANDS = {
    "compute.json": ("compute", "--format", "json"),
    "compute.text": ("compute", "--format", "text"),
    "compute.latex": ("compute", "--format", "latex"),
    "compute_local.json": ("compute", "--format", "json", "--local"),
    "check.json": ("check", "--format", "json", "--duality", "--symmetry", "--polynomial", "--nonneg"),
    "decompose.json": ("decompose", "--format", "json", "--pairs", "1,1;2,1;1,0"),
    "validate_strict.json": ("validate", "--strict", "--format", "json"),
}

_TIMING = re.compile(r'"timing_us": \d+')


def run_case(fixture, command):
    """(exit code, stdout with timing masked) of one command line, run
    from the repository root."""
    from stringy.cli import main

    argv = COMMANDS[command]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], f"fixtures/{fixture}.json", *argv[1:]])
    finally:
        os.chdir(cwd)
    return code, _TIMING.sub('"timing_us": 0', out.getvalue())


def _golden_path(fixture, command):
    return GOLDEN_CLI / f"{fixture}.{command}"


def _exit_codes():
    return json.loads((GOLDEN_CLI / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_cli_output_matches_golden(fixture, command):
    code, out = run_case(fixture, command)
    assert out == _golden_path(fixture, command).read_text(encoding="utf-8")
    assert code == _exit_codes()[f"{fixture}.{command}"]


def _write_goldens():
    GOLDEN_CLI.mkdir(parents=True, exist_ok=True)
    codes = {}
    for fixture in FIXTURE_NAMES:
        for command in sorted(COMMANDS):
            code, out = run_case(fixture, command)
            _golden_path(fixture, command).write_text(out, encoding="utf-8")
            codes[f"{fixture}.{command}"] = code
    (GOLDEN_CLI / "exit_codes.json").write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n",
                                                encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    _write_goldens()
