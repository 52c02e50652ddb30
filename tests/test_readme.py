"""The README's quick-starts run as written: the library example prints what
its comments claim, and each CLI transcript line prints exactly the output
shown under it."""

import contextlib
import io
import os
import re
import shlex
from pathlib import Path

import pytest

from stringy import Polynomial, is_polynomial
from stringy.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_quick_start_runs_as_documented():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.e_open == result.e_closed
    assert result.series.coefficient(1, 1) == 2
    assert isinstance(is_polynomial(result.e_open, 3), Polynomial)
    lines = printed.getvalue().splitlines()
    assert lines[:2] == ["2", "True"]  # the series coefficient, then duality passes
    assert lines[2].startswith("Polynomial(value=BivariatePolynomial({(0,0): 1, ")
    assert len(lines) == 3


def _cli_transcript() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each ``$ stringy ...`` line of the
    CLI quick-start; a blank line separates one output from the next command."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (CLI)"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    cases = []
    for chunk in re.split(r"^\$ stringy ", block, flags=re.M)[1:]:
        command, _, output = chunk.partition("\n")
        cases.append((command, output.rstrip("\n") + "\n"))
    return cases


TRANSCRIPT = _cli_transcript()


def test_cli_transcript_is_found():
    assert len(TRANSCRIPT) == 4


@pytest.mark.parametrize("command, expected", TRANSCRIPT, ids=[c for c, _ in TRANSCRIPT])
def test_cli_quick_start_prints_as_documented(command, expected):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(command))
    finally:
        os.chdir(cwd)
    assert code == 0
    assert out.getvalue() == expected
