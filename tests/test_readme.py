"""The README's library quick-start runs as written and prints what its
comments claim."""

import contextlib
import io
import re
from pathlib import Path

from stringy import Polynomial, is_polynomial

README = Path(__file__).resolve().parent.parent / "README.md"


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
