"""The benchmark's traced run wraps program functions by module and
attribute name (``perfbench/tracing.py``).  A target that no longer
resolves is skipped there and its metrics silently read 0, so every name it
lists must stay bound to a callable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr_path", sorted({t[:2] for t in _targets()}))
def test_trace_target_resolves_to_a_callable(module_name, attr_path):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
