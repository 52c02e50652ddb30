"""The benchmark's own smoke test, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that the generators are deterministic per seed, that the traced
counters repeat exactly, that a flipped coefficient in an output is counted
as failed, and that the benchmark refuses to run without the source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import run


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(gen, "LENIENT_FILES", 24)
    monkeypatch.setattr(gen, "STRICT_PER_DIMENSION", 2)
    monkeypatch.setattr(gen, "LADDER_RUNGS", {4: 1, 8: 1})
    monkeypatch.setattr(gen, "LADDER_CAPS", (5, 10))
    monkeypatch.setattr(gen, "SERIES_FILES", 4)
    monkeypatch.setattr(gen, "SERIES_HORIZONS", (10, 30))


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.json"))}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a")
    again = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    assert first == again == other
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _deadline():
    return time.monotonic() + 120


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_traced_counters_repeat_exactly(tmp_path, workload):
    passes = gen.generate(workload, 3, tmp_path)
    counters = []
    for tag in ("one", "two"):
        result = run.run_worker(tmp_path, tag, passes, 0, True, None, _deadline())
        assert result["missing"] == []
        problems: list[str] = []
        assert run.check_outputs(passes, tmp_path, result, problems)[1] == 0, problems
        layers = result["rounds"][0]["layers"]
        counters.append({k: v for k, v in layers.items() if run._unit(k) != "ms"})
    assert counters[0] == counters[1]
    assert counters[0]["resolution.validate_calls"] > 0
    assert counters[0]["exact_poly.rational_ops"] > 0


def _flip_json(text: str) -> str:
    doc = json.loads(text)
    term = doc["e_st"]["num"][0]
    term[2] = -int(term[2])
    return json.dumps(doc)


def _flip_text(text: str) -> str:
    head, series, rest = text.split("\n", 2)
    body = series[len("series = "):]
    body = body[1:] if body.startswith("-") else "-" + body
    return f"{head}\nseries = {body}\n{rest}"


@pytest.mark.parametrize("workload, flip", [("corpus", _flip_json), ("series", _flip_text)])
def test_flipped_coefficient_is_counted_as_failed(tmp_path, workload, flip):
    passes = gen.generate(workload, 5, tmp_path)
    result = run.run_worker(tmp_path, "plain", passes, 0, False, None, _deadline())
    problems: list[str] = []
    attempted, failed = run.check_outputs(passes, tmp_path, result, problems)
    assert (attempted, failed) == (sum(len(r["file_ns"]) for r in result["rounds"][0]["passes"]), 0)

    outputs = result["outputs"][0][2]
    outputs[0] = flip(outputs[0])
    problems = []
    attempted_again, failed = run.check_outputs(passes, tmp_path, result, problems)
    assert attempted_again == attempted
    # a compute text output also backs the check pass at the same horizon
    assert failed == (1 if workload == "corpus" else 2), problems


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    argv = [sys.executable if command[0] == "python3" else command[0], *command[1:],
            "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
