"""The benchmark: runs one seeded workload against the real CLI.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it needs ``src/stringy`` and the
test oracles in ``tests/oracles.py`` and installs nothing.  It

1. writes the workload's inputs, made from the seed, under
   ``.perfbench_work/`` (removed at the end);
2. measures ``setup_s``, the median time to import ``stringy.cli`` in fresh
   interpreters;
3. starts a worker process (worker.py) that calls ``stringy.cli.main`` once
   per pass over the generated directories, for ``--seconds`` seconds;
   with ``--trace 1`` the time is split between an untraced worker and a
   traced one, which wraps every layer's public functions (tracing.py) and
   keeps its first round's spans in ``.perfbench_work/spans-*.tsv.gz``;
4. checks every output by value (check.py), after the timed region.

Every metric is printed by name and unit; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Timings are medians over rounds, where a round runs every
pass of the workload once.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170
SETUP_IMPORTS = 15
# what the last line reports with --trace 0; failed_ratio and file_ms_p99 are
# printed above it (failed_ratio is 0 when all is well, and only corpus has
# the 1000 files per round that p99 needs)
END_TO_END = ("setup_s", "files_per_s", "file_ms_p50", "file_ms_p90", "peak_rss_mb")
# fixed hash seed: set and dict orders, and so the traced counters, repeat exactly
ENV = dict(os.environ, PYTHONHASHSEED="0")
IMPORT_PROBE = ("import statistics, sys, time; sys.path[:0] = sys.argv[1:]; "
                "t = time.perf_counter_ns(); import stringy.cli; t = time.perf_counter_ns() - t; "
                "import speed; print(t, statistics.median(speed.calibrate() for _ in range(9)))")

sys.path[:0] = [str(HERE), str(ROOT / "tests")]

import gen  # noqa: E402
import speed  # noqa: E402

try:
    import check  # needs tests/oracles.py from the source checkout
except ImportError:
    check = None  # main() reports what is missing


def _unit(name: str) -> str:
    if name.startswith(("file_ms_", "raw_file_ms_")) or name.endswith(".ms"):
        return "ms"
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_ratio", "ratio"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def measure_setup() -> float:
    """Median import time of stringy.cli in seconds over fresh interpreters,
    each scaled by its own calibration loops; the first import, which
    writes the bytecode cache, is not counted."""
    times = []
    for k in range(SETUP_IMPORTS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)], env=ENV,
                             cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        import_ns, loop_ns = map(float, out.stdout.split())
        if k:
            times.append(speed.scaled(import_ns, loop_ns) / 1e9)
    return statistics.median(times)


def run_worker(work: Path, tag: str, passes: list, seconds: float, trace: bool,
               spans: Path | None, deadline: float) -> dict:
    spec, result = work / f"spec-{tag}.json", work / f"result-{tag}.json"
    spec.write_text(json.dumps({
        "src": str(SRC),
        "trace": trace,
        "seconds": seconds,
        "spans": str(spans) if spans else None,
        "passes": [{"name": p.name, "argv": p.argv(work / p.name),
                    "files": len(list((work / p.name).glob("*.json")))} for p in passes],
    }))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec), str(result)], env=ENV,
                   cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(result.read_text())


def _option(p: gen.Pass, flag: str) -> str | None:
    return p.options[p.options.index(flag) + 1] if flag in p.options else None


def check_outputs(passes: list, work: Path, result: dict, problems: list[str]) -> tuple[int, int]:
    """Check every file of every round; return (attempted, failed)."""
    refs = {p.name: [check.Reference(json.loads(f.read_text()))
                     for f in sorted((work / p.name).glob("*.json"))] for p in passes}
    cache: dict = {}
    attempted = failed = 0
    for rnd in result["rounds"]:
        verified: dict = {}  # horizon -> file -> (text key, (num, den, series))
        for k, (p, rec) in enumerate(zip(passes, rnd["passes"])):
            horizon = _option(p, "--horizon")
            horizon = int(horizon) if horizon is not None else None
            files = refs[p.name]
            attempted += len(files)
            verdicts = []
            for f, tid in enumerate(rec["text_ids"]):
                text = result["outputs"][k][f][tid]
                key = (k, f, tid)
                if p.command == "check":
                    ref_key, parsed = verified.get(horizon, {}).get(f, (None, None))
                    key += (ref_key,)
                if key not in cache:
                    if p.command == "decompose":
                        pairs = [tuple(map(int, s.split(","))) for s in _option(p, "--pairs").split(";")]
                        cache[key] = check.check_decompose_json(files[f], text, pairs)
                    elif p.fmt == "json":
                        cache[key] = check.check_compute_json(files[f], text, horizon, "--local" in p.options)
                    elif p.command == "compute":
                        cache[key] = check.check_compute_text(files[f], text, horizon)
                    else:
                        cache[key] = check.check_check_text(files[f], text, parsed)
                verdict = cache[key]
                if p.command == "compute" and p.fmt == "text":
                    verified.setdefault(horizon, {})[f] = (key, verdict[2])
                verdicts.append(verdict)
                problems += [f"{p.name}/{f:04d} ({p.command}): {msg}" for msg in verdict[0]]
            batch = []
            if rec["traceback"]:
                batch.append("traceback: " + rec["traceback"].strip().splitlines()[-1])
            if rec["stderr"]:
                batch.append("stderr: " + rec["stderr"].strip())
            if len(rec["file_ns"]) != len(files):
                batch.append(f"{len(rec['file_ns'])} results for {len(files)} files")
            want = max((v[1] for v in verdicts), default=0)
            if rec["code"] != want:
                batch.append(f"batch exit code {rec['code']}, expected {want}")
            problems += [f"{p.name} ({p.command}): {msg}" for msg in batch]
            failed += len(files) if batch else sum(1 for v in verdicts if v[0])
    return attempted, failed


def _percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _round_ms(rnd: dict) -> list[float]:
    """Per-file times of one round in ms, scaled to the reference speed."""
    return [speed.scaled(ns, loop) / 1e6
            for rec in rnd["passes"] for ns, loop in zip(rec["file_ns"], rec["loop_ns"])]


def end_to_end(result: dict) -> dict:
    """Per-round timings, reduced to their median over rounds."""
    per_round = []
    for rnd in result["rounds"]:
        samples = _round_ms(rnd)
        row = {
            "files_per_s": len(samples) / (sum(samples) / 1e3),
            "file_ms_p50": statistics.median(samples),
            "file_ms_p90": _percentile(samples, 90),
        }
        if len(samples) >= 1000:  # at least ten samples beyond it
            row["file_ms_p99"] = _percentile(samples, 99)
        raw = [ns / 1e6 for rec in rnd["passes"] for ns in rec["file_ns"]]
        loops = [ns for rec in rnd["passes"] for ns in rec["loop_ns"]]
        row["raw_file_ms_p50"] = statistics.median(raw)
        row["machine_speed_ratio"] = speed.REFERENCE_NS / statistics.median(loops)
        per_round.append(row)
    out = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    out["peak_rss_mb"] = result["maxrss_kb"] / 1024
    out["files_per_round"] = len(_round_ms(result["rounds"][0]))
    out["rounds"] = len(per_round)
    return out


def per_layer(traced: dict, untraced: dict) -> dict:
    """Self times: the median over traced rounds, each scaled by its round's
    median loop time.  Counters: the first round's, which every round must
    repeat exactly."""
    rounds = traced["rounds"]
    out = {}
    for name, first in rounds[0]["layers"].items():
        if _unit(name) == "ms":
            out[name] = statistics.median(
                speed.scaled(rnd["layers"][name],
                             statistics.median(ns for rec in rnd["passes"] for ns in rec["loop_ns"]))
                for rnd in rounds)
        else:
            out[name] = first
            if any(rnd["layers"][name] != first for rnd in rounds):
                print(f"warning: {name} differs between traced rounds", file=sys.stderr)

    def round_ms(result):
        return statistics.median(sum(_round_ms(rnd)) for rnd in result["rounds"])

    out["trace_overhead_ratio"] = round_ms(traced) / round_ms(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in (SRC / "stringy" / "cli.py", ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing or check is None:
        print(f"error: not a source checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        passes = gen.generate(args.workload, args.seed, work)
        setup_s = measure_setup()
        untraced_s = args.seconds / 3 if args.trace else args.seconds
        untraced = run_worker(work, "untraced", passes, untraced_s, False, None, deadline)
        traced = None
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.tsv.gz"
            traced = run_worker(work, "traced", passes, args.seconds - untraced_s, True, spans, deadline)
            for name in traced["missing"]:
                print(f"warning: {name} no longer exists; its metrics read 0", file=sys.stderr)
        problems: list[str] = []
        attempted, failed = check_outputs(passes, work, untraced, problems)
        if traced is not None:
            attempted_t, failed_t = check_outputs(passes, work, traced, problems)
            attempted, failed = attempted + attempted_t, failed + failed_t
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in problems[:20]:
        print(f"failed: {msg}", file=sys.stderr)
    e2e = end_to_end(untraced)
    e2e["setup_s"] = setup_s
    e2e["failed_ratio"] = failed / attempted
    shown = dict(e2e)
    if traced is not None:
        layers = per_layer(traced, untraced)
        shown.update(layers)
        reported = layers
    else:
        reported = {name: e2e[name] for name in END_TO_END}
    print(f"workload {args.workload}, seed {args.seed}: {e2e['files_per_round']} file results "
          f"per round, {e2e['rounds']} untraced round(s)")
    for name, value in shown.items():
        if name not in ("files_per_round", "rounds"):
            print(f"  {name:<28} {value:>14.6g} {_unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
