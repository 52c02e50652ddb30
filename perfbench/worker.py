"""Benchmark worker: drives the real CLI over the generated directories.

Runs in its own interpreter, started by run.py:

    python3 perfbench/worker.py SPEC.json RESULT.json

Each pass is one in-process batch call ``stringy.cli.main([command, dir,
...])`` with stdout captured.  A file's time to result is the gap between
consecutive per-file writes to stdout, less the calibration samples taken
meanwhile (speed.py); the first file is timed from the call.  Whole rounds (every pass once) repeat until the next round would end
past the time budget, and at least one round runs.  With tracing on, the
layer wrappers from tracing.py are installed first and each round's spans are
reduced to per-layer metrics after the round.
"""

from __future__ import annotations

import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

_TIMING = re.compile(r'"timing_us": \d+')


class Capture:
    """Stands in for sys.stdout during a batch call.  Each per-file write is
    timestamped and followed by one calibration sample."""

    def __init__(self, timeline: speed.Timeline):
        self.timeline = timeline
        self.texts: list[str] = []
        self.written: list[tuple[int, int]] = []  # (time, sampling time spent so far)
        self.resumed: list[tuple[int, int]] = []

    @property
    def results(self) -> int:
        return len(self.texts)

    def write(self, text: str) -> int:
        if not is_header(text):
            self.written.append((time.perf_counter_ns(), self.timeline.spent))
            self.texts.append(text)
            self.timeline.sample()
            self.resumed.append((time.perf_counter_ns(), self.timeline.spent))
        return len(text)

    def flush(self) -> None:
        pass


def is_header(text: str) -> bool:
    """The ``== path ==`` line that text-mode batches print before a file."""
    return text.startswith("== ") and text.endswith(" ==\n")


def normalize(text: str) -> str:
    """Drop the run-dependent timing field so repeated outputs compare equal."""
    return _TIMING.sub('"timing_us": 0', text)


def run_pass(main, argv: list[str], capture: Capture) -> dict:
    """One batch call.  A file's time runs from the previous file's write
    (or the call) to its own write, less the sampling time within; its loop
    time is the median of the samples taken meanwhile (speed.py)."""
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = capture, err
    tb = ""
    timeline = capture.timeline
    with timeline:
        start = (time.perf_counter_ns(), timeline.spent)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception:
            code = None
            tb = traceback.format_exc()
        finally:
            sys.stdout, sys.stderr = saved
    starts = [start] + capture.resumed[:-1]
    return {
        "code": code,
        "traceback": tb,
        "stderr": err.getvalue(),
        "file_ns": [(w - s) - (w_spent - s_spent)
                    for (w, w_spent), (s, s_spent) in zip(capture.written, starts)],
        "loop_ns": [timeline.loop_ns(s, r) for (s, _), (r, _) in zip(starts, capture.resumed)],
        "texts": [normalize(text) for text in capture.texts],
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import stringy.cli

    tracer = None
    missing: list[str] = []
    state = {"offset": 0, "capture": None}
    loop = speed.calibrate
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(lambda: state["offset"] + state["capture"].results)
        missing = tracing.install(tracer)
        # a span of its own, so that no layer's self time includes the loop
        loop = tracer.wrap("bench.calibrate", speed.calibrate)
    cli_main = stringy.cli.main  # looked up after install, so a traced run calls the wrapper

    passes = spec["passes"]
    outputs: list[list[list[str]]] = [[[] for _ in range(p["files"])] for p in passes]
    rounds = []
    budget_ns = int(spec["seconds"] * 1e9)
    began = time.perf_counter_ns()
    while True:
        round_start = time.perf_counter_ns()
        records = []
        state["offset"] = 0
        for k, p in enumerate(passes):
            # no timer samples in a traced run: a signal could land inside a wrapper
            state["capture"] = Capture(speed.Timeline(loop, timer=tracer is None))
            record = run_pass(cli_main, p["argv"], state["capture"])
            text_ids = []
            for f, text in enumerate(record.pop("texts")[:p["files"]]):
                seen = outputs[k][f]
                if text not in seen:
                    seen.append(text)
                text_ids.append(seen.index(text))
            record["text_ids"] = text_ids
            records.append(record)
            state["offset"] += p["files"]
        now = time.perf_counter_ns()
        entry = {"passes": records}
        if tracer is not None:
            entry["layers"] = tracing.layer_metrics(tracer)
            if not rounds and spec.get("spans"):
                tracer.write_spans(Path(spec["spans"]))
            tracer.reset()
        rounds.append(entry)
        if len(rounds) == 1:
            # peak memory of one pass of every command; later rounds add only
            # allocator noise
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if now - began + (now - round_start) > budget_ns:
            break

    result = {
        "rounds": rounds,
        "outputs": outputs,
        "maxrss_kb": maxrss_kb,
        "missing": missing,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
