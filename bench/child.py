"""Fresh-interpreter side of the benchmark.

    python3 bench/child.py setup PLAN
    python3 bench/child.py run PLAN RESULT

``setup`` imports ``uqkit.cli``, passes the workload's configs through
``load_config`` and prints the system-wide monotonic clock, which the
parent compares with its reading just before the spawn.

``run`` repeats the plan's command sequence through ``uqkit.cli.main``,
closed loop with one client, for the plan's ``seconds``. Before the first
sequence and after each one it times ``reference()``, a fixed task that
does not touch uqkit, so each sequence is bracketed by two readings of how
fast the vCPU is running at that moment. With tracing on,
the first half of the time runs untraced and the second half traced, so
the difference of the two sequence times is the tracing overhead. After
each sequence it hashes every artefact and every command's stdout, outside
the timed region. Run it from the work directory the plan was built in,
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer

OUT = Path("out")


def run_command(cli, cmd: dict, rec) -> dict:
    buf = io.StringIO()
    error = None
    if rec is not None:
        rec.begin_trace()
        span = rec.open(f"cli.{cmd['argv'][0]}")
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(cmd["argv"])
    except SystemExit as exc:  # argparse rejects flags by exiting
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a failed run
        code, error = -1, traceback.format_exc(limit=4)
    finally:
        seconds = perf_counter() - start
        if rec is not None:
            rec.close(span)
    return {"code": code, "seconds": seconds, "stdout": buf.getvalue(), "error": error}


def digests(results: list[dict]) -> dict[str, str]:
    out = {
        f"stdout/{i}": hashlib.sha256(r["stdout"].encode()).hexdigest()
        for i, r in enumerate(results)
    }
    for path in sorted(p for p in OUT.rglob("*") if p.is_file()):
        out[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def reference() -> float:
    """Seconds for a fixed task in the shape of uqkit's work: small numpy
    operations driven from a Python loop, then plain Python arithmetic. It
    uses numpy only, so no change to uqkit can change its time."""
    start = perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 64))
    w = rng.standard_normal((64, 64)) * 0.1
    acc = 0.0
    for _ in range(8000):
        a = np.tanh(a @ w) + 0.5
        acc += float(a[0, 0])
    for i in range(1_500_000):
        acc += i * i % 7
    return perf_counter() - start


def run_phase(cli, plan: dict, phase: str, budget: float, rec) -> list[dict]:
    """Sequences until the next one would overrun ``budget``; at least one.
    ``budget`` covers the reference timings too."""
    sequences: list[dict] = []
    ref = reference()
    spent = ref
    while not sequences or spent + statistics.mean(
            s["wall_s"] + s["ref_s"][1] for s in sequences) <= budget:
        shutil.rmtree(OUT, ignore_errors=True)
        OUT.mkdir()
        start = perf_counter()
        results = [run_command(cli, cmd, rec) for cmd in plan["commands"]]
        wall = perf_counter() - start
        refs = [ref, ref := reference()]
        spent += wall + ref
        seq = {"phase": phase, "wall_s": wall, "ref_s": refs, "commands": results,
               "digests": digests(results)}
        if rec is not None:
            spans, counts = rec.take()
            seq["layers"] = tracer.layer_metrics(spans, counts)
            seq["spans"] = spans
        sequences.append(seq)
    return sequences


def main(argv: list[str]) -> int:
    mode, plan_path = argv[0], argv[1]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import uqkit.cli as cli

    for c in plan["configs"]:
        cli.load_config(c["path"], require_seeds=c["require_seeds"])
    if mode == "setup":
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    seconds = float(plan["seconds"])
    if not plan["trace"]:
        sequences = run_phase(cli, plan, "plain", seconds, None)
        missing: list[str] = []
    else:
        sequences = run_phase(cli, plan, "plain", seconds / 2, None)
        rec = tracer.Recorder()
        missing = tracer.install(rec)
        sequences += run_phase(cli, plan, "traced", seconds / 2, rec)
    spans = [s.pop("spans", None) for s in sequences]
    if plan["trace"]:
        Path(plan["spans_path"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "trace"],
                        "sequences": [s for s in spans if s is not None]}),
            encoding="utf-8",
        )
    result = {
        "sequences": sequences,
        "missing_hooks": missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
