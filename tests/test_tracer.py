"""The benchmark's span recorder (bench/tracer.py) wraps the program's
functions by module attribute, so a renamed or removed function leaves its
layer untimed without failing the run. This checks the names it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# names bench/tracer.py still wraps though the program no longer has them
KNOWN_STALE = {"uqkit.posterior.value_and_grad", "uqkit.predictive.kth_smallest"}


def test_tracer_finds_every_hook_but_the_known_stale_ones():
    # install() rebinds module attributes, so it runs in its own interpreter
    code = "import json, tracer; print(json.dumps(tracer.install(tracer.Recorder())))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    missing = set(json.loads(done.stdout))
    assert missing <= KNOWN_STALE
