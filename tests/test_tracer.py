"""The benchmark's span recorder (bench/tracer.py) wraps the program's
functions by module attribute, so a renamed or removed function leaves its
layer untimed without failing the run. This checks the names it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import run, train_config, write_regression_state
from uqkit import cli
from uqkit.mlp import param_count
from uqkit.posterior import load_state

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


def test_traced_evaluate_counts_the_interval_normals(tmp_path):
    # S draws of P weights, then one observation per draw and row: every
    # normal of a regression evaluate goes through the wrapped Rng.normals
    state, data = write_regression_state(tmp_path, 40)
    code = (
        "import sys, tracer; rec = tracer.Recorder(); tracer.install(rec); "
        "from uqkit.cli import main; code = main(sys.argv[1:]); "
        "print(code, rec.counts['rng.normals.n'])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])}
    done = subprocess.run(
        [sys.executable, "-c", code, "evaluate", "--state", str(state), "--data", str(data),
         "--alpha", "0.2", "--predictive-samples", "10"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    p = param_count(load_state(state)[1])
    assert done.stdout.splitlines()[-1].split() == ["0", str(10 * p + 10 * 40)]


def test_every_fit_is_called_through_the_cli_module(tmp_path, capsys, monkeypatch):
    # the tracer times a fit by rebinding its name in uqkit.cli, so train and
    # benchmark must look each fit up there at call time
    called = []

    def record(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("map_fit", "swag_fit", "laplace_fit", "advi_fit"):
        record(name)
    expected = {
        "map": ["map_fit"],
        "swag": ["map_fit", "swag_fit"],
        "laplace": ["map_fit", "laplace_fit"],
        "advi": ["advi_fit"],
    }
    for method, names in expected.items():
        called.clear()
        config = train_config(
            tmp_path, method=method, optimizer={"epochs": 1}, out_dir=str(tmp_path / method),
            **({"method_params": {"rank": 1}} if method == "swag" else {}),
        )
        code, _, err = run(capsys, "train", "--config", str(config))
        assert code == 0, err
        assert called == names, method
    called.clear()
    config = train_config(
        tmp_path, method="swag", optimizer={"epochs": 1}, method_params={"rank": 1},
        seeds=[0, 1, 2],
        out_dir=str(tmp_path / "benchmark"),
    )
    assert run(capsys, "benchmark", "--config", str(config))[0] == 0
    # the seeds train as lanes of one loop: one call of each fit for all three
    assert called == ["map_fit", "swag_fit"]
