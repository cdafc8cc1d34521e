import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from uqkit import calibration, data, metrics, mlp, posterior
from uqkit import cli as cli_module
from uqkit import config as config_module
from uqkit import rng as rng_module
from uqkit.calibration import fit_temperature
from uqkit.cli import _CONFORMAL, build_parser, main
from uqkit.config import load_config
from uqkit.data import load_csv, save_csv, split, synth_classification, write_matrix_csv
from uqkit.errors import ConfigError, DataError
from uqkit.metrics import classification_report, ece
from uqkit.mlp import MlpConfig, param_count
from uqkit.numerics import softmax
from uqkit.posterior import (
    AdviState, EnsembleState, FitResult, LaplaceState, MapState, OptimConfig, SwagState,
    advi_fit, ensemble_fit, laplace_fit, load_state, posterior_sample, save_state,
    state_from_dict, state_to_dict, swag_fit,
)
from uqkit.rng import Rng
from uqkit.predictive import BLOCK_ROWS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_regression_state(tmp_path, rows):
    """A small ADVI regression ``state.json`` and a ``rows``-row data CSV."""
    cfg = MlpConfig(2, (8,), 2, "tanh")
    p = param_count(cfg)
    gen = np.random.default_rng(0)
    state = AdviState(mean=0.3 * gen.normal(size=p), log_std=np.full(p, -2.0))
    save_state(tmp_path / "state.json", state, cfg, "regression")
    write_matrix_csv(tmp_path / "data.csv", gen.normal(size=(rows, 3)), ["x0", "x1", "target"])
    return tmp_path / "state.json", tmp_path / "data.csv"


def write_probs(path, probs):
    probs = np.asarray(probs, dtype=float)
    write_matrix_csv(path, probs, [f"p{k}" for k in range(probs.shape[1])])


def write_targets(path, targets):
    write_matrix_csv(path, np.asarray(targets, float).reshape(-1, 1), ["target"])


def write_column(path, values, name):
    write_matrix_csv(path, np.asarray(values, float).reshape(-1, 1), [name])


@pytest.fixture
def clf_fixture(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.normal(scale=2, size=(40, 3))
    val_probs = softmax(z, axis=1)
    val_targets = np.array([rng.choice(3, p=p) for p in val_probs])
    zt = rng.normal(scale=2, size=(15, 3))
    test_probs = softmax(zt, axis=1)
    test_targets = np.array([rng.choice(3, p=p) for p in test_probs])
    paths = {}
    for name, writer, data in [
        ("val_probs", write_probs, val_probs),
        ("test_probs", write_probs, test_probs),
        ("val_targets", write_targets, val_targets),
        ("test_targets", write_targets, test_targets),
    ]:
        paths[name] = tmp_path / f"{name}.csv"
        writer(paths[name], data)
    return paths


class TestConformalCommand:
    def test_baseline_sets_and_coverage(self, tmp_path, clf_fixture, capsys):
        out_csv = tmp_path / "sets.csv"
        code, out, _ = run(
            capsys,
            "conformal", "--method", "baseline", "--alpha", "0.2",
            "--val-probs", str(clf_fixture["val_probs"]),
            "--val-targets", str(clf_fixture["val_targets"]),
            "--test-probs", str(clf_fixture["test_probs"]),
            "--test-targets", str(clf_fixture["test_targets"]),
            "--out", str(out_csv),
        )
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 15
        assert 0.0 <= report["coverage"] <= 1.0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "set"
        assert all(set(line) <= set("012;") for line in lines[1:])

    def test_byte_stable_replay(self, tmp_path, clf_fixture, capsys):
        args = [
            "conformal", "--method", "adaptive", "--alpha", "0.1",
            "--val-probs", str(clf_fixture["val_probs"]),
            "--val-targets", str(clf_fixture["val_targets"]),
            "--test-probs", str(clf_fixture["test_probs"]),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_cqr_golden(self, tmp_path, capsys):
        # the hand-computed shrinking instance: all bounds [0,1], targets 0.5
        for name, vals in [
            ("vl", [0.0] * 3), ("vu", [1.0] * 3), ("vt", [0.5] * 3),
            ("tl", [0.0]), ("tu", [1.0]),
        ]:
            write_column(tmp_path / f"{name}.csv", vals, "value")
        out_csv = tmp_path / "intervals.csv"
        code, out, _ = run(
            capsys,
            "conformal", "--method", "cqr", "--alpha", "0.5",
            "--val-lower", str(tmp_path / "vl.csv"),
            "--val-upper", str(tmp_path / "vu.csv"),
            "--val-targets", str(tmp_path / "vt.csv"),
            "--test-lower", str(tmp_path / "tl.csv"),
            "--test-upper", str(tmp_path / "tu.csv"),
            "--out", str(out_csv),
        )
        assert code == 0
        assert out_csv.read_bytes() == b"lower,upper\r\n0.5,0.5\r\n"

    def test_out_parent_directory_is_created(self, tmp_path, clf_fixture, capsys):
        out_csv = tmp_path / "missing_dir" / "sets.csv"
        code, _, _ = run(
            capsys,
            "conformal", "--method", "baseline", "--alpha", "0.2",
            "--val-probs", str(clf_fixture["val_probs"]),
            "--val-targets", str(clf_fixture["val_targets"]),
            "--test-probs", str(clf_fixture["test_probs"]),
            "--out", str(out_csv),
        )
        assert code == 0
        assert out_csv.read_text().startswith("set")

    def test_missing_flag_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "conformal", "--method", "cqr", "--alpha", "0.1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--val-lower" in err

    def test_alpha_out_of_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, "conformal", "--method", "baseline", "--alpha", "1.5", "--out", "x"
        )
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error: argument --alpha:")

    def test_alpha_flag_reports_the_parsed_value(self, capsys):
        code, _, err = run(
            capsys, "conformal", "--method", "baseline", "--alpha", "1e0", "--out", "x"
        )
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error: argument --alpha:")
        assert "alpha must lie in (0, 1), got 1.0" in err

    def test_malformed_data_exits_3(self, tmp_path, clf_fixture, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("p0,p1\n0.9,oops\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "conformal", "--method", "baseline", "--alpha", "0.1",
            "--val-probs", str(bad),
            "--val-targets", str(clf_fixture["val_targets"]),
            "--test-probs", str(clf_fixture["test_probs"]),
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 3
        assert "row 2" in err


    def test_negative_probability_exits_3_naming_the_row(self, tmp_path, capsys):
        probs = tmp_path / "p.csv"
        probs.write_text("p0,p1\n0.5,0.5\n1.4,-0.4\n", encoding="utf-8")
        write_targets(tmp_path / "t.csv", [0, 1])
        code, _, err = run(
            capsys,
            "conformal", "--method", "baseline", "--alpha", "0.1",
            "--val-probs", str(tmp_path / "p.csv"),
            "--val-targets", str(tmp_path / "t.csv"),
            "--test-probs", str(tmp_path / "p.csv"),
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 3
        assert err == f"data error: {probs}: data row 2 has a negative entry -0.4\n"


# a valid file per conformal input, by the last word of its flag: four rows,
# two classes
_INPUT_ROWS = {
    "probs": (["p0", "p1"], [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]]),
    "targets": (["target"], [[0], [1], [0], [1]]),
    "lower": (["lower"], [[0.0], [0.5], [-0.5], [0.2]]),
    "upper": (["upper"], [[1.0], [1.5], [0.5], [1.2]]),
    "means": (["mean"], [[0.5], [1.0], [0.0], [0.7]]),
    "stds": (["std"], [[1.0], [0.5], [2.0], [1.0]]),
}


@pytest.mark.parametrize("argv, message", [
    (["conformal", "--method", "baseline", "--alpha", "0.1", "--bogus", "1", "--out", "nd/x.csv"],
     "unrecognized arguments: --bogus 1"),
    (["conformal", "--method", "baseline", "--alpha", "0.1"],
     "the following arguments are required: --out"),
    ([], "the following arguments are required: command"),
])
def test_flag_fault_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: uqkit")


_SEED_UNREAD = "--seed is read only with --method adaptive --mode randomized"


# --mode randomized, and the --seed only it reads, outside adaptive randomized
@pytest.mark.parametrize("method, flags, message", [
    *[pytest.param(method, ["--mode", "randomized", "--seed", "5"],
                   f"--mode randomized applies to adaptive only, not {method}", id=method)
      for method in ("baseline", "cqr", "scalar")],
    *[pytest.param(method, ["--seed", "5"], _SEED_UNREAD, id=f"seed-{method}")
      for method in _CONFORMAL],
    pytest.param("adaptive", ["--mode", "deterministic", "--seed", "0"], _SEED_UNREAD,
                 id="seed-adaptive-deterministic"),
    # an input flag of another method
    pytest.param("cqr", ["--val-probs", "p.csv"],
                 "--val-probs is read only with --method baseline or adaptive", id="probs-cqr"),
    pytest.param("baseline", ["--val-means", "m.csv"],
                 "--val-means is read only with --method scalar", id="means-baseline"),
    pytest.param("scalar", ["--test-lower", "l.csv", "--test-probs", "p.csv"],
                 "--test-probs is read only with --method baseline or adaptive\n"
                 "config error: --test-lower is read only with --method cqr", id="two-scalar"),
])
def test_randomized_mode_on_a_method_other_than_adaptive_exits_2(
    tmp_path, capsys, method, flags, message
):
    argv = conformal_argv(tmp_path, method)
    code, out, err = run(capsys, *argv, *flags)
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "new").exists()


def test_randomized_seed_defaults_to_0(tmp_path, capsys):
    argv = conformal_argv(tmp_path, "adaptive") + ["--mode", "randomized"]
    assert run(capsys, *argv)[0] == 0
    default = (tmp_path / "new" / "out.csv").read_bytes()
    assert run(capsys, *argv, "--seed", "0")[0] == 0
    assert (tmp_path / "new" / "out.csv").read_bytes() == default
    assert run(capsys, *argv, "--seed", "1")[0] == 0  # a seed these rows feel
    assert (tmp_path / "new" / "out.csv").read_bytes() != default


def conformal_argv(tmp_path, method, leave_out=None):
    """A ``conformal`` call with a valid file for each of the method's input
    flags but ``leave_out``, writing under a directory that does not exist."""
    argv = [
        "conformal", "--method", method, "--alpha", "0.2",
        "--out", str(tmp_path / "new" / "out.csv"),
    ]
    for flag in _CONFORMAL[method][1]:
        if flag != leave_out:
            header, rows = _INPUT_ROWS[flag.rsplit("_", 1)[1]]
            write_matrix_csv(tmp_path / f"{flag}.csv", np.array(rows, float), header)
            argv += [f"--{flag.replace('_', '-')}", str(tmp_path / f"{flag}.csv")]
    return argv


@pytest.mark.parametrize("method, flag", [
    (method, flag) for method, (_, flags) in _CONFORMAL.items() for flag in flags
])
def test_each_conformal_input_is_required_before_any_directory(tmp_path, capsys, method, flag):
    code, out, err = run(capsys, *conformal_argv(tmp_path, method, leave_out=flag))
    assert code == 2 and out == ""
    assert err == f"config error: --{flag.replace('_', '-')} is required for {method}\n"
    assert not (tmp_path / "new").exists()
    code, _, err = run(capsys, *conformal_argv(tmp_path, method))
    assert code == 0, err
    assert (tmp_path / "new" / "out.csv").exists()


def test_conformal_parser_takes_the_table_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices["conformal"]._actions if a.dest != "help"]
    table = {flag for _, flags in _CONFORMAL.values() for flag in flags}
    assert {a.dest for a in actions} == table | {
        "test_targets", "alpha", "mode", "seed", "out", "method"
    }
    assert {s for a in actions for s in a.option_strings} == {
        "--method", "--alpha", "--val-probs", "--val-targets", "--test-probs",
        "--test-targets", "--val-lower", "--val-upper", "--test-lower", "--test-upper",
        "--val-means", "--val-stds", "--test-means", "--test-stds", "--mode", "--seed",
        "--out",
    }


@pytest.mark.parametrize("method, targets, message", [
    ("baseline", [0], "data error: {dir}/test_probs.csv has 4 data rows but {dir}/y.csv has 1"),
    ("baseline", [0, 1, 0, 1, 0],
     "data error: {dir}/test_probs.csv has 4 data rows but {dir}/y.csv has 5"),
    ("baseline", [7, 0, 1, 0],
     "data error: {dir}/y.csv: data row 1: class label 7 is not a nonnegative integer below 2"),
    ("cqr", [0.5], "data error: {dir}/test_lower.csv has 4 data rows but {dir}/y.csv has 1"),
    ("cqr", [0.5] * 5, "data error: {dir}/test_lower.csv has 4 data rows but {dir}/y.csv has 5"),
])
def test_coverage_needs_one_valid_target_per_test_row(tmp_path, capsys, method, targets, message):
    write_targets(tmp_path / "y.csv", targets)
    argv = conformal_argv(tmp_path, method) + ["--test-targets", str(tmp_path / "y.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == message.format(dir=tmp_path) + "\n"


def _row_pairs():
    """(command, conformal method, first flag, partner flag, unit) of every
    CLI pairing of files whose data rows, or classes, must match."""
    for method, (_, flags) in _CONFORMAL.items():
        for group in ("val_", "test_"):
            paired = [f for f in [*flags, "test_targets"] if f.startswith(group)]
            for flag in paired[1:]:
                yield pytest.param(
                    "conformal", method, paired[0], flag, "data rows", id=f"{method}-{flag}"
                )
        if "test_probs" in flags:
            yield pytest.param(
                "conformal", method, "val_probs", "test_probs", "classes", id=f"{method}-classes"
            )
    for first, flag in (("probs", "targets"), ("calib_probs", "calib_targets")):
        yield pytest.param("evaluate", None, first, flag, "data rows", id=f"evaluate-{flag}")
    yield pytest.param("evaluate", None, "probs", "calib_probs", "classes", id="evaluate-classes")
    yield pytest.param("calibrate", None, "logits", "targets", "data rows", id="calibrate-targets")
    yield pytest.param(
        "calibrate", None, "logits", "test_logits", "classes", id="calibrate-classes"
    )


@pytest.mark.parametrize("command, method, first, short, unit", _row_pairs())
def test_paired_files_with_different_row_counts_exit_3_naming_both(
    tmp_path, capsys, command, method, first, short, unit
):
    # a class-count mismatch between probability or logit files is named the same way
    if command == "conformal":
        argv = conformal_argv(tmp_path, method)
        flags = ["test_targets"]
    elif command == "evaluate":
        argv = ["evaluate", "--alpha", "0.5", "--out-dir", str(tmp_path / "new")]
        flags = ["probs", "targets", "calib_probs", "calib_targets"]
    else:
        argv = ["calibrate", "--out-dir", str(tmp_path / "new")]
        flags = ["logits", "targets", "test_logits"]
    for flag in flags:
        argv += [f"--{flag.replace('_', '-')}", str(tmp_path / f"{flag}.csv")]
    for flag in [*flags, short]:
        kind = flag.rsplit("_", 1)[-1]
        header, rows = _INPUT_ROWS["probs" if kind == "logits" else kind]
        if flag == short and unit == "data rows":
            rows = rows[:3]
        elif flag == short:  # a third class, with no mass
            header, rows = [*header, "p2"], [[*row, 0.0] for row in rows]
        write_matrix_csv(tmp_path / f"{flag}.csv", np.array(rows, float), header)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    counts = (4, 3) if unit == "data rows" else (2, 3)
    assert err == (
        f"data error: {tmp_path / f'{first}.csv'} has {counts[0]} {unit} "
        f"but {tmp_path / f'{short}.csv'} has {counts[1]}\n"
    )
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("stream", [
    pytest.param("fifo", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")),
    pytest.param("pipe", marks=pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no fds")),
])
def test_an_input_read_from_a_pipe_gives_the_bytes_of_the_file(tmp_path, capsys, stream):
    # a pipe cannot seek, so the Python reader reads it, once
    argv = conformal_argv(tmp_path, "baseline") + ["--test-targets"]
    want = run(capsys, *argv, str(tmp_path / "val_targets.csv"))
    assert want[0] == 0
    sets = (tmp_path / "new" / "out.csv").read_bytes()
    data = (tmp_path / "val_targets.csv").read_bytes()
    if stream == "fifo":
        path = tmp_path / "targets.fifo"
        os.mkfifo(path)
        sink, close = str(path), lambda: None
    else:  # as the shell's <(cat targets.csv) passes it
        read_end, write_end = os.pipe()
        path, sink, close = f"/dev/fd/{read_end}", write_end, lambda: os.close(read_end)

    def feed():
        with open(sink, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = run(capsys, *argv, str(path))
    finally:
        writer.join(timeout=10)
        close()
    assert not writer.is_alive()
    assert got == want
    assert (tmp_path / "new" / "out.csv").read_bytes() == sets


def test_unbounded_intervals_report_a_null_mean_width(tmp_path, capsys):
    # one calibration row is too few for alpha = 0.1, so every interval is
    # unbounded, and standard JSON has no infinity
    paths = {}
    for name, column, value in (("lower", "lower", 0.0), ("upper", "upper", 1.0),
                                ("y", "target", 0.5)):
        paths[name] = str(tmp_path / f"{name}.csv")
        write_column(paths[name], [value], column)
    code, out, _ = run(
        capsys, "conformal", "--method", "cqr", "--alpha", "0.1",
        "--val-lower", paths["lower"], "--val-upper", paths["upper"],
        "--val-targets", paths["y"], "--test-lower", paths["lower"],
        "--test-upper", paths["upper"], "--out", str(tmp_path / "out.csv"),
    )
    assert code == 0
    assert _strict_json(out)["mean_width"] is None
    assert (tmp_path / "out.csv").read_text().splitlines()[1] == "-inf,inf"


@pytest.mark.parametrize(
    "fault", ["conformal_input_dir", "conformal_out_dir", "calibrate_out_file"]
)
def test_path_fault_exits_3_naming_the_path(tmp_path, capsys, fault):
    argv = conformal_argv(tmp_path, "baseline")
    if fault == "conformal_input_dir":
        bad = tmp_path / "dir.csv"
        argv[argv.index("--val-probs") + 1] = str(bad)
        bad.mkdir()
    elif fault == "conformal_out_dir":
        bad = tmp_path / "new" / "out.csv"
        bad.mkdir(parents=True)
    else:
        bad = tmp_path / "file"
        bad.write_text("", encoding="utf-8")
        argv = [
            "calibrate", "--logits", str(tmp_path / "val_probs.csv"),
            "--targets", str(tmp_path / "val_targets.csv"), "--out-dir", str(bad),
        ]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("data error: ")
    assert str(bad) in err


@pytest.mark.parametrize(
    "command", ["conformal", "calibrate", "calibrate_overflow", "train", "benchmark"]
)
def test_nonzero_exit_makes_no_directory_and_writes_no_file(tmp_path, capsys, command):
    # the writers make an output's directory, and a command writes only
    # after its last computation, so a fault leaves no trace on disk
    out_path = tmp_path / "new"
    missing = str(tmp_path / "missing.csv")
    if command == "conformal":
        argv = conformal_argv(tmp_path, "baseline")
        argv[argv.index("--test-probs") + 1] = missing
        expected = 3
    elif command == "calibrate":
        write_targets(tmp_path / "y.csv", [0, 1])
        argv = ["calibrate", "--logits", missing, "--targets", str(tmp_path / "y.csv"),
                "--out-dir", str(out_path)]
        expected = 3
    elif command == "calibrate_overflow":
        argv, expected = calibrate_argv(tmp_path, [-1.797e308, 1.797e308], "adam", out_path), 3
    elif command == "train":
        config = train_config(tmp_path, model={"hidden_widths": [2**56]}, out_dir=str(out_path))
        argv, expected = ["train", "--config", str(config)], 3
    else:
        config = train_config(
            tmp_path, method="swag", method_params={"rank": 2}, seeds=[0, 1, 2],
            optimizer={"algorithm": "sgd", "learning_rate": 1e308, "epochs": 3},
            out_dir=str(out_path),
        )
        argv, expected = ["benchmark", "--config", str(config)], 4
    code, out, err = run(capsys, *argv)
    assert code == expected and out == ""
    assert err.count("\n") == 1, err
    assert not out_path.exists()


def calibrate_argv(tmp_path, row, method, out_dir):
    """A ``calibrate`` call on one row of logits with target 0."""
    write_matrix_csv(tmp_path / "row.csv", np.array([row]), ["z0", "z1"])
    write_targets(tmp_path / "zero.csv", [0])
    return ["calibrate", "--logits", str(tmp_path / "row.csv"),
            "--targets", str(tmp_path / "zero.csv"), "--method", method,
            "--out-dir", str(out_dir)]


def _strict_json(text: str):
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestCalibrateCommand:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["golden", "adam"])
    def test_logits_at_the_float_limit_fit_without_warnings(self, tmp_path, capsys, method):
        # the NLL is the largest float: finite, so the fit stands
        argv = calibrate_argv(tmp_path, [-1.7976931348623157e308, 0.0], method, tmp_path / "o")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        report = _strict_json(out)
        assert report["nll_before"] == report["nll_after"] == 1.7976931348623157e308
        assert _strict_json((tmp_path / "o" / "fit.json").read_text()) == report

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["golden", "adam"])
    def test_an_infinite_nll_exits_3_naming_the_field(self, tmp_path, capsys, method):
        argv = calibrate_argv(tmp_path, [-1.797e308, 1.797e308], method, tmp_path / "o")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == (
            "data error: nll_before is inf: the logits are too large for a finite NLL\n"
        )
        assert not (tmp_path / "o").exists()

    def test_fit_report_fields_and_guarantee(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        logits = rng.normal(scale=4, size=(60, 3))
        probs = softmax(logits / 2.0, axis=1)
        targets = np.array([rng.choice(3, p=p) for p in probs])
        write_matrix_csv(tmp_path / "logits.csv", logits, ["p0", "p1", "p2"])
        write_targets(tmp_path / "targets.csv", targets)
        code, out, _ = run(
            capsys,
            "calibrate", "--logits", str(tmp_path / "logits.csv"),
            "--targets", str(tmp_path / "targets.csv"),
            "--out-dir", str(tmp_path / "fit"),
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) >= {"t", "nll_before", "nll_after", "iterations"}
        assert report["nll_after"] <= report["nll_before"] + 1e-12
        on_disk = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert on_disk == report
        calibrated = (tmp_path / "fit" / "calibrated.csv").read_text().splitlines()
        assert calibrated[0] == "p0,p1,p2,entropy"
        assert len(calibrated) == 61

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(20, 2))
        write_matrix_csv(tmp_path / "l.csv", logits, ["p0", "p1"])
        write_targets(tmp_path / "t.csv", rng.integers(0, 2, size=20))
        for d in ("r1", "r2"):
            assert main([
                "calibrate", "--logits", str(tmp_path / "l.csv"),
                "--targets", str(tmp_path / "t.csv"),
                "--out-dir", str(tmp_path / d),
            ]) == 0
        capsys.readouterr()
        for name in ("fit.json", "calibrated.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()


def train_config(tmp_path, **overrides):
    doc = {
        "task": "classification",
        "data": {"synth": {"name": "two_moons", "n": 150, "noise": 0.15}},
        "split": [0.6, 0.2, 0.2],
        "model": {"hidden_widths": [16, 16], "activation": "relu"},
        "method": "map",
        "optimizer": {
            "algorithm": "adam", "learning_rate": 0.01, "epochs": 40,
            "batch_size": 16, "weight_decay": 1e-4,
        },
        "out_dir": str(tmp_path / "run"),
        "seed": 0,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# the method_params keys each method reads
_READS = {
    "map": (),
    "ensemble": ("members",),
    "swag": ("rank", "snapshot_every", "swag_epochs"),
    "laplace": ("prior_precision",),
    "advi": ("mc_samples", "prior_precision"),
}
_PARAM_VALUES = {
    "members": 2, "rank": 2, "snapshot_every": 1, "swag_epochs": 1,
    "mc_samples": 1, "prior_precision": 1.0,
}


@pytest.mark.parametrize("method, key", [
    (m, k) for m in _READS for k in _PARAM_VALUES if k not in _READS[m]
])
def test_method_param_the_method_never_reads_exits_2(tmp_path, capsys, method, key):
    config = train_config(tmp_path, method=method, method_params={key: _PARAM_VALUES[key]})
    code, out, err = run(capsys, "train", "--config", str(config))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert repr(key) in err and repr(method) in err


@pytest.mark.parametrize("method", list(_READS))
def test_method_params_the_method_reads_are_accepted(tmp_path, method):
    params = {k: _PARAM_VALUES[k] for k in _READS[method]}
    config = load_config(train_config(tmp_path, method=method, method_params=params))
    assert config.method_params.items() >= params.items()


def test_benchmark_config_takes_the_swag_params(tmp_path, capsys):
    # the benchmark runs MAP then SWAG, so it reads the SWAG keys only
    seeds = {"seeds": [0, 1, 2]}
    ok = train_config(tmp_path, method="map", method_params={"rank": 2}, **seeds)
    assert load_config(ok, require_seeds=True).method_params["rank"] == 2
    bad = train_config(tmp_path, method="swag", method_params={"members": 2}, **seeds)
    code, _, err = run(capsys, "benchmark", "--config", str(bad))
    assert code == 2 and "'members'" in err and err.count("\n") == 1


def test_benchmark_config_faults_are_listed_in_one_run(tmp_path, capsys):
    # csv data, a regression task and no seeds: three faults, one exit-2 run
    bad = train_config(
        tmp_path, task="regression", data={"csv": {"path": "x.csv", "target_column": "y"}}
    )
    code, out, err = run(capsys, "benchmark", "--config", str(bad))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 3 and all(line.startswith("config error: ") for line in lines)
    assert "'seeds'" in lines[0]
    assert "synthetic dataset spec" in lines[1]
    assert "classification" in lines[2]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides, where", [
    ({"optimizer": {"epochs": 2.0}}, "optimizer/epochs"),
    ({"optimizer": {"batch_size": 8.0}}, "optimizer/batch_size"),
    ({"data": {"synth": {"name": "two_moons", "n": 60.0}}}, "data/synth/n"),
    ({"data": {"synth": {"name": "gaussian_blobs", "n": 60, "classes": 3.0}}},
     "data/synth/classes"),
    ({"model": {"hidden_widths": [4.0]}}, "model/hidden_widths/0"),
    ({"method": "ensemble", "method_params": {"members": 2.0}}, "method_params/members"),
])
def test_integral_float_for_an_integer_exits_2(tmp_path, capsys, overrides, where):
    # JSON Schema's integer admits 2.0, which the fits and generators do not
    code, out, err = run(capsys, "train", "--config", str(train_config(tmp_path, **overrides)))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"config error: at {where}: expected integer")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides, where, value", [
    ({"method": "laplace", "method_params": {"prior_precision": math.nan}},
     "method_params/prior_precision", math.nan),
    ({"data": {"synth": {"name": "two_moons", "n": 60, "noise": math.inf}}},
     "data/synth/noise", math.inf),
    ({"optimizer": {"learning_rate": -math.inf}}, "optimizer/learning_rate", -math.inf),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, overrides, where, value):
    # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads back
    config = train_config(tmp_path, **overrides)
    code, out, err = run(capsys, "train", "--config", str(config))
    assert code == 2 and out == ""
    assert err == f"config error: at {where}: expected a finite number, got {value!r}\n"
    assert not (tmp_path / "run").exists()


def test_split_fractions_must_sum_to_1(tmp_path, capsys):
    code, out, err = run(capsys, "train", "--config", str(train_config(tmp_path, split=[0.5] * 3)))
    assert code == 2 and out == ""
    assert err == "config error: at split: fractions must sum to 1, got 1.5\n"
    assert not (tmp_path / "run").exists()
    # the criterion-9 split sums to 1 within the tolerance
    fractions = [3 / 19, 8 / 19, 8 / 19]
    assert load_config(train_config(tmp_path, split=fractions)).split_fractions == tuple(fractions)


def test_config_bins_past_2_to_the_53_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "train", "--config", str(train_config(tmp_path, bins=2**53 + 1)))
    assert code == 2 and out == ""
    assert err == "config error: at bins: 9007199254740993 is above the maximum 9007199254740992\n"
    assert not (tmp_path / "run").exists()


_SEED_FAULTS = [
    (-1, "-1 is below the minimum 0"),
    (2**64, "18446744073709551616 is above the maximum 18446744073709551615"),
]


@pytest.mark.parametrize("seed, fault", _SEED_FAULTS)
@pytest.mark.parametrize("command, key", [("train", "seed"), ("benchmark", "seeds")])
def test_config_seed_outside_the_stream_exits_2(tmp_path, capsys, seed, fault, command, key):
    # Rng takes a seed modulo 2**64, so 2**64 would replay seed 0
    doc = {"seed": 0, "seeds": [0, 1, 2]}
    doc[key] = seed if key == "seed" else [0, 1, seed]
    config = train_config(tmp_path, **doc)
    code, out, err = run(capsys, command, "--config", str(config))
    assert code == 2 and out == ""
    where = "seed" if key == "seed" else "seeds/2"
    assert err == f"config error: at {where}: {fault}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seed, fault", _SEED_FAULTS)
@pytest.mark.parametrize("command", ["train", "evaluate", "conformal"])
def test_seed_flag_outside_the_stream_exits_2(capsys, seed, fault, command):
    code, out, err = run(capsys, command, "--seed", str(seed))
    assert code == 2 and out == ""
    assert err == f"config error: argument --seed: at seed: {fault}\n"
    assert cli_module._seed_flag(str(2**64 - 1)) == 2**64 - 1


def test_train_config_faults_are_listed_in_one_run(tmp_path, capsys):
    # a rule on two keys, a method_params key the method never reads and a
    # schema bound: three faults, one exit-2 run
    bad = train_config(
        tmp_path, task="regression", method_params={"rank": 2}, optimizer={"epochs": 0}
    )
    code, out, err = run(capsys, "train", "--config", str(bad))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("config error: at data/synth: synth generators make classification")
    assert lines[1] == "config error: at method_params/rank: method 'map' does not read 'rank'"
    assert lines[2].startswith("config error: at optimizer/epochs: 0 is below")
    assert not (tmp_path / "run").exists()


def test_cli_import_leaves_jsonschema_unloaded():
    # jsonschema is a test-only dependency: the validator is uqkit's own
    probe = (
        "import sys, uqkit.cli; "
        "print(sorted({'jsonschema', 'referencing', 'attr'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(config_module.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_each_setting_has_one_home(tmp_path, monkeypatch):
    # config knows which method_params keys each method reads; their
    # defaults live only in the signatures of the fits they feed
    schema = config_module.RUN_SCHEMA["properties"]["method_params"]["properties"]
    assert set(schema) == set().union(*config_module._METHOD_PARAMS.values())
    fits = {
        "ensemble": posterior.ensemble_fit,
        "swag": posterior.swag_fit,
        "laplace": posterior.laplace_fit,
        "advi": posterior.advi_fit,
    }
    for method, keys in config_module._METHOD_PARAMS.items():
        for key in keys - {"swag_epochs"}:  # swag_epochs sets the optimizer's epochs
            param = inspect.signature(fits[method]).parameters[key]
            assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            assert param.default is not inspect.Parameter.empty
    # the config's optimizer defaults only override what OptimConfig says
    optim = {f.name: f.default for f in dataclasses.fields(posterior.OptimConfig)}
    for key, value in config_module._OPTIM_DEFAULTS.items():
        assert value != optim[key], key
    # a config that leaves out temperature_method, model/activation and
    # data/synth/classes passes nothing for them, so the defaults in the
    # signatures of fit_temperature, MlpConfig and synth_classification hold
    passed = {}

    def record(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            # every parameter given, by position or by name
            passed[name] = inspect.signature(fn).bind(*args, **kwargs).arguments
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    record(config_module, "synth_classification")
    record(config_module, "MlpConfig")
    record(cli_module, "fit_temperature")
    config = train_config(
        tmp_path, data={"synth": {"name": "gaussian_blobs", "n": 40}},
        model={"hidden_widths": [4]}, optimizer={"epochs": 1}, method_params={"rank": 1},
        seeds=[0, 1, 2],
    )
    assert cli_module.main(["benchmark", "--config", str(config)]) == 0
    assert "n_classes" not in passed["synth_classification"]
    assert "activation" not in passed["MlpConfig"]
    assert "method" not in passed["fit_temperature"]
    # neither do calibrate without --method and evaluate without --seed, so
    # the defaults of fit_temperature and sample_weights hold
    record(cli_module, "sample_weights")
    run_dir = tmp_path / "run"
    config = train_config(tmp_path, model={"hidden_widths": [4]}, optimizer={"epochs": 1})
    assert cli_module.main(["train", "--config", str(config)]) == 0
    assert cli_module.main([
        "evaluate", "--state", str(run_dir / "state.json"), "--data", str(run_dir / "test.csv"),
    ]) == 0
    assert "seed" not in passed["sample_weights"]
    write_probs(tmp_path / "logits.csv", [[2.0, 0.0], [0.0, 1.0], [1.0, 0.5]])
    write_targets(tmp_path / "targets.csv", [0, 1, 1])
    assert cli_module.main([
        "calibrate", "--logits", str(tmp_path / "logits.csv"),
        "--targets", str(tmp_path / "targets.csv"), "--out-dir", str(tmp_path / "cal"),
    ]) == 0
    assert "method" not in passed["fit_temperature"]
    # a setting the library also takes is, in the config and state schemas,
    # the very fragment the library checks its argument with
    run = config_module.RUN_SCHEMA["properties"]
    assert run["task"] is data.TASK_SCHEMA
    assert run["data"]["properties"]["synth"] is data.SYNTH_SCHEMA
    assert run["split"] is data.SPLIT_SCHEMA
    assert run["optimizer"] is posterior.OPTIM_SCHEMA
    assert run["optimizer"]["properties"]["batch_size"] is data.BATCH_SIZE_SCHEMA
    assert run["method_params"] is posterior.FIT_PARAMS
    assert run["predictive_samples"] is posterior.DRAWS_SCHEMA
    assert run["bins"] is metrics.BINS_SCHEMA
    assert run["temperature_method"] is calibration.METHOD_SCHEMA
    assert run["model"]["properties"]["activation"] is mlp.MODEL_SCHEMA["properties"]["activation"]
    for schema in posterior._STATE_SCHEMAS.values():
        top = schema["properties"]
        assert top["task"] is data.TASK_SCHEMA and top["model"] is mlp.MODEL_SCHEMA
        for key in {"members", "rank"} & set(top):
            assert top[key] is posterior.FIT_PARAMS["properties"][key]
    # calibrate --method offers fit_temperature's methods
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["calibrate"]._actions if a.dest == "method")
    assert method.choices is calibration.TEMPERATURE_METHODS
    # a config's seed, each of its seeds and every --seed flag take the
    # stream's seed range
    assert run["seed"] is rng_module.SEED_SCHEMA
    assert run["seeds"]["items"] is rng_module.SEED_SCHEMA
    for command in ("conformal", "train", "evaluate"):
        seed = next(a for a in sub.choices[command]._actions if a.dest == "seed")
        assert seed.type is cli_module._seed_flag


_NAN = float("nan")


def _config_and_library_refusals():
    """(config overrides, library call): a value of one setting that a run
    config refuses, and a library call given the same value. ``input_dim``,
    which no run config holds, is refused in a state's ``model``."""
    ds = synth_classification("two_moons", 20, 0.1, seed=0)
    cfg = MlpConfig(2, (4,), 2, "tanh")
    start = MapState(np.zeros(param_count(cfg)))
    opt = OptimConfig(epochs=1)
    probs, labels = np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([0, 1])
    model = {"input_dim": 2.5}
    cases = [
        ({"optimizer": {"learning_rate": _NAN}}, lambda: OptimConfig(learning_rate=_NAN),
         "learning_rate"),
        ({"optimizer": {"weight_decay": _NAN}}, lambda: OptimConfig(weight_decay=_NAN),
         "weight_decay"),
        ({"optimizer": {"epochs": 2.5}}, lambda: OptimConfig(epochs=2.5), "epochs"),
        ({"optimizer": {"batch_size": 0}}, lambda: OptimConfig(batch_size=0), "batch_size"),
        ({"method": "laplace", "method_params": {"prior_precision": _NAN}},
         lambda: laplace_fit(start, cfg, ds, prior_precision=_NAN), "laplace_prior"),
        ({"method": "advi", "method_params": {"prior_precision": _NAN}},
         lambda: advi_fit(cfg, ds, opt, prior_precision=_NAN), "advi_prior"),
        ({"method": "advi", "method_params": {"mc_samples": 0}},
         lambda: advi_fit(cfg, ds, opt, mc_samples=0), "mc_samples"),
        ({"method": "swag", "method_params": {"rank": 0}},
         lambda: swag_fit(start, cfg, ds, opt, rank=0), "rank"),
        ({"method": "ensemble", "method_params": {"members": 1}},
         lambda: ensemble_fit(cfg, ds, opt, members=1), "members"),
        ({"method": "ensemble", "method_params": {"members": 1}},
         lambda: EnsembleState((start.theta,)), "ensemble_state"),
        ({"predictive_samples": 0}, lambda: posterior_sample(start, Rng(0), 0), "draws"),
        ({"bins": 2.5}, lambda: ece(probs, labels, n_bins=2.5), "bins"),
        ({"split": ["0.5", "0.25", "0.25"]}, lambda: split(ds, ["0.5", "0.25", "0.25"], 0),
         "split"),
        ({"data": {"synth": {"name": "two_moons", "n": 20, "noise": _NAN}}},
         lambda: synth_classification("two_moons", 20, _NAN, 0), "noise"),
        ({"data": {"synth": {"name": "spirals", "n": 20}}},
         lambda: synth_classification("spirals", 20, 0.1, 0), "generator"),
        ({"task": "ranking"}, lambda: data.Dataset(ds.inputs, ds.targets, "ranking", ("a", "b")),
         "task"),
        ({"temperature_method": "newton"}, lambda: fit_temperature(probs, labels, "newton"),
         "method"),
        (model, lambda: MlpConfig(2.5, (4,), 2), "input_dim"),
    ]
    return [pytest.param(overrides, call, id=name) for overrides, call, name in cases]


@pytest.mark.parametrize("overrides, call", _config_and_library_refusals())
def test_the_library_refuses_what_the_config_refuses_in_its_words(tmp_path, overrides, call):
    if overrides.keys() == {"input_dim"}:  # a state document's model
        cfg = MlpConfig(2, (4,), 2)
        doc = state_to_dict(MapState(np.zeros(param_count(cfg))), cfg, "classification")
        doc["model"].update(overrides)
        with pytest.raises(DataError) as refused:
            state_from_dict(doc)
        config_lines = str(refused.value).split("; ")
    else:
        with pytest.raises(ConfigError) as refused:
            load_config(train_config(tmp_path, **overrides))
        config_lines = refused.value.messages
    with pytest.raises(ValueError) as raised:
        call()
    library_lines = str(raised.value).split("; ")
    # the same faults, each at the library's name of the setting
    assert [line.split(": ", 1)[1] for line in library_lines] == [
        line.split(": ", 1)[1] for line in config_lines
    ]
    assert all(line.startswith("at ") for line in library_lines)


class TestTrainCommand:
    def test_two_moons_map_reaches_high_accuracy(self, tmp_path, capsys):
        config = train_config(tmp_path)
        code, out, _ = run(capsys, "train", "--config", str(config))
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        run_dir = tmp_path / "run"
        state, model, task = load_state(run_dir / "state.json")
        train_ds = load_csv(run_dir / "train.csv", "classification", "target")
        from uqkit.mlp import mlp_forward

        probs = softmax(mlp_forward(model, state.theta, train_ds.inputs), axis=1)
        assert classification_report(probs, train_ds.targets).accuracy > 0.9
        trace = (run_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "phase,epoch,loss"
        assert len(trace) == 41

    def test_replay_identical_state_file(self, tmp_path, capsys):
        config = train_config(tmp_path)
        assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        for name in ("state.json", "trace.csv", "train.csv", "calib.csv", "test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_corrupt_config_lists_field_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "task": "clustering",
            "data": {"synth": {"name": "two_moons", "n": 1}},
            "model": {"hidden_widths": []},
            "method": "map",
            "optimizer": {"epochs": 0},
            "out_dir": "x",
            "seed": 0,
            "unknown_key": 1,
            "conformal": {"method": "baseline", "alpha": 0.1},
        }), encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(path))
        assert code == 2
        for fragment in ("task", "data/synth/n", "model/hidden_widths",
                         "optimizer/epochs", "unknown_key", "conformal"):
            assert fragment in err

    @pytest.mark.parametrize("text, needle", [
        (None, "no such config file"),
        ("{", "config is not valid JSON"),
        ("[]", "config must be a JSON object"),
        (b"\xff{}", "config is not valid JSON"),
    ])
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys, text, needle):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        code, out, err = run(capsys, "train", "--config", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"config error: {needle}")
        assert str(path) in err

    def test_seed_flag_writes_the_bytes_of_that_config_seed(self, tmp_path, capsys):
        optimizer = {"algorithm": "adam", "learning_rate": 0.01, "epochs": 3, "batch_size": 16}
        config = train_config(tmp_path, optimizer=optimizer)
        for out_dir, seed in (("flag", ["--seed", "5"]), ("zero", [])):
            argv = ["train", "--config", str(config), "--out-dir", str(tmp_path / out_dir)]
            assert main(argv + seed) == 0
        config = train_config(tmp_path, optimizer=optimizer, seed=5)
        assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "five")]) == 0
        capsys.readouterr()
        names = ("state.json", "trace.csv", "train.csv", "calib.csv", "test.csv")
        read = {d: [(tmp_path / d / n).read_bytes() for n in names] for d in ("flag", "zero", "five")}
        assert read["flag"] == read["five"]
        assert read["flag"] != read["zero"]

    def test_overflowing_swag_snapshot_exits_4(self, tmp_path, capsys):
        # SGD at learning rate 1e3 takes seed 2's SWAG iterates past
        # ~1.3e154 while they stay finite, so a snapshot's square overflows
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "task": "classification",
            "data": {"synth": {"name": "two_moons", "n": 95, "noise": 0.15}},
            "model": {"hidden_widths": [64, 64], "activation": "relu"},
            "method": "swag",
            "optimizer": {
                "algorithm": "sgd", "learning_rate": 1e3, "epochs": 10,
                "batch_size": 16, "weight_decay": 0.0,
            },
            "method_params": {"rank": 2},
            "out_dir": str(tmp_path / "run"),
            "seed": 2,
            "seeds": [2, 0, 1],
        }), encoding="utf-8")
        code, out, err = run(capsys, "train", "--config", str(config))
        assert code == 4 and json.loads(out)["status"] == "diverged"
        assert err == "diverged: SWAG phase diverged\n"
        # the saved moments are those of the last finite snapshot
        state, _, _ = load_state(tmp_path / "run" / "state.json")
        assert np.isfinite(state.diag_second_moment).all() and np.isfinite(state.mean).all()
        code, out, err = run(
            capsys, "benchmark", "--config", str(config), "--out-dir", str(tmp_path / "bench"),
        )
        assert code == 4 and out == ""
        assert err == "diverged: SWAG phase diverged for seed 2\n"

    def test_class_count_override(self, tmp_path, capsys):
        # the inferred K (max label + 1) can be raised via data/csv/classes
        rows = ["x0,x1,target"] + [f"{i * 0.1!r},{-i * 0.2!r},{i % 2}" for i in range(30)]
        data_csv = tmp_path / "labeled.csv"
        data_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = train_config(
            tmp_path,
            data={"csv": {"path": str(data_csv), "target_column": "target",
                          "classes": 4}},
            optimizer={"algorithm": "adam", "learning_rate": 0.01, "epochs": 3,
                       "batch_size": 8, "weight_decay": 0.0},
        )
        code, out, _ = run(capsys, "train", "--config", str(config))
        assert code == 0
        _, model, _ = load_state(tmp_path / "run" / "state.json")
        assert model.output_dim == 4
        # an override below max label + 1 is a config error
        config = train_config(
            tmp_path,
            data={"csv": {"path": str(data_csv), "target_column": "target",
                          "classes": 2}},
            out_dir=str(tmp_path / "refused"),
        )
        doc = json.loads(config.read_text())
        doc["data"]["csv"]["classes"] = 2
        rows2 = ["x0,x1,target"] + ["0.1,0.2,3"]
        (tmp_path / "labeled.csv").write_text("\n".join(rows + rows2[1:]) + "\n")
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(config))
        assert code == 2
        assert "classes" in err
        assert not (tmp_path / "refused").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exits_4(self, tmp_path, capsys):
        config = train_config(
            tmp_path,
            optimizer={
                "algorithm": "sgd", "learning_rate": 1e200, "epochs": 3,
                "batch_size": 16, "weight_decay": 0.0,
            },
        )
        code, out, err = run(capsys, "train", "--config", str(config))
        assert code == 4
        assert json.loads(out)["status"] == "diverged"
        assert err == "diverged: MAP phase diverged\n"
        # the one nonzero exit that writes: the splits, last finite state and trace
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "calib.csv", "state.json", "test.csv", "trace.csv", "train.csv",
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method, phase", [
        ("laplace", "MAP"), ("advi", "ADVI"), ("ensemble", "ensemble"),
    ])
    def test_divergence_names_the_phase(self, tmp_path, capsys, method, phase):
        config = train_config(
            tmp_path,
            method=method,
            optimizer={
                "algorithm": "sgd", "learning_rate": 1e200, "epochs": 3,
                "batch_size": 16, "weight_decay": 0.0,
            },
        )
        code, out, err = run(capsys, "train", "--config", str(config))
        assert code == 4
        assert json.loads(out)["status"] == "diverged"
        assert err == f"diverged: {phase} phase diverged\n"

    def test_oversized_model_exits_3_with_one_line(self, tmp_path, capsys):
        # 2**56 hidden units need 2.5 EiB of parameters: past any 64-bit
        # address space, so the allocation fails at once on any host
        config = train_config(tmp_path, model={"hidden_widths": [2**56]})
        code, out, err = run(capsys, "train", "--config", str(config))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_benchmark_fits_no_swag_lane_after_a_map_divergence(
        self, tmp_path, capsys, monkeypatch
    ):
        # seed 0's MAP fit diverges, so no SWAG fit of a later seed can be
        # reported: the benchmark stops before the SWAG phase
        lanes = []
        real = cli_module.swag_fit

        def counting(starts, *args, **kwargs):
            lanes.append(len(starts))
            return real(starts, *args, **kwargs)

        monkeypatch.setattr(cli_module, "swag_fit", counting)
        config = train_config(
            tmp_path,
            data={"synth": {"name": "two_moons", "n": 95, "noise": 0.45}},
            model={"hidden_widths": [64, 64], "activation": "relu"},
            method="swag",
            method_params={"rank": 2},
            seeds=[0, 1, 2],
            optimizer={
                "algorithm": "sgd", "learning_rate": 3e3, "epochs": 10,
                "batch_size": 16, "weight_decay": 0.0,
            },
        )
        code, out, err = run(capsys, "benchmark", "--config", str(config))
        assert code == 4 and out == ""
        assert err == "diverged: MAP phase diverged for seed 0\n"
        assert lanes == []

    def test_benchmark_fits_make_no_full_data_pass(self, tmp_path, capsys, monkeypatch):
        # a fit's one full-data forward pass is its per-epoch trace, which
        # no benchmark report reads; train still writes every trace row
        rows = []
        real = posterior.mlp_forward

        def counting(cfg, theta, inputs):
            rows.append(len(inputs))
            return real(cfg, theta, inputs)

        monkeypatch.setattr(posterior, "mlp_forward", counting)
        optimizer = {
            "algorithm": "adam", "learning_rate": 0.01, "epochs": 3,
            "batch_size": 16, "weight_decay": 0.0,
        }
        config = train_config(
            tmp_path, method="swag", method_params={"rank": 2}, seeds=[0, 1, 2],
            optimizer=optimizer,
        )
        code, _, err = run(capsys, "benchmark", "--config", str(config))
        assert code == 0, err
        assert rows == []
        config = train_config(
            tmp_path, method="swag", method_params={"rank": 2}, optimizer=optimizer
        )
        code, _, err = run(capsys, "train", "--config", str(config))
        assert code == 0, err
        assert rows == [90] * 6  # after each MAP and SWAG epoch, on all 90 train rows
        assert len((tmp_path / "run" / "trace.csv").read_text().splitlines()) == 7

    def test_benchmark_reports_an_earlier_seeds_swag_divergence_first(
        self, tmp_path, capsys, monkeypatch
    ):
        # seed 0's SWAG fit diverges and seed 1's MAP fit diverges: seed
        # order decides which is reported
        def fake_map(models, trains, opts, trace=True):
            return [FitResult(MapState(np.zeros(param_count(m))), (0.0,), diverged=i == 1)
                    for i, m in enumerate(models)]

        def fake_swag(starts, *args, **kwargs):
            return [FitResult(s, (0.0,), diverged=i == 0) for i, s in enumerate(starts)]

        monkeypatch.setattr(cli_module, "map_fit", fake_map)
        monkeypatch.setattr(cli_module, "swag_fit", fake_swag)
        config = train_config(
            tmp_path, method="swag", method_params={"rank": 2}, seeds=[0, 1, 2]
        )
        code, out, err = run(capsys, "benchmark", "--config", str(config))
        assert code == 4 and out == ""
        assert err == "diverged: SWAG phase diverged for seed 0\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_benchmark_divergence_exits_4(self, tmp_path, capsys):
        config = train_config(
            tmp_path,
            method="swag",
            method_params={"rank": 2},
            seeds=[0, 1, 2],
            optimizer={
                "algorithm": "sgd", "learning_rate": 1e308, "epochs": 3,
                "batch_size": 16, "weight_decay": 0.0,
            },
        )
        code, out, err = run(capsys, "benchmark", "--config", str(config))
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert "MAP" in err and "seed 0" in err

    def test_swag_and_laplace_and_advi_methods_run(self, tmp_path, capsys):
        for method, extra in [
            ("swag", {"method_params": {"rank": 3}}),
            ("laplace", {}),
            ("advi", {"method_params": {"mc_samples": 1}}),
            ("ensemble", {"method_params": {"members": 2}}),
        ]:
            config = train_config(
                tmp_path,
                method=method,
                out_dir=str(tmp_path / method),
                optimizer={
                    "algorithm": "adam", "learning_rate": 0.01, "epochs": 6,
                    "batch_size": 16, "weight_decay": 1e-4,
                },
                **extra,
            )
            code, out, _ = run(capsys, "train", "--config", str(config))
            assert code == 0, (method, out)
            state, _, _ = load_state(tmp_path / method / "state.json")
            assert type(state).__name__.lower().startswith(method[:3])


class TestEvaluateCommand:
    @pytest.mark.parametrize("kind", ["map", "swag"])
    @pytest.mark.parametrize("count", [2**62, 10**14])
    def test_an_unallocatable_draw_count_exits_3_at_once(self, tmp_path, capsys, kind, count):
        # the draws are one (count, P) matrix allocated before the first
        # draw. 2**62 rows overflow numpy's size limit; 10**14 rows of these
        # 322 parameters need 229 PiB, past a 57-bit address space, so the
        # allocation fails at once on any host and nothing is drawn
        cfg = MlpConfig(2, (64,), 2, "relu")
        theta = np.linspace(-1.0, 1.0, param_count(cfg))
        state = MapState(theta) if kind == "map" else SwagState(
            mean=theta, diag_second_moment=theta**2 + 1.0,
            deviations=np.ones((theta.size, 3)), rank=3, snapshots=3,
        )
        save_state(tmp_path / "state.json", state, cfg, "classification")
        save_csv(synth_classification("two_moons", 10, 0.1, seed=0), tmp_path / "data.csv")
        before = sorted(tmp_path.rglob("*"))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "evaluate", "--state", str(tmp_path / "state.json"),
            "--data", str(tmp_path / "data.csv"), "--predictive-samples", str(count),
            "--out-dir", str(tmp_path / "eval"),
        )
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_perfect_fixture(self, tmp_path, capsys):
        write_probs(tmp_path / "p.csv", np.eye(4))
        write_targets(tmp_path / "t.csv", [0, 1, 2, 3])
        code, out, _ = run(
            capsys,
            "evaluate", "--probs", str(tmp_path / "p.csv"),
            "--targets", str(tmp_path / "t.csv"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["ece"] == 0.0 and report["brier"] == 0.0
        assert report["nll"] == 0.0 and report["accuracy"] == 1.0

    @pytest.mark.parametrize("label, code", [("2.0", 0), ("1.5", 3), ("-1", 3), ("1e300", 3)])
    def test_targets_follow_the_class_label_rule(self, tmp_path, capsys, label, code):
        write_probs(tmp_path / "p.csv", np.eye(3))
        targets = tmp_path / "t.csv"
        targets.write_text(f"target\n0\n1\n{label}\n", encoding="utf-8")
        got, _, err = run(
            capsys,
            "evaluate", "--probs", str(tmp_path / "p.csv"), "--targets", str(targets),
        )
        assert got == code
        if code:
            assert str(targets) in err and "data row 3" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_probability_names_file_row_and_column(self, tmp_path, capsys, cell):
        probs = tmp_path / "p.csv"
        probs.write_text(f"p0,p1\n0.5,0.5\n0.5,{cell}\n", encoding="utf-8")
        write_targets(tmp_path / "t.csv", [0, 1])
        code, _, err = run(
            capsys,
            "evaluate", "--probs", str(probs), "--targets", str(tmp_path / "t.csv"),
        )
        assert code == 3
        assert err == f"data error: {probs}: non-finite cell {cell} in data row 2, column p1\n"

    def test_matches_metrics_module(self, tmp_path, clf_fixture, capsys):
        code, out, _ = run(
            capsys,
            "evaluate", "--probs", str(clf_fixture["test_probs"]),
            "--targets", str(clf_fixture["test_targets"]),
            "--bins", "7",
        )
        assert code == 0
        got = json.loads(out)
        probs, _ = (
            np.loadtxt(clf_fixture["test_probs"], delimiter=",", skiprows=1),
            None,
        )
        targets = np.loadtxt(
            clf_fixture["test_targets"], delimiter=",", skiprows=1
        ).astype(int)
        expected = classification_report(probs, targets, n_bins=7).to_dict()
        assert got == expected

    def test_state_evaluation_with_conformal_coverage(self, tmp_path, capsys):
        config = train_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        run_dir = tmp_path / "run"
        code, out, _ = run(
            capsys,
            "evaluate", "--state", str(run_dir / "state.json"),
            "--data", str(run_dir / "test.csv"),
            "--calib-data", str(run_dir / "calib.csv"),
            "--alpha", "0.2",
            "--out-dir", str(tmp_path / "eval"),
        )
        assert code == 0
        report = json.loads(out)
        assert "coverage" in report and "mean_width" in report
        assert (tmp_path / "eval" / "predictive.csv").exists()
        assert (tmp_path / "eval" / "sets.csv").exists()
        assert (tmp_path / "eval" / "report.json").exists()

    def test_state_missing_key_is_data_error(self, tmp_path, capsys):
        config = train_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        run_dir = tmp_path / "run"
        full = json.loads((run_dir / "state.json").read_text())
        cases = [("array", [], "object")]
        for drop in ("task", "model", "theta"):
            doc = json.loads(json.dumps(full))
            (doc["arrays"] if drop == "theta" else doc).pop(drop)
            cases.append((f"no_{drop}", doc, drop))
        for name, doc, needle in cases:
            broken = tmp_path / f"{name}.json"
            broken.write_text(json.dumps(doc), encoding="utf-8")
            code, _, err = run(
                capsys,
                "evaluate", "--state", str(broken), "--data", str(run_dir / "test.csv"),
            )
            assert code == 3, name
            assert err.count("\n") == 1 and needle in err

    def test_raw_probs_sets_equal_the_conformal_baseline(self, tmp_path, clf_fixture, capsys):
        code, out, _ = run(
            capsys,
            "evaluate", "--probs", str(clf_fixture["test_probs"]),
            "--targets", str(clf_fixture["test_targets"]), "--alpha", "0.2",
            "--calib-probs", str(clf_fixture["val_probs"]),
            "--calib-targets", str(clf_fixture["val_targets"]),
            "--out-dir", str(tmp_path / "eval"),
        )
        assert code == 0
        got = json.loads(out)
        code, out, _ = run(
            capsys,
            "conformal", "--method", "baseline", "--alpha", "0.2",
            "--val-probs", str(clf_fixture["val_probs"]),
            "--val-targets", str(clf_fixture["val_targets"]),
            "--test-probs", str(clf_fixture["test_probs"]),
            "--test-targets", str(clf_fixture["test_targets"]),
            "--out", str(tmp_path / "sets.csv"),
        )
        assert code == 0
        want = json.loads(out)
        assert got["coverage"] == want["coverage"]
        assert got["mean_width"] == want["mean_set_size"]
        assert (tmp_path / "eval" / "sets.csv").read_bytes() == (tmp_path / "sets.csv").read_bytes()

    @pytest.mark.parametrize("source, extra, needle", [
        ("probs", ["--seed", "5"], "--seed is read only with --state"),
        ("probs", ["--calib-data", "no.csv"], "--calib-data is read only with --state"),
        ("probs", ["--predictive-samples", "7"], "--predictive-samples is read only with --state"),
        ("probs", ["--data", "no.csv"], "--data is read only with --state"),
        ("probs", ["--target-column", "zzz"], "--target-column is read only with --state"),
        ("probs", ["--calib-probs", "no.csv"], "--calib-probs is read only with --alpha"),
        ("probs", ["--calib-targets", "no.csv"], "--calib-targets is read only with --alpha"),
        ("classification", ["--targets", "no.csv"], "--targets is read only with --probs"),
        ("classification", ["--calib-probs", "no.csv"], "--calib-probs is read only with --probs"),
        ("classification", ["--calib-targets", "no.csv"],
         "--calib-targets is read only with --probs"),
        ("classification", ["--calib-data", "no.csv"], "--calib-data is read only with --alpha"),
        ("regression", ["--calib-data", "no.csv"], "--calib-data is read only with --alpha"),
        ("regression", ["--alpha", "0.5", "--calib-data", "no.csv"],
         "--calib-data is read only with a classification state"),
    ])
    def test_a_flag_the_source_never_reads_exits_2(
        self, tmp_path, capsys, monkeypatch, source, extra, needle
    ):
        monkeypatch.chdir(tmp_path)
        write_probs(tmp_path / "p.csv", [[0.8, 0.2], [0.3, 0.7]])
        write_targets(tmp_path / "t.csv", [0, 1])
        if source == "probs":
            argv = ["--probs", "p.csv", "--targets", "t.csv"]
        else:
            (tmp_path / "d.csv").write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n")
            cfg = MlpConfig(2, (4,), 2, "relu")
            theta = np.linspace(-1.0, 1.0, param_count(cfg))
            save_state(tmp_path / "state.json", MapState(theta), cfg, source)
            argv = ["--state", "state.json", "--data", "d.csv"]
        code, out, err = run(capsys, "evaluate", *argv, *extra, "--out-dir", "eval")
        assert code == 2 and out == ""
        assert err == f"config error: {needle}\n"
        assert not (tmp_path / "eval").exists()
        assert run(capsys, "evaluate", *argv, "--out-dir", "eval")[0] == 0

    @staticmethod
    def two_class_state(tmp_path):
        cfg = MlpConfig(2, (4,), 2, "relu")
        path = tmp_path / "state.json"
        save_state(path, MapState(np.linspace(-1.0, 1.0, param_count(cfg))), cfg, "classification")
        return path

    @pytest.mark.parametrize("argv, needle", [
        (["--probs", "p.csv"], "--targets is required with --probs"),
        (["--probs", "p.csv", "--targets", "t.csv", "--alpha", "0.1"],
         "--alpha with --probs needs --calib-probs and --calib-targets"),
        (["--probs", "p.csv", "--targets", "t.csv", "--alpha", "0.1", "--calib-probs", "c.csv"],
         "--alpha with --probs needs --calib-probs and --calib-targets"),
        (["--state", "state.json"], "--data is required with --state"),
        (["--state", "STATE", "--data", "d.csv", "--alpha", "0.1"],
         "--alpha with --state needs --calib-data"),
        (["--probs", "p.csv", "--targets", "t.csv", "--predictive-samples", "abc"],
         "argument --predictive-samples: expected an integer, got 'abc'"),
    ])
    def test_flag_combination_faults_exit_2(self, tmp_path, capsys, argv, needle):
        state = str(self.two_class_state(tmp_path))
        argv = [state if a == "STATE" else a for a in argv]
        code, out, err = run(capsys, "evaluate", *argv, "--out-dir", str(tmp_path / "eval"))
        assert code == 2 and out == ""
        assert err == f"config error: {needle}\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("probs, targets, needle", [
        ("p0,p1\n0.5,0.5\n", "a,b\n0,1\n",
         "has columns ['a', 'b']; expected a single column or one named 'target'"),
        ("p0,p2\n0.5,0.5\n", "target\n0\n", "probability columns must be contiguous p0..pK-1"),
    ])
    def test_malformed_columns_exit_3(self, tmp_path, capsys, probs, targets, needle):
        (tmp_path / "p.csv").write_text(probs, encoding="utf-8")
        (tmp_path / "t.csv").write_text(targets, encoding="utf-8")
        code, out, err = run(
            capsys,
            "evaluate", "--probs", str(tmp_path / "p.csv"), "--targets", str(tmp_path / "t.csv"),
        )
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("data error: ") and needle in err

    def test_data_labels_beyond_the_model_classes_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,2\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "evaluate", "--state", str(self.two_class_state(tmp_path)), "--data", str(data),
            "--out-dir", str(tmp_path / "eval"),
        )
        assert code == 3 and out == ""
        assert err == f"data error: {data} has labels up to 2 but the model has 2 classes\n"
        assert not (tmp_path / "eval").exists()

    # the label case with --data is the test above
    @pytest.mark.parametrize("flag, text, fault", [
        *[(flag, "x0,x1,x2,target\n0.1,0.2,0.5,0\n0.3,0.4,0.5,1\n",
           "has 3 features but the model takes 2") for flag in ("--data", "--calib-data")],
        *[(flag, "x0,target\n0.1,0\n0.3,1\n", "has 1 features but the model takes 2")
          for flag in ("--data", "--calib-data")],
        ("--calib-data", "x0,x1,target\n0.1,0.2,0\n0.3,0.4,2\n",
         "has labels up to 2 but the model has 2 classes"),
    ])
    def test_data_the_model_cannot_take_exits_3_before_any_forward_pass(
        self, tmp_path, capsys, monkeypatch, flag, text, fault
    ):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n", encoding="utf-8")
        bad.write_text(text, encoding="utf-8")
        paths = {"--data": good, "--calib-data": good, flag: bad}
        monkeypatch.setattr(cli_module, "predictive_mean_classification", None)
        code, out, err = run(
            capsys,
            "evaluate", "--state", str(self.two_class_state(tmp_path)), "--alpha", "0.5",
            *(str(a) for item in paths.items() for a in item),
            "--out-dir", str(tmp_path / "eval"),
        )
        assert code == 3 and out == ""
        assert err == f"data error: {bad} {fault}\n"
        assert not (tmp_path / "eval").exists()

    def test_regression_data_the_model_cannot_take_exits_3(self, tmp_path, capsys, monkeypatch):
        cfg = MlpConfig(2, (4,), 2, "relu")
        state = tmp_path / "state.json"
        save_state(state, MapState(np.linspace(-1.0, 1.0, param_count(cfg))), cfg, "regression")
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,x2,target\n0.1,0.2,0.5,0.7\n", encoding="utf-8")
        monkeypatch.setattr(cli_module, "predictive_moments_regression", None)
        code, out, err = run(capsys, "evaluate", "--state", str(state), "--data", str(bad))
        assert code == 3 and out == ""
        assert err == f"data error: {bad} has 3 features but the model takes 2\n"

    def test_exactly_one_input_mode(self, capsys):
        code, _, err = run(capsys, "evaluate")
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize("flag", ["--bins", "--predictive-samples"])
    def test_count_flag_below_one_exits_2(self, flag, capsys):
        code, _, err = run(capsys, "evaluate", "--probs", "p.csv", "--targets", "t.csv", flag, "0")
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"config error: argument {flag}:")

    @pytest.mark.parametrize("bins, code", [("9007199254740992", 0), ("99999999999999999999", 2)])
    def test_bin_count_work_is_bounded(self, tmp_path, capsys, bins, code):
        # ECE visits occupied bins only, and a count past 2^53 is a config error
        write_probs(tmp_path / "p.csv", [[0.8, 0.2]])
        write_targets(tmp_path / "t.csv", [0])
        start = time.perf_counter()
        got, out, err = run(
            capsys,
            "evaluate", "--probs", str(tmp_path / "p.csv"), "--targets", str(tmp_path / "t.csv"),
            "--bins", bins,
        )
        assert time.perf_counter() - start < 1.0
        assert got == code
        if code:
            assert err == (
                f"config error: argument --bins: must be at most 9007199254740992, got {bins}\n"
            )
        else:
            assert json.loads(out)["ece"] == pytest.approx(0.2)

    def test_regression_state_writes_predictive_and_intervals(self, tmp_path, capsys):
        run_dir = train_regression(tmp_path, capsys)
        code, out, _ = run(
            capsys,
            "evaluate", "--state", str(run_dir / "state.json"),
            "--data", str(run_dir / "test.csv"),
            "--alpha", "0.1",
            "--out-dir", str(tmp_path / "regeval"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["task"] == "regression"
        assert 0.0 <= report["coverage"] <= 1.0
        predictive = (tmp_path / "regeval" / "predictive.csv").read_text().splitlines()
        assert predictive[0] == "mean,variance,aleatoric,epistemic,std"
        intervals = (tmp_path / "regeval" / "intervals.csv").read_text().splitlines()
        assert intervals[0] == "lower,upper"
        # the predictive CSV feeds the conformal layer directly
        code, out, _ = run(
            capsys,
            "conformal", "--method", "scalar", "--alpha", "0.2",
            "--val-means", str(tmp_path / "regeval" / "predictive.csv"),
            "--val-stds", str(tmp_path / "regeval" / "predictive.csv"),
            "--val-targets", str(run_dir / "test.csv"),
            "--test-means", str(tmp_path / "regeval" / "predictive.csv"),
            "--test-stds", str(tmp_path / "regeval" / "predictive.csv"),
            "--out", str(tmp_path / "scalar_out.csv"),
        )
        assert code == 0
        assert json.loads(out)["n"] == len(predictive) - 1


_ROW_FAULTS = {
    "label": "data row 3: class label 7 is not a nonnegative integer below 2",
    "sum": "data row 2 sums to 1.1, expected 1 within 1e-06",
}


# calibrate's logits need not sum to 1, so it has no sum fault
@pytest.mark.parametrize("command, fault", [
    ("evaluate", "label"), ("calibrate", "label"), ("conformal", "label"),
    ("evaluate", "sum"), ("conformal", "sum"),
])
def test_a_label_or_probability_row_fault_exits_3_naming_the_file(
    tmp_path, capsys, command, fault
):
    # both used to surface from the computation as `error: targets row 3: ...`
    # or `error: probs row 2 ...`, naming no file
    good_p, good_t = tmp_path / "p.csv", tmp_path / "t.csv"
    write_probs(good_p, [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    write_targets(good_t, [0, 1, 0])
    bad = tmp_path / "bad.csv"
    if fault == "label":
        write_targets(bad, [0, 1, 7])
        p, t = good_p, bad
    else:
        bad.write_text("p0,p1\n0.9,0.1\n0.2,0.9\n0.6,0.4\n", encoding="utf-8")
        p, t = bad, good_t
    out_dir = tmp_path / "out"
    argv = {
        "evaluate": ["evaluate", "--probs", p, "--targets", t, "--out-dir", out_dir],
        "calibrate": ["calibrate", "--logits", p, "--targets", t, "--out-dir", out_dir],
        "conformal": ["conformal", "--method", "baseline", "--alpha", "0.2",
                      "--val-probs", good_p, "--val-targets", good_t, "--test-probs", p,
                      "--test-targets", t, "--out", out_dir / "sets.csv"],
    }[command]
    code, out, err = run(capsys, *map(str, argv))
    assert code == 3 and out == ""
    assert err == f"data error: {bad}: {_ROW_FAULTS[fault]}\n"
    assert not out_dir.exists()


def _label_slot_argv(tmp_path, slot, labels, dataset):
    """An argv whose ``slot`` reads ``labels`` (a target CSV) or ``dataset``
    (a classification CSV), every other input valid."""
    write_probs(tmp_path / "p.csv", [[0.8, 0.2], [0.3, 0.7]])
    write_targets(tmp_path / "t.csv", [0, 1])
    good = tmp_path / "d.csv"
    good.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n", encoding="utf-8")
    probs, targets = str(tmp_path / "p.csv"), str(tmp_path / "t.csv")
    cfg = MlpConfig(2, (4,), 2, "relu")
    state = tmp_path / "state.json"
    save_state(state, MapState(np.linspace(-1.0, 1.0, param_count(cfg))), cfg, "classification")
    if slot == "conformal --val-targets":
        argv = conformal_argv(tmp_path, "baseline", leave_out="val_targets")
        return argv + ["--val-targets", str(labels)]
    if slot == "conformal --test-targets":
        return conformal_argv(tmp_path, "baseline") + ["--test-targets", str(labels)]
    if slot == "calibrate --targets":
        return ["calibrate", "--logits", probs, "--targets", str(labels),
                "--out-dir", str(tmp_path / "cal")]
    if slot == "evaluate --targets":
        return ["evaluate", "--probs", probs, "--targets", str(labels)]
    if slot == "evaluate --calib-targets":
        return ["evaluate", "--probs", probs, "--targets", targets, "--alpha", "0.5",
                "--calib-probs", probs, "--calib-targets", str(labels)]
    if slot == "evaluate --data":
        return ["evaluate", "--state", str(state), "--data", str(dataset)]
    if slot == "evaluate --calib-data":
        return ["evaluate", "--state", str(state), "--data", str(good), "--alpha", "0.5",
                "--calib-data", str(dataset)]
    assert slot == "train config data/csv"
    data = {"csv": {"path": str(dataset), "target_column": "target"}}
    return ["train", "--config", str(train_config(tmp_path, data=data))]


@pytest.mark.parametrize("slot", [
    "conformal --val-targets", "conformal --test-targets", "calibrate --targets",
    "evaluate --targets", "evaluate --calib-targets", "evaluate --data",
    "evaluate --calib-data", "train config data/csv",
])
def test_label_past_the_int64_cast_exits_3_naming_the_file(tmp_path, capsys, slot):
    # 1e300 is integral and nonnegative, but no int64 holds it
    labels, dataset = tmp_path / "bad_labels.csv", tmp_path / "bad_data.csv"
    labels.write_text("target\n0\n1e300\n", encoding="utf-8")
    dataset.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1e300\n", encoding="utf-8")
    code, out, err = run(capsys, *_label_slot_argv(tmp_path, slot, labels, dataset))
    bad = labels if slot.endswith("targets") else dataset
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"data error: {bad}: data row 2: ")


def _fault_cases():
    """(name, state document, stderr needle): each document breaks one rule
    of the ``state.json`` format, in the wording of a config fault, but the
    last, which breaks two and whose needle is both faults on the one line."""
    cfg = MlpConfig(2, (4,), 2, "relu")
    p = param_count(cfg)
    theta = np.linspace(-1.0, 1.0, p)
    good = state_to_dict(MapState(theta), cfg, "classification")
    swag = state_to_dict(SwagState(
        mean=theta, diag_second_moment=theta**2 + 1.0,
        deviations=np.ones((p, 3)), rank=3, snapshots=3,
    ), cfg, "classification")
    ensemble = state_to_dict(EnsembleState((theta, -theta)), cfg, "classification")
    laplace = state_to_dict(LaplaceState(theta, np.ones(p)), cfg, "classification")

    def broken(name, needle, change, base=good):
        doc = json.loads(json.dumps(base))
        change(doc)
        return pytest.param(doc, needle, id=name)

    def regression(output_dim):
        head = MlpConfig(2, (4,), output_dim, "relu")
        return state_to_dict(MapState(np.zeros(param_count(head))), head, "regression")

    short = state_to_dict(MapState(theta[:-1]), cfg, "classification")["arrays"]
    zeros = state_to_dict(MapState(np.zeros(p)), cfg, "classification")["arrays"]["theta"]
    nans = state_to_dict(MapState(np.full(p, np.nan)), cfg, "classification")["arrays"]["theta"]
    nan_weight = state_to_dict(MapState(np.where(np.arange(p) == 3, np.nan, theta)), cfg,
                               "regression")
    kinds = "['map', 'ensemble', 'swag', 'laplace', 'advi']"
    activations = "['tanh', 'relu']"
    return [
        broken("arrays_list", "at arrays: expected object, got []",
               lambda d: d.update(arrays=[])),
        broken("model_list", "at model: expected object, got []", lambda d: d.update(model=[])),
        broken("string_entry", "at arrays/theta: expected object, got 'AAAA'",
               lambda d: d["arrays"].update(theta="AAAA")),
        broken("bad_base64", "at arrays/theta/data: not valid base64",
               lambda d: d["arrays"]["theta"].update(data="@@ not base64 @@")),
        broken("wrong_vector_length", f"at arrays/theta/shape: expected [{p}], got [{p - 1}]",
               lambda d: d.update(arrays=short)),
        broken("data_shorter_than_shape",
               f"at arrays/theta/data: holds {8 * (p - 1)} bytes, expected {8 * p}",
               lambda d: d["arrays"]["theta"].update(data=short["theta"]["data"])),
        broken("deviations_wrong_rank",
               f"at arrays/deviations/shape: expected [{p}, 2], got [{p}, 3]",
               lambda d: d.update(rank=2), base=swag),
        broken("unknown_kind", f"at kind: 'mcmc' is not one of {kinds}",
               lambda d: d.update(kind="mcmc")),
        broken("missing_key", "at <root>: missing required key 'kind'", lambda d: d.pop("kind")),
        broken("unknown_task", "at task: 'ranking' is not one of ['classification', 'regression']",
               lambda d: d.update(task="ranking")),
        broken("float_count", "at members: expected integer, got 2.0",
               lambda d: d.update(members=2.0), base=ensemble),
        broken("one_member", "at members: 1 is below the minimum 2",
               lambda d: d.update(members=1), base=ensemble),
        broken("count_past_arrays",
               "at arrays: expected member_0 to member_999999999999, got ['member_0', 'member_1']",
               lambda d: d.update(members=10**12), base=ensemble),
        broken("unknown_member_array",
               "at arrays: expected member_0 to member_1, got ['member_0', 'theta']",
               lambda d: d["arrays"].update(theta=d["arrays"].pop("member_1")), base=ensemble),
        broken("swag_rank_0", "at rank: 0 is below the minimum 1",
               lambda d: d.update(rank=0), base=swag),
        broken("swag_snapshots_0", "at snapshots: 0 is below the minimum 1",
               lambda d: d.update(snapshots=0), base=swag),
        broken("format_true", "at format: expected integer, got True",
               lambda d: d.update(format=True)),
        broken("format_float", "at format: expected integer, got 1.0",
               lambda d: d.update(format=1.0)),
        broken("format_2", "at format: 2 is not one of [1]", lambda d: d.update(format=2)),
        broken("float_shape", f"at arrays/theta/shape/0: expected integer, got {float(p)}",
               lambda d: d["arrays"]["theta"].update(shape=[float(p)])),
        broken("unknown_top_key", "at <root>: unknown key 'extra'", lambda d: d.update(extra=1)),
        broken("unknown_model_key", "at model: unknown key 'dropout'",
               lambda d: d["model"].update(dropout=0.1)),
        broken("unknown_array", "at arrays: unknown key 'theta'",
               lambda d: d["arrays"].update(theta=good["arrays"]["theta"]), base=laplace),
        broken("unknown_activation", f"at model/activation: 'sigmoid' is not one of {activations}",
               lambda d: d["model"].update(activation="sigmoid")),
        broken("float_input_dim", "at model/input_dim: expected integer, got 2.9",
               lambda d: d["model"].update(input_dim=2.9)),
        broken("string_init_seed", "at model/init_seed: expected integer, got '7'",
               lambda d: d["model"].update(init_seed="7")),
        broken("bool_output_dim", "at model/output_dim: expected integer, got True",
               lambda d: d["model"].update(output_dim=True)),
        broken("float_width", "at model/hidden_widths/0: expected integer, got 4.0",
               lambda d: d["model"].update(hidden_widths=[4.0])),
        broken("string_widths", "at model/hidden_widths: expected array, got '4'",
               lambda d: d["model"].update(hidden_widths="4")),
        broken("number_activation", f"at model/activation: 1 is not one of {activations}",
               lambda d: d["model"].update(activation=1)),
        broken("missing_model_key", "at model: missing required key 'init_seed'",
               lambda d: d["model"].pop("init_seed")),
        broken("regression_one_output", "at model/output_dim: regression models output a "
               "(mean, log-variance) pair, so output_dim must be 2, got 1",
               lambda d: None, base=regression(1)),
        broken("regression_three_outputs", "at model/output_dim: regression models output a "
               "(mean, log-variance) pair, so output_dim must be 2, got 3",
               lambda d: None, base=regression(3)),
        broken("zero_precision",
               "invalid laplace state: diag_precision must be strictly positive",
               lambda d: d["arrays"].update(diag_precision=zeros), base=laplace),
        broken("two_faults",
               "at format: 2 is not one of [1]; at model/input_dim: expected integer, got 2.5",
               lambda d: (d.update(format=2), d["model"].update(input_dim=2.5))),
        broken("regression_nan_weight", "at arrays/theta/data: entry 3 is nan, not a finite number",
               lambda d: None, base=nan_weight),
        broken("laplace_nan_precision",
               "at arrays/diag_precision/data: entry 0 is nan, not a finite number",
               lambda d: d["arrays"].update(diag_precision=nans), base=laplace),
    ]


def test_non_finite_state_writes_nothing(tmp_path, capsys):
    cfg = MlpConfig(2, (4,), 2, "relu")
    theta = np.where(np.arange(param_count(cfg)) == 3, np.inf, 0.1)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_dict(MapState(theta), cfg, "regression")))
    write_matrix_csv(tmp_path / "data.csv", np.ones((4, 3)), ["x0", "x1", "target"])
    code, out, err = run(capsys, "evaluate", "--state", str(state), "--data",
                         str(tmp_path / "data.csv"), "--alpha", "0.2", "--out-dir",
                         str(tmp_path / "e"))
    assert (code, out) == (3, "")
    assert err == (f"data error: {state}: at arrays/theta/data: entry 3 is inf, "
                   "not a finite number\n")
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("text, needle", [
    (None, "no such state file"),
    ("{", "state is not valid JSON"),
    ("[]", "state must be a JSON object"),
    (b"\xff{}", "state is not valid JSON"),
])
def test_unreadable_state_exits_3_with_one_line(tmp_path, capsys, text, needle):
    data = tmp_path / "data.csv"
    save_csv(synth_classification("two_moons", 10, 0.1, seed=0), data)
    state = tmp_path / "state.json"
    if text is not None:
        state.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code, out, err = run(capsys, "evaluate", "--state", str(state), "--data", str(data))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"data error: {needle}")
    assert str(state) in err


@pytest.mark.parametrize("doc, needle", _fault_cases())
def test_broken_state_exits_3_with_one_line(tmp_path, capsys, doc, needle):
    data = tmp_path / "data.csv"
    save_csv(synth_classification("two_moons", 10, 0.1, seed=0), data)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "evaluate", "--state", str(state), "--data", str(data))
    assert code == 3
    assert err.count("\n") == 1 and err.startswith(f"data error: {state}: ")
    assert needle in err


# (command prefix, {flag: (column header, rows)}): every CSV input slot of
# the commands that read several CSVs in one call
_CSV_SLOTS = {
    "evaluate": (
        ["evaluate", "--alpha", "0.2"],
        {
            "--probs": (["p0", "p1"], [[0.7, 0.3], [0.2, 0.8], [0.6, 0.4]]),
            "--targets": (["target"], [[0], [1], [0]]),
            "--calib-probs": (["p0", "p1"], [[0.9, 0.1], [0.4, 0.6], [0.3, 0.7]]),
            "--calib-targets": (["target"], [[0], [1], [1]]),
        },
    ),
    "conformal_cqr": (
        ["conformal", "--method", "cqr", "--alpha", "0.2"],
        {
            "--val-lower": (["lower"], [[0.0], [1.0], [2.0]]),
            "--val-upper": (["upper"], [[1.0], [2.0], [3.0]]),
            "--val-targets": (["target"], [[0.5], [1.5], [3.5]]),
            "--test-lower": (["lower"], [[0.0], [1.0]]),
            "--test-upper": (["upper"], [[1.0], [2.0]]),
        },
    ),
    "conformal_scalar": (
        ["conformal", "--method", "scalar", "--alpha", "0.2"],
        {
            "--val-means": (["mean"], [[0.0], [1.0], [2.0]]),
            "--val-stds": (["std"], [[1.0], [1.0], [2.0]]),
            "--val-targets": (["target"], [[0.5], [1.5], [3.5]]),
            "--test-means": (["mean"], [[0.0], [1.0]]),
            "--test-stds": (["std"], [[1.0], [2.0]]),
        },
    ),
}
_CSV_FAULTS = {
    "header_only": lambda header, rows: [header],
    "unparsable_cell": lambda header, rows: [header, rows[0], ["1.0x"] * len(header)],
    "ragged_row": lambda header, rows: [header, rows[0], rows[1] + [0.5]],
    # written as the byte 0xff, which is not UTF-8
    "non_utf8": lambda header, rows: [header, rows[0], ["\udcff"] * len(header)],
}


def _csv_fault_cases():
    for command, (_, slots) in _CSV_SLOTS.items():
        for flag in slots:
            for fault in _CSV_FAULTS:
                yield pytest.param(command, flag, fault, id=f"{command}{flag}-{fault}")


@pytest.mark.parametrize("command, broken_flag, fault", _csv_fault_cases())
def test_broken_csv_exits_3_naming_the_file(tmp_path, capsys, command, broken_flag, fault):
    prefix, slots = _CSV_SLOTS[command]
    argv = list(prefix)
    for flag, (header, rows) in slots.items():
        path = tmp_path / f"{flag.strip('-')}.csv"
        lines = _CSV_FAULTS[fault](header, rows) if flag == broken_flag else [header, *rows]
        path.write_text(
            "".join(",".join(map(str, r)) + "\n" for r in lines),
            encoding="utf-8", errors="surrogateescape",
        )
        argv += [flag, str(path)]
    if command.startswith("conformal"):
        argv += ["--out", str(tmp_path / "out.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 3, err
    assert err.count("\n") == 1 and err.startswith("data error: ")
    assert str(tmp_path / f"{broken_flag.strip('-')}.csv") in err


@pytest.mark.parametrize("header, gathered", [
    ("p0,p1,p2", False), ("x,y,z", False), ("p1,p0,p2", True), ("p0,p1,id", False),
])
def test_probs_are_gathered_only_out_of_column_order(tmp_path, monkeypatch, header, gathered):
    path = tmp_path / "p.csv"
    path.write_text(f"{header}\n0.25,0.75,0\n0.5,0.5,0\n", encoding="utf-8")
    read = []
    real = cli_module.read_matrix_csv
    monkeypatch.setattr(cli_module, "read_matrix_csv", lambda p: read.append(real(p)) or read[-1])
    probs = cli_module._read_input(path, "probs")
    names = header.split(",")
    ranked = [names.index(f"p{j}") for j in range(sum(n.startswith("p") for n in names))]
    assert probs.tolist() == read[0][0][:, ranked or [0, 1, 2]].tolist()
    assert np.shares_memory(probs, read[0][0]) != gathered


def _non_finite_vector_cases():
    for command in ("conformal_cqr", "conformal_scalar"):
        for flag in [*_CSV_SLOTS[command][1], "--test-targets"]:
            yield pytest.param(command, flag, id=f"{command}{flag}")


@pytest.mark.parametrize("command, broken_flag", _non_finite_vector_cases())
def test_non_finite_vector_cell_names_file_row_and_column(tmp_path, capsys, command, broken_flag):
    prefix, slots = _CSV_SLOTS[command]
    slots = {**slots, "--test-targets": (["target"], [[0.5], [1.5]])}
    argv = [*prefix, "--out", str(tmp_path / "out.csv")]
    for flag, (header, rows) in slots.items():
        path = tmp_path / f"{flag.strip('-')}.csv"
        if flag == broken_flag:
            rows = [rows[0], ["nan"], *rows[2:]]
        lines = [header, *rows]
        path.write_text("".join(",".join(map(str, r)) + "\n" for r in lines), encoding="utf-8")
        argv += [flag, str(path)]
    code, _, err = run(capsys, *argv)
    broken = tmp_path / f"{broken_flag.strip('-')}.csv"
    column = slots[broken_flag][0][0]
    assert code == 3
    assert err == f"data error: {broken}: non-finite cell nan in data row 2, column {column}\n"


@pytest.mark.parametrize("row, column", [("0.5,nan,0.1", "b"), ("0.5,0.4,inf", "target")])
def test_non_finite_dataset_cell_names_file_row_and_column(tmp_path, capsys, row, column):
    broken = tmp_path / "broken.csv"
    broken.write_text(f"a,b,target\n0.1,0.2,0.3\n{row}\n0.2,0.1,0.4\n", encoding="utf-8")
    cell = row.split(",")[["a", "b", "target"].index(column)]
    expected = f"data error: {broken}: non-finite cell {cell} in data row 2, column {column}\n"
    config = train_config(
        tmp_path, task="regression",
        data={"csv": {"path": str(broken), "target_column": "target"}},
    )
    assert run(capsys, "train", "--config", str(config)) == (3, "", expected)
    fit = tmp_path / "fit"
    fit.mkdir()
    state = train_regression(fit, capsys) / "state.json"
    assert run(capsys, "evaluate", "--state", str(state), "--data", str(broken)) == (
        3, "", expected,
    )


def train_regression(tmp_path, capsys):
    """Train a Laplace regression state on a small linear CSV; its run dir."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 2))
    y = x @ np.array([1.0, -0.5]) + 0.3 * rng.normal(size=80)
    rows = ["a,b,target"] + [
        f"{float(xi[0])!r},{float(xi[1])!r},{float(yi)!r}" for xi, yi in zip(x, y)
    ]
    data_csv = tmp_path / "reg.csv"
    data_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = train_config(
        tmp_path,
        task="regression",
        data={"csv": {"path": str(data_csv), "target_column": "target"}},
        model={"hidden_widths": [8], "activation": "tanh"},
        optimizer={
            "algorithm": "adam", "learning_rate": 0.01, "epochs": 30,
            "batch_size": 16, "weight_decay": 1e-4,
        },
        method="laplace",
    )
    assert main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    return tmp_path / "run"


class TestBenchmarkCommand:
    def test_tally_consistency_and_determinism(self, tmp_path, capsys):
        doc = {
            "task": "classification",
            "data": {"synth": {"name": "two_moons", "n": 120, "noise": 0.3}},
            "split": [0.5, 0.25, 0.25],
            "model": {"hidden_widths": [8, 8], "activation": "relu"},
            "method": "swag",
            "optimizer": {
                "algorithm": "adam", "learning_rate": 0.01, "epochs": 8,
                "batch_size": 16, "weight_decay": 1e-4,
            },
            "method_params": {"rank": 2},
            "bins": 10,
            "out_dir": str(tmp_path / "bench"),
            "seed": 0,
            "seeds": [0, 1, 2],
        }
        config = tmp_path / "bench.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "benchmark", "--config", str(config))
        assert code == 0
        result = json.loads(out)
        assert result["seeds"] == [0, 1, 2]
        for metric, cell in result["tally"].items():
            assert cell["wins"] + cell["losses"] + cell["ties"] == 3
        total = sum(
            c["wins"] + c["losses"] + c["ties"] for c in result["tally"].values()
        )
        assert total == 3 * len(result["metrics"])
        # tallies recomputable from the stored reports
        for metric in result["metrics"]:
            lower_better = metric != "accuracy"
            wins = sum(
                (r["swag_temperature"][metric] < r["map"][metric]) == lower_better
                and r["swag_temperature"][metric] != r["map"][metric]
                for r in result["runs"]
            )
            assert wins == result["tally"][metric]["wins"]

        assert main(["benchmark", "--config", str(config),
                     "--out-dir", str(tmp_path / "bench2")]) == 0
        capsys.readouterr()
        a = (tmp_path / "bench" / "benchmark.json").read_text()
        b = (tmp_path / "bench2" / "benchmark.json").read_text()
        assert a == b

    def test_lockstep_run_replays_its_golden_digest(self, tmp_path, capsys):
        # the c9-swag workload's shape at 4 epochs: three seeds train as
        # lanes of one loop through MAP and rank-2 SWAG, then 30 draws each;
        # a weight decay makes the ridge term part of every step. stdout and
        # benchmark.json hold the same bytes, whose digest was recorded
        # before the training loop reused its buffers.
        doc = {
            "task": "classification",
            "data": {"synth": {"name": "two_moons", "n": 380, "noise": 0.45}},
            "split": [3 / 19, 8 / 19, 8 / 19],
            "model": {"hidden_widths": [64, 64], "activation": "relu"},
            "method": "swag",
            "optimizer": {
                "algorithm": "adam", "learning_rate": 1e-3, "epochs": 4,
                "batch_size": 32, "weight_decay": 1e-3,
            },
            "method_params": {"rank": 2},
            "predictive_samples": 30,
            "calibration": True,
            "temperature_method": "golden",
            "bins": 15,
            "out_dir": str(tmp_path / "bench"),
            "seed": 0,
            "seeds": [0, 1, 2],
        }
        config = tmp_path / "bench.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "benchmark", "--config", str(config))
        assert code == 0, err
        digest = "b6917ea12a8ed7d0df6e5f2869d5a7d9084d51d12253dc571bbae587d83c7c82"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        written = (tmp_path / "bench" / "benchmark.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest

    def test_requires_at_least_three_seeds(self, tmp_path, capsys):
        doc = {
            "task": "classification",
            "data": {"synth": {"name": "two_moons", "n": 60, "noise": 0.2}},
            "model": {"hidden_widths": [4]},
            "method": "swag",
            "optimizer": {},
            "out_dir": str(tmp_path / "b"),
            "seed": 0,
            "seeds": [0, 1],
        }
        config = tmp_path / "two_seed.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "benchmark", "--config", str(config))
        assert code == 2
        assert "seeds" in err


class TestPosteriorSampledOnce:
    """Every prediction of one command reduces over one set of weight draws."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import uqkit.predictive

        made = []
        real = uqkit.predictive.posterior_sample

        def counting(*args, **kwargs):
            made.append(type(args[0]).__name__)
            return real(*args, **kwargs)

        monkeypatch.setattr(uqkit.predictive, "posterior_sample", counting)
        return made

    def test_classification_evaluate_with_calibration_split(self, tmp_path, capsys, calls):
        config = train_config(
            tmp_path,
            method="swag",
            method_params={"rank": 2},
            optimizer={
                "algorithm": "adam", "learning_rate": 0.01, "epochs": 4,
                "batch_size": 16, "weight_decay": 1e-4,
            },
        )
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        run_dir = tmp_path / "run"
        code, out, _ = run(
            capsys,
            "evaluate", "--state", str(run_dir / "state.json"),
            "--data", str(run_dir / "test.csv"),
            "--calib-data", str(run_dir / "calib.csv"),
            "--alpha", "0.2", "--predictive-samples", "5",
        )
        assert code == 0 and "coverage" in json.loads(out)
        assert calls == ["SwagState"]

    def test_regression_forward_pass_once_per_draw(self, tmp_path, capsys, monkeypatch):
        import uqkit.predictive

        run_dir = train_regression(tmp_path, capsys)
        forwards = []
        real = uqkit.predictive.mlp_forward

        def counting(*args, **kwargs):
            forwards.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(uqkit.predictive, "mlp_forward", counting)
        code, out, _ = run(
            capsys,
            "evaluate", "--state", str(run_dir / "state.json"),
            "--data", str(run_dir / "test.csv"),
            "--alpha", "0.2", "--predictive-samples", "10",
            "--out-dir", str(tmp_path / "regeval"),
        )
        assert code == 0 and "coverage" in json.loads(out)
        assert len(forwards) == 10

    def test_regression_evaluate_with_intervals(self, tmp_path, capsys, calls):
        run_dir = train_regression(tmp_path, capsys)
        code, out, _ = run(
            capsys,
            "evaluate", "--state", str(run_dir / "state.json"),
            "--data", str(run_dir / "test.csv"),
            "--alpha", "0.2", "--predictive-samples", "10",
        )
        assert code == 0 and "coverage" in json.loads(out)
        assert calls == ["LaplaceState"]

    @pytest.mark.parametrize("options, shown", [([], 1), (["-W", "always"], 3)])
    def test_few_draws_warn_once_per_command(self, tmp_path, options, shown):
        # each of three row blocks warns from the same call site, and Python's
        # default filter shows a warning once per site
        state, data = write_regression_state(tmp_path, 3 * BLOCK_ROWS)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(config_module.__file__).resolve().parents[1])
        code = "import sys; from uqkit.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, *options, "-c", code, "evaluate", "--state", str(state),
             "--data", str(data), "--alpha", "0.2", "--predictive-samples", "5"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("UserWarning: only 5 posterior draws for alpha=0.2") == shown

    def test_benchmark_once_per_seed(self, tmp_path, capsys, calls):
        config = train_config(
            tmp_path,
            method="swag",
            method_params={"rank": 2},
            predictive_samples=5,
            seeds=[0, 1, 2],
            optimizer={
                "algorithm": "adam", "learning_rate": 0.01, "epochs": 2,
                "batch_size": 16, "weight_decay": 1e-4,
            },
        )
        code, _, _ = run(capsys, "benchmark", "--config", str(config))
        assert code == 0
        assert calls == ["SwagState"] * 3
