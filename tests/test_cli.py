import json

import numpy as np
import pytest

from uqkit.cli import main
from uqkit.data import load_csv, write_matrix_csv
from uqkit.metrics import classification_report
from uqkit.numerics import softmax
from uqkit.posterior import load_state


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        with pytest.raises(SystemExit) as exc:
            main(["conformal", "--method", "baseline", "--alpha", "1.5", "--out", "x"])
        assert exc.value.code == 2
        assert "alpha" in capsys.readouterr().err

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


class TestCalibrateCommand:
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
        )
        doc = json.loads(config.read_text())
        doc["data"]["csv"]["classes"] = 2
        rows2 = ["x0,x1,target"] + ["0.1,0.2,3"]
        (tmp_path / "labeled.csv").write_text("\n".join(rows + rows2[1:]) + "\n")
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(config))
        assert code == 2
        assert "classes" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4(self, tmp_path, capsys):
        config = train_config(
            tmp_path,
            optimizer={
                "algorithm": "sgd", "learning_rate": 1e200, "epochs": 3,
                "batch_size": 16, "weight_decay": 0.0,
            },
        )
        code, out, _ = run(capsys, "train", "--config", str(config))
        assert code == 4
        assert json.loads(out)["status"] == "diverged"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        for drop in ("task", "model", "theta"):
            doc = json.loads(json.dumps(full))
            (doc["arrays"] if drop == "theta" else doc).pop(drop)
            broken = tmp_path / f"no_{drop}.json"
            broken.write_text(json.dumps(doc), encoding="utf-8")
            code, _, err = run(
                capsys,
                "evaluate", "--state", str(broken), "--data", str(run_dir / "test.csv"),
            )
            assert code == 3, drop
            assert err.count("\n") == 1 and drop in err

    def test_exactly_one_input_mode(self, capsys):
        code, _, err = run(capsys, "evaluate")
        assert code == 2
        assert "exactly one" in err

    def test_regression_state_writes_predictive_and_intervals(self, tmp_path, capsys):
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
        code, out, _ = run(capsys, "train", "--config", str(config))
        assert code == 0
        run_dir = tmp_path / "run"
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
