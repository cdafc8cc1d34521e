"""Workload definitions: seeded input generation and CLI command sequences.

Each workload is a fixed sequence of ``uqkit`` CLI commands. ``build``
writes the workload's inputs into a work directory and returns a plan: the
configs, the command sequence, and the per-command work counts the
throughput metrics divide by.

Generated CSVs come from ``numpy.random.Generator`` seeded with the
benchmark seed, never from ``uqkit.rng``, so a change to uqkit's random
streams cannot change the inputs. Synthetic ``two_moons`` and
``gaussian_blobs`` data stay on uqkit's own ``synth`` path, because that
path is behaviour under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ALPHA = 0.1
PREDICTIVE_SAMPLES = 30
BINS = 15

WHY = {
    "c9-swag": "criterion-9 MAP vs SWAG+temperature run at 40 of its 300 "
    "epochs: gradient steps, batch permutations and SWAG normal draws "
    "dominate; no conformal work and almost no CSV",
    "posterior-zoo": "train + evaluate of laplace and advi on both heads: "
    "Gaussian regression head, Laplace GGN sweeps, ADVI noise, posterior "
    "sampling, credible intervals and artefact writes",
    "estimates-15k": "conformal, calibrate and evaluate on generated "
    "estimates (5e3 calibration, 1.5e4 test rows, 10 classes): CSV reads, "
    "set construction and temperature fits; no autodiff or posteriors",
}

NAMES = tuple(WHY)


def _uint_seed(seed: int) -> int:
    return seed % (1 << 31)


def _fmt_rows(matrix: np.ndarray) -> str:
    """CSV body in uqkit's dialect: 17 significant digits, CRLF endings."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\r\n" for row in matrix.tolist())


def write_csv(path: Path, matrix: np.ndarray, header: list[str]) -> None:
    matrix = np.asarray(matrix, dtype=np.float64).reshape(len(matrix), -1)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(_fmt_rows(matrix))


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path.name


def _steps(n_train: int, batch_size: int, epochs: int) -> int:
    return epochs * -(-n_train // batch_size)


def _param_count(dims: list[int]) -> int:
    return sum((a + 1) * b for a, b in zip(dims, dims[1:]))


def _split_sizes(n: int, fractions) -> tuple[int, int, int]:
    """uqkit's split rule: floor allocations, remainder to the train part."""
    sizes = [int(np.floor(f * n)) for f in fractions]
    sizes[0] += n - sum(sizes)
    return tuple(sizes)


# ---------------------------------------------------------------------------
# c9-swag

C9_N = 1900
C9_SPLIT = [3 / 19, 8 / 19, 8 / 19]
C9_EPOCHS = 40  # of the criterion-9 config's 300, so a run repeats the command about ten times
C9_SEEDS_PER_COMMAND = 3  # the CLI's minimum, for the same reason


def _c9(seed: int, work: Path) -> dict:
    first = seed % 5
    seeds = [(first + i) % 5 for i in range(C9_SEEDS_PER_COMMAND)]
    doc = {
        "task": "classification",
        "data": {"synth": {"name": "two_moons", "n": C9_N, "noise": 0.45}},
        "split": C9_SPLIT,
        "model": {"hidden_widths": [64, 64], "activation": "relu"},
        "method": "swag",
        "optimizer": {
            "algorithm": "adam", "learning_rate": 1e-3, "epochs": C9_EPOCHS,
            "batch_size": 32, "weight_decay": 0.0,
        },
        "method_params": {"rank": 20},
        "predictive_samples": PREDICTIVE_SAMPLES,
        "calibration": True,
        "temperature_method": "golden",
        "bins": BINS,
        "out_dir": "out/c9",
        "seed": first,
        "seeds": seeds,
    }
    cfg = _write_config(work / "c9.json", doc)
    n_train, _, _ = _split_sizes(C9_N, C9_SPLIT)
    steps = 2 * len(seeds) * _steps(n_train, 32, C9_EPOCHS)  # MAP + SWAG
    return {
        "configs": [{"path": cfg, "require_seeds": True}],
        "commands": [
            {"kind": "benchmark", "argv": ["benchmark", "--config", cfg], "steps": steps},
        ],
        "inputs": {
            "uqkit_seeds": seeds,
            "two_moons_n": C9_N,
            "split": list(_split_sizes(C9_N, C9_SPLIT)),
            "hidden_widths": [64, 64],
            "params": _param_count([2, 64, 64, 2]),
            "epochs": C9_EPOCHS,
            "swag_rank": 20,
            "predictive_samples": PREDICTIVE_SAMPLES,
        },
    }


# ---------------------------------------------------------------------------
# posterior-zoo

ZOO_N = 900
ZOO_EVAL_N = 5_000
ZOO_SPLIT = [0.6, 0.2, 0.2]
ZOO_EPOCHS = 10


def regression_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Heteroscedastic 2-D regression: y = sin(2 x0) + x1 / 2 + noise whose
    standard deviation grows with |x0|."""
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    std = 0.1 + 0.3 * np.abs(x[:, 0])
    y = np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1] + std * rng.standard_normal(n)
    return np.column_stack([x, y])


def _zoo(seed: int, work: Path) -> dict:
    s = _uint_seed(seed)
    rng = np.random.default_rng([s, 1])
    write_csv(work / "reg_train.csv", regression_rows(rng, ZOO_N), ["x0", "x1", "target"])
    write_csv(work / "reg_eval.csv", regression_rows(rng, ZOO_EVAL_N), ["x0", "x1", "target"])
    n_train, n_calib, n_test = _split_sizes(ZOO_N, ZOO_SPLIT)
    steps_per_fit = _steps(n_train, 32, ZOO_EPOCHS)
    configs, commands = [], []
    for task, data in (
        ("classification", {"synth": {"name": "gaussian_blobs", "n": ZOO_N, "noise": 1.5, "classes": 3}}),
        ("regression", {"csv": {"path": "reg_train.csv", "target_column": "target"}}),
    ):
        for method in ("laplace", "advi"):
            leg = f"{task[:3]}-{method}"
            doc = {
                "task": task,
                "data": data,
                "split": ZOO_SPLIT,
                "model": {"hidden_widths": [32, 32], "activation": "tanh"},
                "method": method,
                "optimizer": {
                    "algorithm": "adam", "learning_rate": 1e-3, "epochs": ZOO_EPOCHS,
                    "batch_size": 32, "weight_decay": 1e-4,
                },
                "predictive_samples": PREDICTIVE_SAMPLES,
                "bins": BINS,
                "out_dir": f"out/{leg}/train",
                "seed": s,
            }
            cfg = _write_config(work / f"{leg}.json", doc)
            configs.append({"path": cfg, "require_seeds": False})
            commands.append(
                {"kind": "train", "leg": leg, "argv": ["train", "--config", cfg], "steps": steps_per_fit}
            )
            evaluate = [
                "evaluate", "--state", f"out/{leg}/train/state.json",
                "--alpha", str(ALPHA), "--predictive-samples", str(PREDICTIVE_SAMPLES),
                "--seed", str(s), "--bins", str(BINS), "--out-dir", f"out/{leg}/eval",
            ]
            if task == "classification":
                evaluate += [
                    "--data", f"out/{leg}/train/test.csv",
                    "--calib-data", f"out/{leg}/train/calib.csv",
                ]
                rows = n_test + n_calib
            else:
                evaluate += ["--data", "reg_eval.csv"]
                rows = ZOO_EVAL_N
            commands.append({"kind": "evaluate", "leg": leg, "argv": evaluate, "rows": rows})
    return {
        "configs": configs,
        "commands": commands,
        "inputs": {
            "uqkit_seed": s,
            "gaussian_blobs_n": ZOO_N,
            "regression_train_n": ZOO_N,
            "regression_eval_n": ZOO_EVAL_N,
            "split": [n_train, n_calib, n_test],
            "hidden_widths": [32, 32],
            "epochs": ZOO_EPOCHS,
            "predictive_samples": PREDICTIVE_SAMPLES,
        },
    }


# ---------------------------------------------------------------------------
# estimates-15k

EST_CLASSES = 10
EST_CALIB = 5_000
EST_TEST = 15_000


def class_estimates(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Overconfident logits: labels are drawn from softmax(z), the logits
    reported are 2.5 z, so temperature scaling has work to do."""
    z = rng.standard_normal((n, EST_CLASSES)) * 1.2
    z[np.arange(n), rng.integers(0, EST_CLASSES, n)] += 2.0
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random(n)[:, None]
    y = np.minimum((np.cumsum(p, axis=1) < u).sum(axis=1), EST_CLASSES - 1)
    return 2.5 * z, y.astype(np.float64)


def regression_estimates(rng: np.random.Generator, n: int) -> dict:
    """Mean/std estimates whose std is 20% too small, and quantile bounds
    built from them, for the cqr and scalar conformal methods."""
    mu = rng.standard_normal(n)
    sigma = rng.uniform(0.5, 2.0, n)
    y = mu + sigma * rng.standard_normal(n)
    mean = mu + 0.1 * rng.standard_normal(n)
    std = 0.8 * sigma
    return {
        "means": mean, "stds": std, "lower": mean - 1.3 * std,
        "upper": mean + 1.3 * std, "y": y,
    }


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _estimates(seed: int, work: Path) -> dict:
    s = _uint_seed(seed)
    rng = np.random.default_rng([s, 2])
    logit_cols = [f"z{k}" for k in range(EST_CLASSES)]
    prob_cols = [f"p{k}" for k in range(EST_CLASSES)]
    for part, n in (("val", EST_CALIB), ("test", EST_TEST)):
        logits, y = class_estimates(rng, n)
        write_csv(work / f"{part}_logits.csv", logits, logit_cols)
        write_csv(work / f"{part}_probs.csv", _softmax(logits), prob_cols)
        write_csv(work / f"{part}_targets.csv", y, ["target"])
        reg = regression_estimates(rng, n)
        for kind, column in (("lower", "lower"), ("upper", "upper"), ("means", "mean"),
                             ("stds", "std"), ("y", "target")):
            write_csv(work / f"{part}_{kind}.csv", reg[kind], [column])
    cls = [
        "--val-probs", "val_probs.csv", "--val-targets", "val_targets.csv",
        "--test-probs", "test_probs.csv", "--test-targets", "test_targets.csv",
    ]
    alpha = ["--alpha", str(ALPHA)]
    commands = [
        {"kind": "conformal", "leg": "baseline", "rows": EST_TEST,
         "argv": ["conformal", "--method", "baseline", *alpha, *cls, "--out", "out/baseline.csv"]},
        {"kind": "conformal", "leg": "adaptive", "rows": EST_TEST,
         "argv": ["conformal", "--method", "adaptive", "--mode", "randomized", "--seed", str(s),
                  *alpha, *cls, "--out", "out/adaptive.csv"]},
        {"kind": "conformal", "leg": "cqr", "rows": EST_TEST,
         "argv": ["conformal", "--method", "cqr", *alpha,
                  "--val-lower", "val_lower.csv", "--val-upper", "val_upper.csv",
                  "--val-targets", "val_y.csv", "--test-lower", "test_lower.csv",
                  "--test-upper", "test_upper.csv", "--test-targets", "test_y.csv",
                  "--out", "out/cqr.csv"]},
        {"kind": "conformal", "leg": "scalar", "rows": EST_TEST,
         "argv": ["conformal", "--method", "scalar", *alpha,
                  "--val-means", "val_means.csv", "--val-stds", "val_stds.csv",
                  "--val-targets", "val_y.csv", "--test-means", "test_means.csv",
                  "--test-stds", "test_stds.csv", "--test-targets", "test_y.csv",
                  "--out", "out/scalar.csv"]},
    ]
    for method in ("golden", "adam"):
        commands.append(
            {"kind": "calibrate", "leg": method, "rows": EST_CALIB + EST_TEST,
             "argv": ["calibrate", "--logits", "val_logits.csv", "--targets", "val_targets.csv",
                      "--test-logits", "test_logits.csv", "--method", method,
                      "--out-dir", f"out/cal_{method}"]}
        )
    commands += [
        # conformal sets on a consistent (uncalibrated) calibration/test pair
        {"kind": "evaluate", "leg": "raw", "rows": EST_CALIB + EST_TEST,
         "argv": ["evaluate", "--probs", "test_probs.csv", "--targets", "test_targets.csv",
                  *alpha, "--calib-probs", "val_probs.csv", "--calib-targets", "val_targets.csv",
                  "--bins", str(BINS), "--out-dir", "out/eval_raw"]},
        # quality of the golden-calibrated test probabilities
        {"kind": "evaluate", "leg": "golden", "rows": EST_TEST,
         "argv": ["evaluate", "--probs", "out/cal_golden/calibrated.csv",
                  "--targets", "test_targets.csv", "--bins", str(BINS),
                  "--out-dir", "out/eval_golden"]},
    ]
    return {
        "configs": [],
        "commands": commands,
        "inputs": {
            "classes": EST_CLASSES,
            "calibration_rows": EST_CALIB,
            "test_rows": EST_TEST,
            "matrix_mb": round(EST_TEST * EST_CLASSES * 8 / 1e6, 1),
        },
    }


_BUILDERS = {"c9-swag": _c9, "posterior-zoo": _zoo, "estimates-15k": _estimates}


def build(name: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its plan."""
    plan = _BUILDERS[name](seed, work)
    plan.update(workload=name, seed=seed, why=WHY[name])
    return plan
