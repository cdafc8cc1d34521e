"""Command-line interface.

Subcommands cover the three usage layers plus evaluation and a seeded
benchmark: ``conformal`` (sets/intervals from uncertainty estimates),
``calibrate`` (temperature scaling of logits), ``train`` (posterior
approximation over the built-in MLP), ``evaluate`` (metrics and
predictive outputs), and ``benchmark`` (multi-seed MAP versus
SWAG-plus-temperature comparison).

Exit codes: 0 success, 2 bad flags or config, 3 malformed data,
4 diverged training. stdout carries only the report JSON; logs go to
stderr at the level named by the UQKIT_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import apply_temperature, calibrated_entropy, fit_temperature
from .conformal import (
    Intervals,
    PredictionSets,
    adaptive_sets,
    baseline_sets,
    cqr_interval,
    scalar_score_interval,
)
from .config import (
    SEED_OPTIM,
    SEED_PREDICTIVE,
    RunConfig,
    load_config,
)
from .data import (
    CLASSIFICATION,
    load_csv,
    read_matrix_csv,
    save_csv,
    write_matrix_csv,
)
from .errors import ConfigError, DataError, DivergenceError, UqError
from .metrics import classification_report, interval_metrics
from .mlp import mlp_forward, param_count
from .numerics import entropy, softmax
from .posterior import (
    advi_fit,
    ensemble_fit,
    laplace_fit,
    load_state,
    map_fit,
    save_state,
    swag_fit,
)
from .predictive import (
    PredictiveConfig,
    credible_interval_regression,
    predictive_mean_classification,
    predictive_moments_regression,
)
from .rng import Rng, child_seed

log = logging.getLogger("uqkit")

_PROB_COLUMN = re.compile(r"^p(\d+)$")

# canonical column names accepted in multi-column CSV inputs, per flag
_COLUMN_OF = {
    "targets": "target",
    "lower": "lower",
    "upper": "upper",
    "means": "mean",
    "stds": "std",
}


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_probs_csv(path) -> np.ndarray:
    """Probability (or logit) matrix: the p0..pK-1 columns when present,
    otherwise every column in file order."""
    matrix, header = read_matrix_csv(path)
    indexed = [(int(m.group(1)), i) for i, h in enumerate(header) if (m := _PROB_COLUMN.match(h))]
    if not indexed:
        return matrix
    indexed.sort()
    ranks = [r for r, _ in indexed]
    if ranks != list(range(len(ranks))):
        raise DataError(f"{path}: probability columns must be contiguous p0..pK-1")
    return matrix[:, [i for _, i in indexed]]


def read_vector_csv(path, kind: str) -> np.ndarray:
    """One float column: the canonical column for ``kind``, or the only one."""
    matrix, header = read_matrix_csv(path)
    want = _COLUMN_OF[kind]
    if want in header:
        return matrix[:, header.index(want)]
    if len(header) == 1:
        return matrix[:, 0]
    raise DataError(
        f"{path} has columns {header}; expected a single column or one named {want!r}"
    )


def read_targets_csv(path, classification: bool) -> np.ndarray:
    values = read_vector_csv(path, "targets")
    if not classification:
        return values
    if np.any(values != np.round(values)):
        raise DataError(f"{path}: class targets must be integers")
    return values.astype(np.int64)


def write_sets_csv(path: Path, sets: PredictionSets) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["set"])
        for i in range(len(sets)):
            writer.writerow([";".join(str(c) for c in sets.labels(i))])


def write_intervals_csv(path: Path, intervals: Intervals) -> None:
    write_matrix_csv(
        path, np.column_stack([intervals.lower, intervals.upper]), ["lower", "upper"]
    )


def write_probs_csv(path: Path, probs: np.ndarray, entropies: np.ndarray) -> None:
    header = [f"p{k}" for k in range(probs.shape[1])] + ["entropy"]
    write_matrix_csv(path, np.column_stack([probs, entropies]), header)


def write_trace_csv(path: Path, rows: list[tuple[str, int, float]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "epoch", "loss"])
        for phase, epoch, loss in rows:
            writer.writerow([phase, str(epoch), format(float(loss), ".17g")])


def _alpha_flag(value: str) -> float:
    try:
        a = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be a number, got {value!r}")
    if not 0.0 < a < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {value}")
    return a


# ---------------------------------------------------------------------------
# conformal

def cmd_conformal(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report: dict = {"method": args.method, "alpha": args.alpha}
    if args.method in ("baseline", "adaptive"):
        for flag in ("val_probs", "val_targets", "test_probs"):
            if getattr(args, flag) is None:
                raise ConfigError([f"--{flag.replace('_', '-')} is required for {args.method}"])
        val_probs = read_probs_csv(args.val_probs)
        val_targets = read_targets_csv(args.val_targets, classification=True)
        test_probs = read_probs_csv(args.test_probs)
        if args.method == "baseline":
            sets = baseline_sets(val_probs, val_targets, test_probs, args.alpha)
        else:
            sets = adaptive_sets(
                val_probs,
                val_targets,
                test_probs,
                args.alpha,
                mode=args.mode,
                rng=Rng(args.seed) if args.mode == "randomized" else None,
            )
        write_sets_csv(out, sets)
        report["n"] = len(sets)
        report["mean_set_size"] = float(np.mean(sets.sizes()))
        if args.test_targets:
            y = read_targets_csv(args.test_targets, classification=True)
            report["coverage"] = float(np.mean(sets.contains(y)))
    else:
        if args.method == "cqr":
            needed = ("val_lower", "val_upper", "val_targets", "test_lower", "test_upper")
        else:
            needed = ("val_means", "val_stds", "val_targets", "test_means", "test_stds")
        for flag in needed:
            if getattr(args, flag) is None:
                raise ConfigError([f"--{flag.replace('_', '-')} is required for {args.method}"])
        val_targets = read_vector_csv(args.val_targets, "targets")
        if args.method == "cqr":
            intervals = cqr_interval(
                read_vector_csv(args.val_lower, "lower"),
                read_vector_csv(args.val_upper, "upper"),
                val_targets,
                read_vector_csv(args.test_lower, "lower"),
                read_vector_csv(args.test_upper, "upper"),
                args.alpha,
            )
        else:
            intervals = scalar_score_interval(
                read_vector_csv(args.val_means, "means"),
                read_vector_csv(args.val_stds, "stds"),
                val_targets,
                read_vector_csv(args.test_means, "means"),
                read_vector_csv(args.test_stds, "stds"),
                args.alpha,
            )
        write_intervals_csv(out, intervals)
        report["n"] = len(intervals)
        report["mean_width"] = float(np.mean(intervals.width()))
        report["collapsed"] = int(intervals.collapsed.sum())
        if args.test_targets:
            y = read_vector_csv(args.test_targets, "targets")
            coverage, _ = interval_metrics(intervals, y)
            report["coverage"] = coverage
    report["out"] = str(out)
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    logits = read_probs_csv(args.logits)
    targets = read_targets_csv(args.targets, classification=True)
    fit = fit_temperature(logits, targets, method=args.method)
    target_logits = read_probs_csv(args.test_logits) if args.test_logits else logits
    probs = apply_temperature(target_logits, fit.temperature)
    entropies = calibrated_entropy(target_logits, fit.temperature)
    write_probs_csv(out_dir / "calibrated.csv", probs, entropies)
    report = {
        "t": fit.temperature,
        "nll_before": fit.nll_before,
        "nll_after": fit.nll_after,
        "iterations": fit.iterations,
    }
    if fit.warning:
        report["warning"] = fit.warning
    _write_json(out_dir / "fit.json", report)
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# train

def _swag_after_map(cfg: RunConfig, start, model, train_ds, opt, run_seed: int):
    """The SWAG phase that continues a MAP fit, on its own batch stream."""
    params = cfg.method_params
    swag_opt = replace(
        opt,
        seed=child_seed(run_seed, SEED_OPTIM + 100),
        epochs=params["swag_epochs"] or opt.epochs,
    )
    return swag_fit(
        start,
        model,
        train_ds,
        swag_opt,
        rank=params["rank"],
        snapshot_every=params["snapshot_every"],
    )


def _fit_by_method(cfg: RunConfig, model, train_ds, opt, run_seed: int):
    """Returns (state, trace rows, diverged)."""
    params = cfg.method_params
    if cfg.method == "map":
        result = map_fit(model, train_ds, opt)
        rows = [("map", e, v) for e, v in enumerate(result.trace)]
        return result.state, rows, result.diverged
    if cfg.method == "ensemble":
        result = ensemble_fit(model, train_ds, opt, members=params["members"])
        rows = [
            (f"member_{m}", e, v)
            for m, tr in enumerate(result.member_traces)
            for e, v in enumerate(tr)
        ]
        return result.state, rows, result.diverged
    if cfg.method == "advi":
        result = advi_fit(
            model,
            train_ds,
            opt,
            mc_samples=params["mc_samples"],
            prior_precision=params["prior_precision"],
        )
        rows = [("advi_elbo", e, v) for e, v in enumerate(result.trace)]
        return result.state, rows, result.diverged
    base = map_fit(model, train_ds, opt)
    rows = [("map", e, v) for e, v in enumerate(base.trace)]
    if base.diverged:
        return base.state, rows, True
    if cfg.method == "laplace":
        state = laplace_fit(
            base.state, model, train_ds, prior_precision=params["prior_precision"]
        )
        return state, rows, False
    swag = _swag_after_map(cfg, base.state, model, train_ds, opt, run_seed)
    rows += [("swag", e, v) for e, v in enumerate(swag.trace)]
    return swag.state, rows, swag.diverged


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.out_dir:
        cfg.out_dir = Path(args.out_dir)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    dataset = cfg.load_dataset()
    train_ds, calib_ds, test_ds = cfg.split_dataset(dataset)
    model = cfg.model_config(dataset)
    opt = cfg.optimizer()
    log.info(
        "training %s on %d rows (%d parameters)",
        cfg.method, train_ds.n, param_count(model),
    )
    state, rows, diverged = _fit_by_method(cfg, model, train_ds, opt, cfg.seed)
    save_csv(train_ds, cfg.out_dir / "train.csv")
    save_csv(calib_ds, cfg.out_dir / "calib.csv")
    save_csv(test_ds, cfg.out_dir / "test.csv")
    save_state(cfg.out_dir / "state.json", state, model, cfg.task)
    write_trace_csv(cfg.out_dir / "trace.csv", rows)
    report = {
        "status": "diverged" if diverged else "ok",
        "method": cfg.method,
        "out_dir": str(cfg.out_dir),
        "state": "state.json",
        "n_train": train_ds.n,
    }
    if rows:
        report["final_loss"] = rows[-1][2]
    _emit(report)
    return 4 if diverged else 0


# ---------------------------------------------------------------------------
# evaluate

def cmd_evaluate(args) -> int:
    if (args.probs is None) == (args.state is None):
        raise ConfigError(["pass exactly one of --probs or --state"])
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    if args.probs:
        if args.targets is None:
            raise ConfigError(["--targets is required with --probs"])
        probs = read_probs_csv(args.probs)
        targets = read_targets_csv(args.targets, classification=True)
        report = classification_report(probs, targets, n_bins=args.bins)
        doc = report.to_dict()
        if args.alpha is not None:
            if not (args.calib_probs and args.calib_targets):
                raise ConfigError(
                    ["--alpha with --probs needs --calib-probs and --calib-targets"]
                )
            sets = baseline_sets(
                read_probs_csv(args.calib_probs),
                read_targets_csv(args.calib_targets, classification=True),
                probs,
                args.alpha,
            )
            doc["coverage"] = float(np.mean(sets.contains(targets)))
            doc["mean_width"] = float(np.mean(sets.sizes()))
            if out_dir:
                write_sets_csv(out_dir / "sets.csv", sets)
        if out_dir:
            _write_json(out_dir / "report.json", doc)
        _emit(doc)
        return 0

    if args.data is None:
        raise ConfigError(["--data is required with --state"])
    state, model, task = load_state(args.state)
    test_ds = load_csv(args.data, task, args.target_column)
    pcfg = PredictiveConfig(n_samples=args.predictive_samples, seed=args.seed)
    if task == CLASSIFICATION:
        probs = predictive_mean_classification(state, model, test_ds.inputs, pcfg)
        if probs.shape[1] < test_ds.n_classes:
            raise DataError(
                f"data has labels up to {test_ds.n_classes - 1} but the model "
                f"has {probs.shape[1]} classes"
            )
        report = classification_report(probs, test_ds.targets, n_bins=args.bins)
        doc = report.to_dict()
        if out_dir:
            write_probs_csv(out_dir / "predictive.csv", probs, entropy(probs, axis=-1))
        if args.alpha is not None:
            if args.calib_data is None:
                raise ConfigError(["--alpha with --state needs --calib-data"])
            calib_ds = load_csv(args.calib_data, task, args.target_column)
            calib_probs = predictive_mean_classification(
                state, model, calib_ds.inputs, pcfg
            )
            sets = baseline_sets(
                calib_probs, calib_ds.targets, probs, args.alpha
            )
            doc["coverage"] = float(np.mean(sets.contains(test_ds.targets)))
            doc["mean_width"] = float(np.mean(sets.sizes()))
            if out_dir:
                write_sets_csv(out_dir / "sets.csv", sets)
    else:
        moments = predictive_moments_regression(state, model, test_ds.inputs, pcfg)
        doc = {
            "task": "regression",
            "n": test_ds.n,
            "mean_aleatoric": float(np.mean(moments.aleatoric)),
            "mean_epistemic": float(np.mean(moments.epistemic)),
        }
        if out_dir:
            write_matrix_csv(
                out_dir / "predictive.csv",
                np.column_stack([
                    moments.mean, moments.variance, moments.aleatoric,
                    moments.epistemic, np.sqrt(moments.variance),
                ]),
                ["mean", "variance", "aleatoric", "epistemic", "std"],
            )
        if args.alpha is not None:
            intervals = credible_interval_regression(
                state, model, test_ds.inputs, args.alpha, pcfg
            )
            coverage, width = interval_metrics(intervals, test_ds.targets)
            doc["coverage"] = coverage
            doc["mean_width"] = width
            if out_dir:
                write_intervals_csv(out_dir / "intervals.csv", intervals)
    if out_dir:
        _write_json(out_dir / "report.json", doc)
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# benchmark

_LOWER_IS_BETTER = {"nll": True, "ece": True, "brier": True, "accuracy": False}


def _benchmark_one(cfg: RunConfig, run_seed: int) -> dict:
    dataset = cfg.load_dataset(seed=run_seed)
    train_ds, calib_ds, test_ds = cfg.split_dataset(dataset, seed=run_seed)
    model = cfg.model_config(dataset, seed=run_seed)
    opt = replace(cfg.optimizer(), seed=child_seed(run_seed, SEED_OPTIM))

    base = map_fit(model, train_ds, opt)
    if base.diverged:
        raise DivergenceError(f"MAP phase diverged for seed {run_seed}")
    map_probs = softmax(mlp_forward(model, base.state.theta, test_ds.inputs), axis=1)
    map_report = classification_report(map_probs, test_ds.targets, n_bins=cfg.bins)

    swag = _swag_after_map(cfg, base.state, model, train_ds, opt, run_seed)
    if swag.diverged:
        raise DivergenceError(f"SWAG phase diverged for seed {run_seed}")
    pcfg = PredictiveConfig(
        n_samples=cfg.predictive_samples, seed=child_seed(run_seed, SEED_PREDICTIVE)
    )
    calib_probs = predictive_mean_classification(
        swag.state, model, calib_ds.inputs, pcfg
    )
    test_probs = predictive_mean_classification(swag.state, model, test_ds.inputs, pcfg)
    temperature = 1.0
    if cfg.calibration:
        # log predictive probabilities act as logits: t = 1 reproduces them
        fit = fit_temperature(
            np.log(np.maximum(calib_probs, 1e-300)),
            calib_ds.targets,
            method=cfg.temperature_method,
        )
        temperature = fit.temperature
        test_probs = apply_temperature(
            np.log(np.maximum(test_probs, 1e-300)), temperature
        )
    swag_report = classification_report(test_probs, test_ds.targets, n_bins=cfg.bins)
    return {
        "seed": run_seed,
        "temperature": temperature,
        "map": map_report.to_dict(),
        "swag_temperature": swag_report.to_dict(),
    }


def cmd_benchmark(args) -> int:
    cfg = load_config(args.config, require_seeds=True)
    if args.out_dir:
        cfg.out_dir = Path(args.out_dir)
    if "synth" not in cfg.raw["data"]:
        raise ConfigError(["benchmark configs need a synthetic dataset spec"])
    if cfg.task != CLASSIFICATION:
        raise ConfigError(["benchmark compares classification calibration only"])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for run_seed in cfg.seeds:
        log.info("benchmark seed %d", run_seed)
        runs.append(_benchmark_one(cfg, run_seed))
    metrics = ["nll", "ece", "brier", "accuracy"]
    tally = {}
    for metric in metrics:
        wins = losses = ties = 0
        for run in runs:
            a = run["swag_temperature"][metric]
            b = run["map"][metric]
            better = a < b if _LOWER_IS_BETTER[metric] else a > b
            worse = a > b if _LOWER_IS_BETTER[metric] else a < b
            if better:
                wins += 1
            elif worse:
                losses += 1
            else:
                ties += 1
        tally[metric] = {"wins": wins, "losses": losses, "ties": ties}
    doc = {
        "seeds": list(cfg.seeds),
        "bins": cfg.bins,
        "metrics": metrics,
        "runs": runs,
        "tally": tally,
    }
    _write_json(cfg.out_dir / "benchmark.json", doc)
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqkit",
        description="Uncertainty quantification: conformal sets and intervals, "
        "temperature scaling, and desk-scale Bayesian posteriors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conformal", help="prediction sets/intervals from estimates")
    p.add_argument("--method", required=True, choices=["baseline", "adaptive", "cqr", "scalar"])
    p.add_argument("--alpha", required=True, type=_alpha_flag)
    p.add_argument("--val-probs")
    p.add_argument("--val-targets")
    p.add_argument("--test-probs")
    p.add_argument("--test-targets")
    p.add_argument("--val-lower")
    p.add_argument("--val-upper")
    p.add_argument("--test-lower")
    p.add_argument("--test-upper")
    p.add_argument("--val-means")
    p.add_argument("--val-stds")
    p.add_argument("--test-means")
    p.add_argument("--test-stds")
    p.add_argument("--mode", choices=["deterministic", "randomized"], default="deterministic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_conformal)

    p = sub.add_parser("calibrate", help="fit a temperature on calibration logits")
    p.add_argument("--logits", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--test-logits")
    p.add_argument("--method", choices=["golden", "adam"], default="golden")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="fit a posterior approximation from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics from outputs or a saved state")
    p.add_argument("--probs")
    p.add_argument("--targets")
    p.add_argument("--state")
    p.add_argument("--data")
    p.add_argument("--target-column", default="target")
    p.add_argument("--calib-probs")
    p.add_argument("--calib-targets")
    p.add_argument("--calib-data")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--alpha", type=_alpha_flag)
    p.add_argument("--predictive-samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="multi-seed MAP vs SWAG+temperature")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("UQKIT_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 4
    except (UqError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
