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
import logging
import os
import re
import sys
from dataclasses import replace
from itertools import compress, takewhile
from pathlib import Path

import numpy as np

from .calibration import TEMPERATURE_METHODS, apply_temperature, fit_temperature
from .conformal import (
    Intervals,
    PredictionSets,
    _check_alpha,
    adaptive_sets,
    baseline_sets,
    cqr_interval,
    scalar_score_interval,
)
from .config import SEED_PREDICTIVE, SEED_SWAG, RunConfig, load_config
from .data import (
    CLASSIFICATION,
    check_finite_cells,
    check_value,
    class_labels,
    json_text,
    load_csv,
    read_matrix_csv,
    save_csv,
    write_blocks_csv,
    write_json,
    write_matrix_csv,
    write_text_csv,
)
from .errors import ConfigError, DataError, DivergenceError, UqError
from .metrics import DEFAULT_BINS, MAX_BINS, classification_report, interval_metrics
from .mlp import mlp_forward, param_count
from .numerics import check_prob_rows, entropy, softmax
from .posterior import (
    FitResult,
    advi_fit,
    ensemble_fit,
    laplace_fit,
    load_state,
    map_fit,
    save_state,
    swag_fit,
)
from .predictive import (
    credible_interval_regression,
    predictive_mean_classification,
    predictive_moments_regression,
    row_blocks,
    sample_weights,
)
from .rng import SEED_SCHEMA, Rng, child_seed

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


def _read_input(path, flag: str) -> np.ndarray:
    """A CSV input, read by the last word of its flag: a ``probs`` or
    ``logits`` matrix of the p0..pK-1 columns (the matrix as read when there
    are none, a view of it when they lead in order, else a copy), else a
    vector of the flag's canonical column or the only one. A non-finite
    cell among those read, or a probability row that is negative or does
    not sum to 1, is a ``DataError`` naming the file and the data row
    (1 = first after the header)."""
    kind = flag.rsplit("_", 1)[-1]
    want = _COLUMN_OF.get(kind)  # None for a probs or logits matrix
    matrix, header = read_matrix_csv(path)
    if want is None:
        ranked = sorted(
            (int(m.group(1)), i) for i, h in enumerate(header) if (m := _PROB_COLUMN.match(h))
        )
        if [r for r, _ in ranked] != list(range(len(ranked))):
            raise DataError(f"{path}: probability columns must be contiguous p0..pK-1")
        columns = [i for _, i in ranked]
    elif want in header:
        columns = [header.index(want)]
    elif len(header) == 1:
        columns = [0]
    else:
        raise DataError(
            f"{path} has columns {header}; expected a single column or one named {want!r}"
        )
    if columns not in ([], list(range(len(header)))):
        pick = slice(len(columns)) if columns == list(range(len(columns))) else columns
        matrix, header = matrix[:, pick], [header[i] for i in columns]
    check_finite_cells(path, matrix, header)
    if kind == "probs":
        try:
            check_prob_rows(matrix, "data")
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    return matrix if want is None else matrix[:, 0]


def _read_inputs(args, flags, labels: bool) -> dict[str, np.ndarray]:
    """Each of ``flags`` that was given, read once by ``_read_input``.
    Files whose flags share a first word (``val``, ``test``, ``calib`` or
    none) pair row by row, and all matrices hold the same classes: a count
    that differs from the first such file's is a ``DataError`` naming both
    files and both counts. With ``labels`` set, ``targets`` files hold
    class labels below the first matrix's class count, checked first: a
    breach is a ``DataError`` naming the file and the data row."""
    inputs = {
        flag: _read_input(getattr(args, flag), flag)
        for flag in flags
        if getattr(args, flag) is not None
    }
    if labels:
        classes = next(values.shape[1] for values in inputs.values() if values.ndim == 2)
        for flag in inputs:
            if flag.endswith("targets"):
                inputs[flag] = class_labels(inputs[flag], getattr(args, flag), classes)
    firsts = {}
    for flag, values in inputs.items():
        counts = [("data rows", flag.rpartition("_")[0], len(values))]
        if values.ndim == 2:
            counts.append(("classes", "", values.shape[1]))
        for unit, group, count in counts:
            first, n = firsts.setdefault((unit, group), (flag, count))
            if n != count:
                raise DataError(
                    f"{getattr(args, first)} has {n} {unit} but {getattr(args, flag)} has {count}"
                )
    return inputs


def write_sets_csv(path: Path, sets: PredictionSets) -> None:
    """One row per set, its classes joined by ``;``, formatted one block
    of rows at a time as the file is written."""
    names = [str(c) for c in range(sets.member.shape[1])]
    rows = (
        [";".join(compress(names, row))]
        for block in row_blocks(len(sets))
        for row in sets.member[block].tolist()
    )
    write_text_csv(path, rows, ["set"])


def write_intervals_csv(path: Path, intervals: Intervals) -> None:
    write_matrix_csv(
        path, np.column_stack([intervals.lower, intervals.upper]), ["lower", "upper"]
    )


def write_probs_csv(path: Path, probs: np.ndarray) -> None:
    """The probabilities and their entropy, one block of rows at a time."""
    header = [f"p{k}" for k in range(probs.shape[1])] + ["entropy"]
    blocks = (probs[rows] for rows in row_blocks(len(probs)))
    write_blocks_csv(path, (np.column_stack([b, entropy(b, axis=-1)]) for b in blocks), header)


def write_trace_csv(path: Path, rows: list[tuple[str, int, float]]) -> None:
    cells = ([phase, str(epoch), format(float(loss), ".17g")] for phase, epoch, loss in rows)
    write_text_csv(path, cells, ["phase", "epoch", "loss"])


def _alpha_flag(value: str) -> float:
    try:
        return _check_alpha(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int_flag(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return n


def _seed_flag(value: str) -> int:
    """A ``--seed`` value, refused as the config's ``seed`` would be."""
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    try:
        check_value(SEED_SCHEMA, seed, ("seed",))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return seed


def _bins_flag(value: str) -> int:
    n = _positive_int_flag(value)
    if n > MAX_BINS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_BINS}, got {value}")
    return n


# ---------------------------------------------------------------------------
# conformal

# each method: the name of its function, looked up in this module at call
# time (so a rebound module attribute is the one called), and its input
# flags in the order that function takes them
_CONFORMAL = {
    "baseline": ("baseline_sets", ("val_probs", "val_targets", "test_probs")),
    "adaptive": ("adaptive_sets", ("val_probs", "val_targets", "test_probs")),
    "cqr": ("cqr_interval", ("val_lower", "val_upper", "val_targets", "test_lower", "test_upper")),
    "scalar": (
        "scalar_score_interval",
        ("val_means", "val_stds", "val_targets", "test_means", "test_stds"),
    ),
}
# each input flag of any method, and the methods that read it
_READERS = {
    flag: [method for method, (_, reads) in _CONFORMAL.items() if flag in reads]
    for _, flags in _CONFORMAL.values() for flag in flags
}


def cmd_conformal(args) -> int:
    name, flags = _CONFORMAL[args.method]
    for flag in flags:
        if getattr(args, flag) is None:
            raise ConfigError([f"--{flag.replace('_', '-')} is required for {args.method}"])
    unread = [f for f in _READERS if f not in flags and getattr(args, f) is not None]
    if unread:
        raise ConfigError([f"--{f.replace('_', '-')} is read only with --method "
                           f"{' or '.join(_READERS[f])}" for f in unread])
    randomized = args.mode == "randomized"
    if randomized and args.method != "adaptive":
        raise ConfigError([f"--mode randomized applies to adaptive only, not {args.method}"])
    if args.seed is not None and not randomized:
        raise ConfigError(["--seed is read only with --method adaptive --mode randomized"])
    out = Path(args.out)
    labels = "test_probs" in flags  # the set methods
    inputs = _read_inputs(args, (*flags, "test_targets"), labels)
    kwargs = {"rng": Rng(0 if args.seed is None else args.seed)} if randomized else {}
    result = globals()[name](*(inputs[flag] for flag in flags), args.alpha, **kwargs)
    report = {"method": args.method, "alpha": args.alpha, "n": len(result), "out": str(out)}
    if labels:
        report["mean_set_size"] = float(np.mean(result.sizes()))
    else:
        width = float(np.mean(result.width()))
        # standard JSON has no infinity: an unbounded interval's mean width is null
        report["mean_width"] = width if np.isfinite(width) else None
        report["collapsed"] = int(result.collapsed.sum())
    if args.test_targets:
        report["coverage"] = float(np.mean(result.contains(inputs["test_targets"])))
    (write_sets_csv if labels else write_intervals_csv)(out, result)
    sys.stdout.write(json_text(report))
    return 0


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(args) -> int:
    out_dir = Path(args.out_dir)
    inputs = _read_inputs(args, ("logits", "targets", "test_logits"), labels=True)
    logits, targets = inputs["logits"], inputs["targets"]
    # an absent flag passes nothing, so fit_temperature's default holds
    method = {} if args.method is None else {"method": args.method}
    fit = fit_temperature(logits, targets, **method)
    for name in ("nll_before", "nll_after"):
        if not np.isfinite(getattr(fit, name)):
            raise DataError(
                f"{name} is {getattr(fit, name)}: the logits are too large for a finite NLL"
            )
    probs = apply_temperature(inputs.get("test_logits", logits), fit.temperature)
    write_probs_csv(out_dir / "calibrated.csv", probs)
    report = {
        "t": fit.temperature,
        "nll_before": fit.nll_before,
        "nll_after": fit.nll_after,
        "iterations": fit.iterations,
    }
    if fit.warning:
        report["warning"] = fit.warning
    write_json(out_dir / "fit.json", report)
    sys.stdout.write(json_text(report))
    return 0


# ---------------------------------------------------------------------------
# train

def _fits(
    cfg: RunConfig, lanes: list[tuple], trace: bool = True
) -> list[list[tuple[str, FitResult]]]:
    """The (phase, result) pairs of ``cfg.method``'s fits, in order, for
    each lane: one run seed's (seed, model, train split, optimizer). The
    lanes train in lockstep: one ``map_fit`` call for every lane, then one
    ``swag_fit`` call for the lanes before the first whose MAP fit diverged.
    SWAG and Laplace continue the MAP fit; SWAG runs on its own batch stream.
    ``trace=False`` leaves the MAP and SWAG traces empty (``benchmark``
    reads none); ensembles and ADVI always keep theirs.
    Each fit is called through this module's globals, so a rebound module
    attribute is the one called."""
    params = dict(cfg.method_params)
    if cfg.method == "ensemble":
        return [[("ensemble", ensemble_fit(m, t, o, **params))] for _, m, t, o in lanes]
    if cfg.method == "advi":
        return [[("ADVI", advi_fit(m, t, o, **params))] for _, m, t, o in lanes]
    seeds, models, trains, opts = (list(column) for column in zip(*lanes))
    bases = map_fit(models, trains, opts, trace=trace)
    fits = [[("MAP", base)] for base in bases]
    go = list(takewhile(lambda i: not bases[i].diverged, range(len(bases))))
    if cfg.method == "laplace":
        for i in go:
            state = laplace_fit(bases[i].state, models[i], trains[i], **params)
            fits[i].append(("Laplace", FitResult(state, ())))
    elif cfg.method == "swag" and go:
        epochs = params.pop("swag_epochs", opts[0].epochs)
        swags = swag_fit(
            [bases[i].state for i in go],
            [models[i] for i in go],
            [trains[i] for i in go],
            [replace(opts[i], seed=child_seed(seeds[i], SEED_SWAG), epochs=epochs) for i in go],
            **params,
            trace=trace,
        )
        for i, swag in zip(go, swags):
            fits[i].append(("SWAG", swag))
    return fits


# trace.csv's label for each phase that keeps a per-epoch trace
_TRACE_LABEL = {"MAP": "map", "SWAG": "swag", "ADVI": "advi_elbo"}


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.out_dir:
        cfg.out_dir = Path(args.out_dir)
    if args.seed is not None:
        cfg.seed = args.seed
    (train_ds, calib_ds, test_ds), model, opt = cfg.setup()
    log.info(
        "training %s on %d rows (%d parameters)",
        cfg.method, train_ds.n, param_count(model),
    )
    [fits] = _fits(cfg, [(cfg.seed, model, train_ds, opt)])
    rows = []
    for phase, fit in fits:
        rows += [(_TRACE_LABEL[phase], e, v) for e, v in enumerate(fit.trace)]
        for m, trace in enumerate(fit.member_traces):
            rows += [(f"member_{m}", e, v) for e, v in enumerate(trace)]
    phase, last = fits[-1]
    # the state first: a state its reader would refuse leaves no file behind
    save_state(cfg.out_dir / "state.json", last.state, model, cfg.task)
    for name, ds in (("train", train_ds), ("calib", calib_ds), ("test", test_ds)):
        save_csv(ds, cfg.out_dir / f"{name}.csv")
    write_trace_csv(cfg.out_dir / "trace.csv", rows)
    report = {
        "status": "diverged" if last.diverged else "ok",
        "method": cfg.method,
        "out_dir": str(cfg.out_dir),
        "state": "state.json",
        "n_train": train_ds.n,
    }
    if rows:
        report["final_loss"] = rows[-1][2]
    sys.stdout.write(json_text(report))
    if last.diverged:
        raise DivergenceError(f"{phase} phase diverged")
    return 0


# ---------------------------------------------------------------------------
# evaluate

def _predict_regression(thetas, rng, model, inputs, alpha):
    """The ``(5, n)`` mean, variance, aleatoric, epistemic and std rows of
    ``inputs``, and their credible intervals (None without ``alpha``),
    computed one block of rows (``row_blocks``) at a time. The blocks draw
    their interval noise from ``rng`` in row order, so each row gets the
    noise one pass over all n rows would give it."""
    n = len(inputs)
    table, intervals = np.empty((5, n)), None
    if alpha is not None:
        intervals = Intervals(np.empty(n), np.empty(n), np.empty(n, dtype=bool))
    for rows in row_blocks(n):
        moments = predictive_moments_regression(thetas, model, inputs[rows])
        table[:, rows] = (
            moments.mean, moments.variance, moments.aleatoric,
            moments.epistemic, np.sqrt(moments.variance),
        )
        if alpha is not None:
            block = credible_interval_regression(moments, alpha, rng)
            intervals.lower[rows], intervals.upper[rows] = block.lower, block.upper
            intervals.collapsed[rows] = block.collapsed
    return table, intervals


def _evaluate_regression(thetas, rng, model, test_ds, alpha, out_dir) -> dict:
    table, intervals = _predict_regression(thetas, rng, model, test_ds.inputs, alpha)
    doc = {
        "task": "regression",
        "n": test_ds.n,
        "mean_aleatoric": float(np.mean(table[2])),
        "mean_epistemic": float(np.mean(table[3])),
    }
    if alpha is not None:
        doc["coverage"], doc["mean_width"] = interval_metrics(intervals, test_ds.targets)
    if out_dir:
        write_matrix_csv(
            out_dir / "predictive.csv", table.T,
            ["mean", "variance", "aleatoric", "epistemic", "std"],
        )
        if alpha is not None:
            write_intervals_csv(out_dir / "intervals.csv", intervals)
    return doc


# the flags only one input source reads (the first is required); with the other, each is an error
_SOURCE_FLAGS = {
    "probs": ("targets", "calib_probs", "calib_targets"),
    "state": ("data", "calib_data", "predictive_samples", "seed", "target_column"),
}


def _load_data(path, model, task: str, target_column: str | None):
    """A dataset ``model`` takes: one feature per model input and, for
    classification, no label past its classes. Either fault is a
    ``DataError`` naming the file. Without ``target_column`` the targets
    are the ``target`` column ``save_csv`` writes."""
    ds = load_csv(path, task, "target" if target_column is None else target_column)
    if ds.d != model.input_dim:
        raise DataError(f"{path} has {ds.d} features but the model takes {model.input_dim}")
    if task == CLASSIFICATION and ds.n_classes > model.output_dim:
        raise DataError(
            f"{path} has labels up to {ds.n_classes - 1} but the model "
            f"has {model.output_dim} classes"
        )
    return ds


def _evaluate(args, out_dir: Path | None) -> dict:
    """An ``evaluate`` run's report, once its CSV outputs are under ``out_dir``."""
    if (args.probs is None) == (args.state is None):
        raise ConfigError(["pass exactly one of --probs or --state"])
    source, other = ("probs", "state") if args.probs is not None else ("state", "probs")
    unused = [f for f in _SOURCE_FLAGS[other] if getattr(args, f) is not None]
    if unused:
        raise ConfigError([f"--{f.replace('_', '-')} is read only with --{other}" for f in unused])
    needed = _SOURCE_FLAGS[source][0]
    if getattr(args, needed) is None:
        raise ConfigError([f"--{needed} is required with --{source}"])
    if source == "probs":
        calib_flags = ("calib_probs", "calib_targets")
        given = [f for f in calib_flags if getattr(args, f) is not None]
        if args.alpha is None and given:
            raise ConfigError([f"--{f.replace('_', '-')} is read only with --alpha" for f in given])
        if args.alpha is not None and len(given) < 2:
            raise ConfigError(
                ["--alpha with --probs needs --calib-probs and --calib-targets"]
            )
        inputs = _read_inputs(args, ("probs", "targets", *calib_flags), labels=True)
        probs, targets = inputs["probs"], inputs["targets"]
        calib = tuple(inputs.get(flag) for flag in calib_flags)
    else:
        if args.alpha is None and args.calib_data is not None:
            raise ConfigError(["--calib-data is read only with --alpha"])
        state, model, task = load_state(args.state)
        if task != CLASSIFICATION and args.calib_data is not None:
            raise ConfigError(["--calib-data is read only with a classification state"])
        if task == CLASSIFICATION and args.alpha is not None and args.calib_data is None:
            raise ConfigError(["--alpha with --state needs --calib-data"])
        test_ds = _load_data(args.data, model, task, args.target_column)
        if task == CLASSIFICATION and args.alpha is not None:
            calib_ds = _load_data(args.calib_data, model, task, args.target_column)
        seed = {} if args.seed is None else {"seed": args.seed}
        thetas, rng = sample_weights(state, args.predictive_samples, **seed)
        if task != CLASSIFICATION:
            return _evaluate_regression(thetas, rng, model, test_ds, args.alpha, out_dir)
        probs = predictive_mean_classification(thetas, model, test_ds.inputs)
        targets = test_ds.targets
        if args.alpha is not None:
            calib = (
                predictive_mean_classification(thetas, model, calib_ds.inputs),
                calib_ds.targets,
            )
    doc = classification_report(probs, targets, n_bins=args.bins).to_dict()
    if args.alpha is not None:
        sets = baseline_sets(*calib, probs, args.alpha)
        doc["coverage"] = float(np.mean(sets.contains(targets)))
        doc["mean_width"] = float(np.mean(sets.sizes()))
    if out_dir:
        if source == "state":
            write_probs_csv(out_dir / "predictive.csv", probs)
        if args.alpha is not None:
            write_sets_csv(out_dir / "sets.csv", sets)
    return doc


def cmd_evaluate(args) -> int:
    out_dir = Path(args.out_dir) if args.out_dir else None
    doc = _evaluate(args, out_dir)
    if out_dir:
        write_json(out_dir / "report.json", doc)
    sys.stdout.write(json_text(doc))
    return 0


# ---------------------------------------------------------------------------
# benchmark

_LOWER_IS_BETTER = {"nll": True, "ece": True, "brier": True, "accuracy": False}


def _benchmark_one(cfg: RunConfig, run_seed: int, splits, model, base, swag) -> dict:
    """One seed's report from its splits, model and MAP and SWAG fits."""
    _, calib_ds, test_ds = splits
    map_probs = softmax(mlp_forward(model, base.state.theta, test_ds.inputs), axis=1)
    map_report = classification_report(map_probs, test_ds.targets, n_bins=cfg.bins)
    thetas, _ = sample_weights(
        swag.state, cfg.predictive_samples, child_seed(run_seed, SEED_PREDICTIVE)
    )
    calib_probs = predictive_mean_classification(thetas, model, calib_ds.inputs)
    test_probs = predictive_mean_classification(thetas, model, test_ds.inputs)
    temperature = 1.0
    if cfg.calibration:
        # log predictive probabilities act as logits: t = 1 reproduces them
        fit = fit_temperature(
            np.log(np.maximum(calib_probs, 1e-300)),
            calib_ds.targets,
            **cfg.temperature_params,
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
    run = replace(cfg, method="swag")
    setups = [replace(run, seed=s).setup() for s in cfg.seeds]
    # split sizes depend only on n and the fractions, so every seed's fits
    # share a row count and train as lanes of one loop; no report reads a trace
    fits = _fits(
        run,
        [(s, model, splits[0], opt) for s, (splits, model, opt) in zip(cfg.seeds, setups)],
        trace=False,
    )
    for run_seed, seed_fits in zip(cfg.seeds, fits):
        for phase, fit in seed_fits:
            if fit.diverged:
                raise DivergenceError(f"{phase} phase diverged for seed {run_seed}")
    runs = []
    for run_seed, (splits, model, _), ((_, base), (_, swag)) in zip(cfg.seeds, setups, fits):
        log.info("benchmark seed %d", run_seed)
        runs.append(_benchmark_one(cfg, run_seed, splits, model, base, swag))
    tally = {}
    for metric, lower in _LOWER_IS_BETTER.items():
        pairs = [(run["swag_temperature"][metric], run["map"][metric]) for run in runs]
        wins = sum(a < b if lower else a > b for a, b in pairs)
        losses = sum(a > b if lower else a < b for a, b in pairs)
        tally[metric] = {"wins": wins, "losses": losses, "ties": len(pairs) - wins - losses}
    doc = {
        "seeds": list(cfg.seeds),
        "bins": cfg.bins,
        "metrics": list(_LOWER_IS_BETTER),
        "runs": runs,
        "tally": tally,
    }
    write_json(cfg.out_dir / "benchmark.json", doc)
    sys.stdout.write(json_text(doc))
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """A flag fault raises ``ConfigError``, so it ends as one ``config
    error:`` line like every other exit-2 fault; subparsers inherit it."""

    def error(self, message):
        raise ConfigError([message])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uqkit",
        description="Uncertainty quantification: conformal sets and intervals, "
        "temperature scaling, and desk-scale Bayesian posteriors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conformal", help="prediction sets/intervals from estimates")
    p.add_argument("--method", required=True, choices=list(_CONFORMAL))
    p.add_argument("--alpha", required=True, type=_alpha_flag)
    for flag in _READERS:
        p.add_argument(f"--{flag.replace('_', '-')}")
    p.add_argument("--test-targets")
    p.add_argument("--mode", choices=["deterministic", "randomized"], default="deterministic")
    p.add_argument("--seed", type=_seed_flag)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_conformal)

    p = sub.add_parser("calibrate", help="fit a temperature on calibration logits")
    p.add_argument("--logits", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--test-logits")
    p.add_argument("--method", choices=TEMPERATURE_METHODS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="fit a posterior approximation from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=_seed_flag)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics from outputs or a saved state")
    p.add_argument("--probs")
    p.add_argument("--targets")
    p.add_argument("--state")
    p.add_argument("--data")
    p.add_argument("--target-column")
    p.add_argument("--calib-probs")
    p.add_argument("--calib-targets")
    p.add_argument("--calib-data")
    p.add_argument("--bins", type=_bins_flag, default=DEFAULT_BINS)
    p.add_argument("--alpha", type=_alpha_flag)
    p.add_argument("--predictive-samples", type=_positive_int_flag)
    p.add_argument("--seed", type=_seed_flag)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        # an OSError names its path: say, a directory given where a file goes
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 4
    except (UqError, ValueError, IndexError, MemoryError) as exc:
        # a MemoryError is an array too large to allocate: say, an oversized model
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
