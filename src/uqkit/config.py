"""Run configuration: a strict JSON document shared by train and benchmark.

Validation is strict: one pass of ``data.schema_faults`` over
``RUN_SCHEMA`` (JSON Schema; ``state.json`` goes through the same walker)
and the rules no schema states reports every fault, each with its JSON
path. One top-level ``seed`` drives everything; purpose-specific
streams (data generation, weight init, batch order, splits, predictive
draws) are derived child seeds, so a config replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .calibration import METHOD_SCHEMA
from .data import (
    CLASSIFICATION,
    REGRESSION,
    SPLIT_SCHEMA,
    SYNTH_SCHEMA,
    TASK_SCHEMA,
    Dataset,
    check_split_fractions,
    fault_lines,
    load_csv,
    read_json,
    schema_faults,
    split,
    synth_classification,
)
from .errors import ConfigError, DataError
from .metrics import BINS_SCHEMA, DEFAULT_BINS
from .mlp import MODEL_SCHEMA, MlpConfig
from .posterior import DRAWS_SCHEMA, FIT_PARAMS, OPTIM_SCHEMA, OptimConfig
from .rng import SEED_SCHEMA, child_seed

# child-stream indices hung off the config seed
SEED_DATA = 0
SEED_INIT = 1
SEED_OPTIM = 2
SEED_SPLIT = 3
SEED_PREDICTIVE = 4
SEED_SWAG = SEED_OPTIM + 100  # the SWAG phase's batch stream

# The method_params keys each method reads. Their defaults live in the fit
# functions' signatures; swag_epochs falls back to the optimizer's epochs.
_METHOD_PARAMS = {
    "map": set(),
    "ensemble": {"members"},
    "swag": {"rank", "snapshot_every", "swag_epochs"},
    "laplace": {"prior_precision"},
    "advi": {"mc_samples", "prior_precision"},
}

# a setting the library also takes is the fragment its module checks it with
RUN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["task", "data", "model", "method", "optimizer", "out_dir", "seed"],
    "properties": {
        "task": TASK_SCHEMA,
        "data": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "synth": SYNTH_SCHEMA,
                "csv": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["path", "target_column"],
                    "properties": {
                        "path": {"type": "string"},
                        "target_column": {"type": "string"},
                        "classes": {"type": "integer", "minimum": 2},
                    },
                },
            },
        },
        "split": SPLIT_SCHEMA,
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["hidden_widths"],
            "properties": {
                # a run's model has a hidden layer; a state's may have none
                "hidden_widths": {**MODEL_SCHEMA["properties"]["hidden_widths"], "minItems": 1},
                "activation": MODEL_SCHEMA["properties"]["activation"],
            },
        },
        "method": {"enum": list(_METHOD_PARAMS)},
        "optimizer": OPTIM_SCHEMA,
        "method_params": FIT_PARAMS,
        "calibration": {"type": "boolean"},
        "temperature_method": METHOD_SCHEMA,
        "bins": BINS_SCHEMA,
        "predictive_samples": DRAWS_SCHEMA,
        "out_dir": {"type": "string"},
        "seed": SEED_SCHEMA,
        "seeds": {"type": "array", "items": SEED_SCHEMA, "minItems": 3},
    },
}

# Where a config's optimizer defaults differ from OptimConfig's: 50 epochs
# is the desk-scale default (300 reproduces the documented fidelity
# preset), and configs train with a small ridge penalty.
_OPTIM_DEFAULTS = {"epochs": 50, "weight_decay": 1e-4}

@dataclass
class RunConfig:
    raw: dict
    task: str
    method: str
    out_dir: Path
    seed: int
    split_fractions: tuple[float, float, float]
    bins: int
    calibration: bool
    predictive_samples: int | None
    method_params: dict  # only the keys the config gives
    temperature_params: dict  # fit_temperature's ``method``, when the config gives it
    seeds: tuple[int, ...] = field(default_factory=tuple)

    def setup(self) -> tuple[tuple[Dataset, Dataset, Dataset], MlpConfig, OptimConfig]:
        """((train, calib, test), model, optimizer), each seeded from
        ``seed``. Built in the order load, split, model, optimizer, so a
        split fault is reported before a data/csv/classes one."""
        data, model = self.raw["data"], self.raw["model"]
        if "synth" in data:
            spec = data["synth"]
            dataset = synth_classification(
                spec["name"],
                spec["n"],
                spec.get("noise", 0.1),
                seed=child_seed(self.seed, SEED_DATA),
                **_given(spec, n_classes="classes"),
            )
        else:
            dataset = load_csv(data["csv"]["path"], self.task, data["csv"]["target_column"])
        splits = split(dataset, self.split_fractions, child_seed(self.seed, SEED_SPLIT))
        if self.task == CLASSIFICATION:
            # class count is inferred (max label + 1) unless overridden
            output_dim = data.get("csv", {}).get("classes", dataset.n_classes)
            if output_dim < dataset.n_classes:
                raise ConfigError([
                    f"data/csv/classes = {output_dim} is below the "
                    f"largest label + 1 = {dataset.n_classes}"
                ])
        else:
            output_dim = 2  # mean and log-variance head
        mlp = MlpConfig(
            input_dim=dataset.d,
            hidden_widths=tuple(model["hidden_widths"]),
            output_dim=output_dim,
            init_seed=child_seed(self.seed, SEED_INIT),
            **_given(model, activation="activation"),
        )
        optim = {**_OPTIM_DEFAULTS, **self.raw.get("optimizer", {})}
        return splits, mlp, OptimConfig(seed=child_seed(self.seed, SEED_OPTIM), **optim)


def _given(spec: dict, **keys) -> dict:
    """{param: spec[key]} for each param=key in ``spec``; an absent key keeps the callee's default."""
    return {param: spec[key] for param, key in keys.items() if key in spec}


def validate_config(doc: dict, require_seeds: bool = False) -> list[str]:
    """Every fault at once, as "at <path>: <message>" strings in path order."""
    faults = list(schema_faults(RUN_SCHEMA, doc))
    if isinstance(doc, dict):
        data = doc.get("data")
        if isinstance(data, dict) and "synth" in data and doc.get("task") == REGRESSION:
            faults.append((("data", "synth"), "synth generators make classification data only"))
        if "split" in doc and all(path[:1] != ("split",) for path, _ in faults):
            try:
                check_split_fractions(doc["split"])
            except ValueError as exc:
                faults.append((("split",), str(exc)))
        # the benchmark runs MAP then SWAG, whatever ``method`` names
        method = "swag" if require_seeds else doc.get("method")
        params = doc.get("method_params")
        if isinstance(method, str) and method in _METHOD_PARAMS and isinstance(params, dict):
            reader = "the benchmark's SWAG phase" if require_seeds else f"method {method!r}"
            for key in FIT_PARAMS["properties"]:
                if key in params and key not in _METHOD_PARAMS[method]:
                    faults.append((("method_params", key), f"{reader} does not read {key!r}"))
        if require_seeds and "seeds" not in doc:
            faults.append(((), "benchmark configs need a 'seeds' list (>= 3)"))
        if require_seeds and isinstance(data, dict) and "synth" not in data:
            faults.append((("data",), "benchmark configs need a synthetic dataset spec"))
        if require_seeds and doc.get("task", CLASSIFICATION) != CLASSIFICATION:
            faults.append((("task",), "benchmark compares classification calibration only"))
    return fault_lines(faults)


def load_config(path, require_seeds: bool = False) -> RunConfig:
    try:
        doc = read_json(path, "config")
    except DataError as exc:
        raise ConfigError([str(exc)]) from None
    messages = validate_config(doc, require_seeds=require_seeds)
    if messages:
        raise ConfigError(messages)
    return RunConfig(
        raw=doc,
        task=doc["task"],
        method=doc["method"],
        out_dir=Path(doc["out_dir"]),
        seed=int(doc["seed"]),
        split_fractions=tuple(doc.get("split", [0.7, 0.15, 0.15])),
        bins=int(doc.get("bins", DEFAULT_BINS)),
        calibration=bool(doc.get("calibration", True)),
        predictive_samples=doc.get("predictive_samples"),
        method_params=dict(doc.get("method_params", {})),
        temperature_params=_given(doc, method="temperature_method"),
        seeds=tuple(doc.get("seeds", ())),
    )
