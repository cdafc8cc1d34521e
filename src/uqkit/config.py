"""Run configuration: a strict JSON document shared by train and benchmark.

Validation is schema-based and strict: unknown keys are rejected and all
violations are reported at once, each with its JSON path. One top-level
``seed`` drives everything; purpose-specific streams (data generation,
weight init, batch order, splits, predictive draws) are derived child
seeds, so a config replays bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from .data import CLASSIFICATION, Dataset, load_csv, split, synth_classification
from .errors import ConfigError
from .mlp import MlpConfig
from .posterior import OptimConfig
from .rng import child_seed

# child-stream indices hung off the config seed
SEED_DATA = 0
SEED_INIT = 1
SEED_OPTIM = 2
SEED_SPLIT = 3
SEED_PREDICTIVE = 4

RUN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["task", "data", "model", "method", "optimizer", "out_dir", "seed"],
    "properties": {
        "task": {"enum": ["classification", "regression"]},
        "data": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "synth": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["name", "n"],
                    "properties": {
                        "name": {"enum": ["two_moons", "gaussian_blobs"]},
                        "n": {"type": "integer", "minimum": 2},
                        "noise": {"type": "number", "minimum": 0},
                        "classes": {"type": "integer", "minimum": 2},
                    },
                },
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
        "split": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 3,
            "maxItems": 3,
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["hidden_widths"],
            "properties": {
                "hidden_widths": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "activation": {"enum": ["tanh", "relu"]},
            },
        },
        "method": {"enum": ["map", "ensemble", "swag", "laplace", "advi"]},
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "algorithm": {"enum": ["adam", "sgd"]},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "epochs": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "weight_decay": {"type": "number", "minimum": 0},
            },
        },
        "method_params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "members": {"type": "integer", "minimum": 2},
                "rank": {"type": "integer", "minimum": 1},
                "snapshot_every": {"type": "integer", "minimum": 1},
                "swag_epochs": {"type": "integer", "minimum": 1},
                "mc_samples": {"type": "integer", "minimum": 1},
                "prior_precision": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "calibration": {"type": "boolean"},
        "temperature_method": {"enum": ["golden", "adam"]},
        "bins": {"type": "integer", "minimum": 1},
        "predictive_samples": {"type": "integer", "minimum": 1},
        "out_dir": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 3,
        },
    },
}

# desk-scale default; 300 epochs reproduces the documented fidelity preset
DEFAULT_EPOCHS = 50

_OPTIM_DEFAULTS = {
    "algorithm": "adam",
    "learning_rate": 1e-3,
    "epochs": DEFAULT_EPOCHS,
    "batch_size": 32,
    "weight_decay": 1e-4,
}

_METHOD_DEFAULTS = {
    "members": 5,
    "rank": 20,
    "snapshot_every": None,  # once per epoch
    "swag_epochs": None,  # same as optimizer epochs
    "mc_samples": 1,
    "prior_precision": 1.0,
}


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
    temperature_method: str
    predictive_samples: int | None
    method_params: dict
    seeds: tuple[int, ...] = field(default_factory=tuple)

    def optimizer(self) -> OptimConfig:
        merged = dict(_OPTIM_DEFAULTS)
        merged.update(self.raw.get("optimizer", {}))
        return OptimConfig(seed=child_seed(self.seed, SEED_OPTIM), **merged)

    def load_dataset(self, seed: int | None = None) -> Dataset:
        seed = self.seed if seed is None else seed
        data = self.raw["data"]
        if "synth" in data:
            if self.task != CLASSIFICATION:
                raise ConfigError(
                    ["synthetic generators produce classification data only"]
                )
            spec = data["synth"]
            return synth_classification(
                spec["name"],
                spec["n"],
                spec.get("noise", 0.1),
                seed=child_seed(seed, SEED_DATA),
                n_classes=spec.get("classes", 3),
            )
        spec = data["csv"]
        return load_csv(spec["path"], self.task, spec["target_column"])

    def model_config(self, dataset: Dataset, seed: int | None = None) -> MlpConfig:
        seed = self.seed if seed is None else seed
        model = self.raw["model"]
        if self.task == CLASSIFICATION:
            # class count is inferred (max label + 1) unless overridden
            output_dim = dataset.n_classes
            override = self.raw["data"].get("csv", {}).get("classes")
            if override is not None:
                if override < dataset.n_classes:
                    raise ConfigError(
                        [
                            f"data/csv/classes = {override} is below the "
                            f"largest label + 1 = {dataset.n_classes}"
                        ]
                    )
                output_dim = override
        else:
            output_dim = 2  # mean and log-variance head
        return MlpConfig(
            input_dim=dataset.d,
            hidden_widths=tuple(model["hidden_widths"]),
            output_dim=output_dim,
            activation=model.get("activation", "tanh"),
            init_seed=child_seed(seed, SEED_INIT),
        )

    def split_dataset(self, dataset: Dataset, seed: int | None = None):
        seed = self.seed if seed is None else seed
        return split(dataset, self.split_fractions, child_seed(seed, SEED_SPLIT))


def validate_config(doc: dict, require_seeds: bool = False) -> list[str]:
    """All schema violations at once, as "at <path>: <message>" strings."""
    validator = jsonschema.Draft202012Validator(RUN_SCHEMA)
    messages = []
    for err in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path)):
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        messages.append(f"at {where}: {err.message}")
    if require_seeds and isinstance(doc, dict) and "seeds" not in doc:
        messages.append("at <root>: benchmark configs need a 'seeds' list (>= 3)")
    return messages


def parse_config(doc: dict, require_seeds: bool = False) -> RunConfig:
    messages = validate_config(doc, require_seeds=require_seeds)
    if messages:
        raise ConfigError(messages)
    params = dict(_METHOD_DEFAULTS)
    params.update(doc.get("method_params", {}))
    return RunConfig(
        raw=doc,
        task=doc["task"],
        method=doc["method"],
        out_dir=Path(doc["out_dir"]),
        seed=int(doc["seed"]),
        split_fractions=tuple(doc.get("split", [0.7, 0.15, 0.15])),
        bins=int(doc.get("bins", 15)),
        calibration=bool(doc.get("calibration", True)),
        temperature_method=doc.get("temperature_method", "golden"),
        predictive_samples=doc.get("predictive_samples"),
        method_params=params,
        seeds=tuple(doc.get("seeds", ())),
    )


def load_config(path, require_seeds: bool = False) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"no such config file: {path}"])
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a JSON object"])
    return parse_config(doc, require_seeds=require_seeds)
