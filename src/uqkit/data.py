"""File-backed datasets, seeded splits, and mini-batch iteration.

CSV dialect is a strict RFC-4180 subset: comma separator, one header row,
UTF-8, decimal points only (scientific notation accepted). Floats are
written with 17 significant digits so write/load round-trips bit-exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidSplitError
from .rng import Rng, child_seed

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class Dataset:
    """Immutable tabular dataset.

    ``targets`` holds integer labels in [0, n_classes) for classification
    and floats for regression.
    """

    inputs: np.ndarray
    targets: np.ndarray
    task: str
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError("inputs must be a non-empty 2-D matrix")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("targets length must match the number of rows")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite entries")
        if self.task == CLASSIFICATION:
            if self.targets.dtype != np.int64 or (self.n and self.targets.min() < 0):
                raise ValueError("classification targets must be nonnegative int64")
        elif not np.all(np.isfinite(self.targets)):
            raise ValueError("regression targets contain non-finite entries")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_classes(self) -> int:
        """Inferred class count (max label + 1)."""
        if self.task != CLASSIFICATION:
            raise ValueError("n_classes is undefined for regression datasets")
        return int(self.targets.max()) + 1

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            inputs=self.inputs[indices].copy(),
            targets=self.targets[indices].copy(),
            task=self.task,
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class BatchPlan:
    batch_size: int
    shuffle_seed: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


def _parse_float(cell: str, line: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"unparsable cell {cell!r} at row {line}, column {column}"
        ) from None


def load_csv(path, task: str, target_column: str) -> Dataset:
    """Load a dataset from CSV; all non-target columns become features.

    Rows in error messages are 1-based file lines (the header is line 1).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        header = [h.strip() for h in header]
        if target_column not in header:
            raise DataError(
                f"missing target column {target_column!r} in {path} "
                f"(have: {', '.join(header)})"
            )
        target_idx = header.index(target_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != target_idx)
        rows, targets = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"row {line_no} has {len(row)} cells, expected {len(header)}"
                )
            feats = [
                _parse_float(cell, line_no, header[i])
                for i, cell in enumerate(row)
                if i != target_idx
            ]
            raw = row[target_idx]
            if task == CLASSIFICATION:
                try:
                    label = int(raw)
                except ValueError:
                    raise DataError(
                        f"unparsable cell {raw!r} at row {line_no}, "
                        f"column {target_column}"
                    ) from None
                if label < 0:
                    raise DataError(
                        f"negative class label at row {line_no}, column {target_column}"
                    )
                targets.append(label)
            else:
                targets.append(_parse_float(raw, line_no, target_column))
            rows.append(feats)
    if not rows:
        raise DataError(f"no data rows in {path}")
    inputs = np.asarray(rows, dtype=np.float64)
    if task == CLASSIFICATION:
        t = np.asarray(targets, dtype=np.int64)
    else:
        t = np.asarray(targets, dtype=np.float64)
    return Dataset(inputs=inputs, targets=t, task=task, feature_names=feature_names)


def save_csv(ds: Dataset, path, target_column: str = "target") -> None:
    """Write a dataset in the same dialect :func:`load_csv` reads."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [target_column])
        for i in range(ds.n):
            row = [format(v, ".17g") for v in ds.inputs[i]]
            if ds.task == CLASSIFICATION:
                row.append(str(int(ds.targets[i])))
            else:
                row.append(format(ds.targets[i], ".17g"))
            writer.writerow(row)


def split(ds: Dataset, fractions, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded (train, calibration, test) split.

    Sizes are floor allocations of the fractions; remainder rows go to the
    training partition.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3:
        raise ValueError("fractions must be [train, calib, test]")
    if any(f <= 0 for f in fractions):
        raise ValueError("fractions must all be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)!r}")
    n = ds.n
    sizes = [int(np.floor(f * n)) for f in fractions]
    sizes[0] += n - sum(sizes)
    if min(sizes) < 1:
        raise InvalidSplitError(
            f"split sizes {tuple(sizes)} leave an empty partition for n={n}"
        )
    perm = Rng(seed).permutation(n)
    a, b = sizes[0], sizes[0] + sizes[1]
    return ds.take(perm[:a]), ds.take(perm[a:b]), ds.take(perm[b:])


def batches(ds: Dataset, plan: BatchPlan, epoch: int):
    """Yield (inputs, targets) mini-batches for one epoch.

    The row permutation is keyed by (shuffle_seed, epoch), so any epoch
    replays exactly and concatenating the batches reproduces the permuted
    dataset.
    """
    perm = Rng(child_seed(plan.shuffle_seed, epoch)).permutation(ds.n)
    for start in range(0, ds.n, plan.batch_size):
        idx = perm[start : start + plan.batch_size]
        yield ds.inputs[idx], ds.targets[idx]


# fixed blob centers: equally spaced on a circle of radius 3
_BLOB_RADIUS = 3.0


def synth_classification(
    name: str, n: int, noise: float, seed: int, n_classes: int = 3
) -> Dataset:
    """Deterministic 2-D synthetic classification datasets.

    ``two_moons`` gives two interleaved half-circle arcs of radius 1 with
    binary labels; ``gaussian_blobs`` gives ``n_classes`` isotropic
    clusters with labels balanced within one count.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    rng = Rng(seed)
    if name == "two_moons":
        n0 = n // 2
        n1 = n - n0
        xs, ys = [], []
        for i in range(n0):
            t = np.pi * i / max(n0 - 1, 1)
            xs.append((np.cos(t), np.sin(t)))
            ys.append(0)
        for i in range(n1):
            t = np.pi * i / max(n1 - 1, 1)
            xs.append((1.0 - np.cos(t), 0.5 - np.sin(t)))
            ys.append(1)
        inputs = np.asarray(xs, dtype=np.float64)
        if noise > 0:
            inputs += noise * rng.normals(2 * n).reshape(n, 2)
        targets = np.asarray(ys, dtype=np.int64)
    elif name == "gaussian_blobs":
        if n_classes < 2:
            raise ValueError("gaussian_blobs needs at least 2 classes")
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers = _BLOB_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        targets = np.arange(n, dtype=np.int64) % n_classes
        inputs = centers[targets] + noise * rng.normals(2 * n).reshape(n, 2)
    else:
        raise ValueError(f"unknown synthetic generator {name!r}")
    return Dataset(
        inputs=inputs, targets=targets, task=CLASSIFICATION, feature_names=("x0", "x1")
    )


# --- generic CSV helpers used by the CLI ------------------------------------

def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read an all-float CSV with header into (matrix, column names)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"row {line_no} has {len(row)} cells, expected {len(header)}"
                )
            rows.append(
                [_parse_float(c, line_no, header[i]) for i, c in enumerate(row)]
            )
    if not rows:
        raise DataError(f"no data rows in {path}")
    return np.asarray(rows, dtype=np.float64), header


def write_matrix_csv(path, matrix: np.ndarray, header: list[str]) -> None:
    """Write a float matrix with header, 17 significant digits per cell."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.shape[1] != len(header):
        raise ValueError("header length must match the number of columns")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [format(v, ".17g") for v in row] for row in matrix.tolist()
        )
