"""File-backed datasets, seeded splits, and mini-batch iteration.

CSV dialect is a strict RFC-4180 subset: comma separator, one header row,
UTF-8 (a leading byte-order mark is skipped), decimal points only
(scientific notation accepted). Floats are written with 17 significant
digits so write/load round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import json
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


def _parse_float(cell: str, path, line: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"{path}: unparsable cell {cell!r} at row {line}, column {column}"
        ) from None


def class_labels(values: np.ndarray, path) -> np.ndarray:
    """The one class-label rule: each value integral (``2`` or ``2.0``),
    finite and nonnegative. Returns int64 labels; a breach is a
    ``DataError`` naming the file and the data row (1 = first after the
    header)."""
    bad = ~(np.isfinite(values) & (values == np.round(values)) & (values >= 0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DataError(
            f"{path}: class label {format(values[i], '.17g')} in data row {i + 1} "
            "is not a nonnegative integer"
        )
    return values.astype(np.int64)


def load_csv(path, task: str, target_column: str) -> Dataset:
    """Load a dataset from CSV; all non-target columns become features.

    A non-finite feature or regression-target cell is a ``DataError``
    naming the file, the data row and the column."""
    matrix, header = read_matrix_csv(path)
    if target_column not in header:
        raise DataError(
            f"missing target column {target_column!r} in {path} "
            f"(have: {', '.join(header)})"
        )
    t = header.index(target_column)
    values = matrix[:, t]
    inputs = np.delete(matrix, t, axis=1)
    feature_names = tuple(h for i, h in enumerate(header) if i != t)
    if task == CLASSIFICATION:
        check_finite_cells(path, inputs, feature_names)
        targets = class_labels(values, path)
    else:
        check_finite_cells(path, matrix, header)
        targets = values.copy()
    return Dataset(inputs=inputs, targets=targets, task=task, feature_names=feature_names)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the same dialect :func:`load_csv` reads, the
    targets last in a column named ``target``."""
    write_matrix_csv(
        path,
        np.column_stack([ds.inputs, ds.targets]),
        list(ds.feature_names) + ["target"],
    )


def check_split_fractions(fractions) -> list[float]:
    """[train, calib, test] fractions as floats: three, positive, summing to 1."""
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3:
        raise ValueError("fractions must be [train, calib, test]")
    if any(f <= 0 for f in fractions):
        raise ValueError("fractions must all be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)!r}")
    return fractions


def split(ds: Dataset, fractions, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded (train, calibration, test) split.

    Sizes are floor allocations of the fractions; remainder rows go to the
    training partition.
    """
    fractions = check_split_fractions(fractions)
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


def batches(ds: Dataset, batch_size: int, shuffle_seed: int, epoch: int):
    """A generator of (inputs, targets) mini-batches for one epoch;
    ``batch_size`` is checked when called.

    The row permutation is keyed by (shuffle_seed, epoch), so any epoch
    replays exactly and concatenating the batches reproduces the permuted
    dataset.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    perm = Rng(child_seed(shuffle_seed, epoch)).permutation(ds.n)
    chunks = (perm[start : start + batch_size] for start in range(0, ds.n, batch_size))
    return ((ds.inputs[idx], ds.targets[idx]) for idx in chunks)


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


# --- the one CSV reader, the one CSV writer and the one JSON writer ----------

# A "plain" body (everything after the header line) holds only these bytes;
# numpy's C parser then reads it exactly as ``float`` reads each cell.
_PLAIN_BYTES = b"0123456789.eE+-,\r\n"
_SCAN_BYTES = 1 << 16
# rows per ``%`` operation when formatting a numeric body
_WRITE_BLOCK_ROWS = 1024


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read an all-float CSV with header into (matrix, column names).

    A plain body is parsed by ``np.loadtxt``; any other file, and any file
    ``loadtxt`` rejects, goes through the Python reader, which gives the
    same matrix and is the source of every error message."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    return _read_csv_plain(path) or _read_csv_python(path)


def _read_csv_plain(path: Path) -> tuple[np.ndarray, list[str]] | None:
    """The C-speed read, or None when the file is not plain or ``loadtxt``
    fails on it. The header line must end in a newline and hold no quote
    and no bare carriage return; the body is checked in chunks, so memory
    stays at the matrix's size."""
    with path.open("rb") as fh:
        head = fh.readline()
        if not head.endswith(b"\n") or b'"' in head or b"\r" in head[:-2]:
            return None
        non_blank = False
        while chunk := fh.read(_SCAN_BYTES):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            non_blank = non_blank or bool(chunk.translate(None, b"\r\n"))
        if not non_blank:
            return None
        try:
            header = [h.strip() for h in next(csv.reader([head.decode("utf-8-sig")]))]
        except UnicodeDecodeError:
            return None
        fh.seek(len(head))
        try:
            matrix = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if matrix.shape[1] != len(header):
        return None
    return matrix, header


def _read_csv_python(path: Path) -> tuple[np.ndarray, list[str]]:
    """The exact reader: any text ``float`` accepts, one ``DataError`` per
    fault."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
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
                        f"{path}: row {line_no} has {len(row)} cells, "
                        f"expected {len(header)}"
                    )
                rows.append(
                    [_parse_float(c, path, line_no, header[i]) for i, c in enumerate(row)]
                )
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    if not rows:
        raise DataError(f"no data rows in {path}")
    return np.asarray(rows, dtype=np.float64), header


def check_finite_cells(path, matrix: np.ndarray, header) -> None:
    """A ``DataError`` naming the file, the data row (1 = first after the
    header) and the column of the first non-finite cell, if any."""
    bad = ~np.isfinite(matrix)
    if np.any(bad):
        row, col = np.argwhere(bad)[0]
        raise DataError(
            f"{path}: non-finite cell {format(matrix[row, col], '.17g')} "
            f"in data row {row + 1}, column {header[col]}"
        )


def write_matrix_csv(path, matrix, header: list[str]) -> None:
    """Write a matrix with header, making the file's missing parent
    directories first. Numeric cells get 17 significant digits, so a read
    round-trips bit-exactly; a string matrix is written as is.

    A numeric body is formatted one block of rows per ``%`` operation, the
    bytes ``csv.writer`` writes for the same cells."""
    matrix = np.asarray(matrix)
    strings = matrix.dtype.kind == "U"
    if not strings:
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.shape[1] != len(header):
        raise ValueError("header length must match the number of columns")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if strings:
            writer.writerows(matrix.tolist())
            return
        row = ",".join(["%.17g"] * matrix.shape[1]) + "\r\n"
        for start in range(0, matrix.shape[0], _WRITE_BLOCK_ROWS):
            block = matrix[start : start + _WRITE_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def json_text(doc) -> str:
    """The JSON text of every report and artefact: sorted keys, a two-space
    indent and a final newline. A non-finite number, which standard JSON
    cannot hold, is a ``ValueError``."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, doc) -> None:
    """Write ``json_text(doc)``, making missing parent directories first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(doc), encoding="utf-8")
