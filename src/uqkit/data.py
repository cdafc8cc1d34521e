"""File-backed datasets, seeded splits, and mini-batch iteration.

CSV dialect is a strict RFC-4180 subset: comma separator, one header row,
UTF-8 (a leading byte-order mark is skipped), decimal points only
(scientific notation accepted). Floats are written with 17 significant
digits so write/load round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidSplitError
from .numerics import check_labels
from .rng import Rng, child_seed, permutations

CLASSIFICATION = "classification"
REGRESSION = "regression"

# the schema fragment of each setting read here: the config schema holds
# them, and the library checks its arguments with them (``check_value``)
TASK_SCHEMA = {"enum": [CLASSIFICATION, REGRESSION]}
SPLIT_SCHEMA = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 3, "maxItems": 3}
BATCH_SIZE_SCHEMA = {"type": "integer", "minimum": 1}
SYNTH_SCHEMA = {
    "type": "object", "additionalProperties": False, "required": ["name", "n"],
    "properties": {
        "name": {"enum": ["two_moons", "gaussian_blobs"]},
        "n": {"type": "integer", "minimum": 2},
        "noise": {"type": "number", "minimum": 0},
        "classes": {"type": "integer", "minimum": 2},
    },
}


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
        check_value(TASK_SCHEMA, self.task, ("task",))
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError("inputs must be a non-empty 2-D matrix")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("targets length must match the number of rows")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite entries")
        if self.task == CLASSIFICATION:
            if self.targets.dtype != np.int64:
                raise ValueError("classification targets must be int64")
            check_labels(self.targets)
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


def class_labels(values: np.ndarray, path, n_classes: int | None = None) -> np.ndarray:
    """``check_labels`` on a file's label column; a breach is a ``DataError``
    naming the file and the data row (1 = first after the header)."""
    try:
        return check_labels(values, n_classes, name="data")
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


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
    feature_names = tuple(h for i, h in enumerate(header) if i != t)
    if task == REGRESSION:
        check_finite_cells(path, matrix, header)
    targets = matrix[:, t].copy()
    inputs = _drop_column(matrix, t)
    if task == CLASSIFICATION:
        check_finite_cells(path, inputs, feature_names)
        targets = class_labels(targets, path)
    return Dataset(inputs=inputs, targets=targets, task=task, feature_names=feature_names)


def _drop_column(matrix: np.ndarray, t: int) -> np.ndarray:
    """``np.delete(matrix, t, axis=1)`` made in ``matrix``'s own buffer,
    which it takes over: the kept cells move forward a block of rows at a
    time and the buffer then shrinks to them, so no second matrix is
    alive. ``matrix`` must own its C-ordered data, as a parsed one does."""
    n, c = matrix.shape
    flat = matrix.reshape(-1)
    for lo in range(0, n, _BLOCK_ROWS):
        block = np.delete(matrix[lo : lo + _BLOCK_ROWS], t, axis=1)
        flat[lo * (c - 1) : lo * (c - 1) + block.size] = block.ravel()
    del flat  # no view of the buffer is left, so it may move as it shrinks
    matrix.resize((n, c - 1), refcheck=False)
    return matrix


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the same dialect :func:`load_csv` reads, the
    targets last in a column named ``target``."""
    write_matrix_csv(
        path,
        np.column_stack([ds.inputs, ds.targets]),
        list(ds.feature_names) + ["target"],
    )


def check_split_fractions(fractions) -> list[float]:
    """[train, calib, test] fractions as floats: ``SPLIT_SCHEMA``'s, summing to 1."""
    fractions = list(fractions)
    check_value(SPLIT_SCHEMA, fractions, ("fractions",))
    fractions = [float(f) for f in fractions]
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


_PERM_DRAWS = 1 << 14  # permutation indices per rng.permutations call in batches


def batches(datasets: list[Dataset], batch_size: int, seeds: list[int], epochs: int):
    """A generator of lockstep mini-batches for lanes s = 0..S-1 over
    ``epochs`` epochs: one ``(inputs, targets)`` pair per step, shaped
    ``(S, b, d)`` and ``(S, b)``, row s from ``datasets[s]``.
    ``batch_size`` is checked at the first step.

    Lane s's rows in epoch e are permuted by the stream
    ``Rng(child_seed(seeds[s], e))``, so any epoch replays exactly and a
    lane's batches of an epoch, concatenated, are its permuted dataset.
    The permutations of every lane for a block of ``max(1, _PERM_DRAWS //
    (n S))`` epochs come from one stream pass (``rng.permutations``, over
    the streams in (epoch, lane) order). Each epoch takes its permuted
    rows, lane by lane, into one input and one target buffer that every
    epoch reuses. A batch is a view of them, valid until the next epoch's
    first step."""
    check_value(BATCH_SIZE_SCHEMA, batch_size, ("batch_size",))
    n = datasets[0].n
    inputs = np.empty((len(datasets), n, datasets[0].d))
    targets = np.empty((len(datasets), n), dtype=datasets[0].targets.dtype)
    block = max(1, _PERM_DRAWS // (n * len(seeds)))
    for first in range(0, epochs, block):
        span = range(first, min(first + block, epochs))
        perms = permutations([Rng(child_seed(seed, e)) for e in span for seed in seeds], n)
        for lanes in perms.reshape(len(span), len(seeds), n):
            for ds, perm, x, y in zip(datasets, lanes, inputs, targets):
                x[:] = ds.inputs[perm]
                y[:] = ds.targets[perm]
            for start in range(0, n, batch_size):
                yield inputs[:, start : start + batch_size], targets[:, start : start + batch_size]


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
    check_value(SYNTH_SCHEMA, {"name": name, "n": n, "noise": noise, "classes": n_classes})
    rng = Rng(seed)
    if name == "two_moons":
        n0 = n // 2
        arcs = [np.pi * np.arange(k) / max(k - 1, 1) for k in (n0, n - n0)]
        inputs = np.column_stack([
            np.concatenate([np.cos(arcs[0]), 1.0 - np.cos(arcs[1])]),
            np.concatenate([np.sin(arcs[0]), 0.5 - np.sin(arcs[1])]),
        ])
        if noise > 0:
            inputs += noise * rng.normals(2 * n).reshape(n, 2)
        targets = (np.arange(n) >= n0).astype(np.int64)
    else:  # gaussian_blobs
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers = _BLOB_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        targets = np.arange(n, dtype=np.int64) % n_classes
        inputs = centers[targets] + noise * rng.normals(2 * n).reshape(n, 2)
    return Dataset(
        inputs=inputs, targets=targets, task=CLASSIFICATION, feature_names=("x0", "x1")
    )


# --- the one CSV reader and writer, and the one JSON reader and writer --------

# A "plain" body (everything after the header line) holds only these bytes;
# ``_parse_rows`` then reads each cell bit for bit as ``float`` does.
_PLAIN_BYTES = b"0123456789.eE+-,\r\n"
# bytes per chunk of the plain-byte scan and per block of the parse
_SCAN_BYTES = 1 << 17
# rows per block when formatting a numeric body (``_format_cells``) or
# moving a parsed file's input columns
_BLOCK_ROWS = 1024
# a plain block as ``np.fromstring`` reads it: dots and CRs deleted, exponent
# markers and line feeds made commas, so a cell gives its digits as one
# integer and its exponent, if any, as the next
_INTEGERS = bytes.maketrans(b"eE\n", b",,,")
# the type of the one rounded multiply or divide per cell, an IEEE-rounded one
_WIDE = np.longdouble


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read an all-float CSV with header into (matrix, column names).

    The file is opened once. A plain body is parsed a block at a time by
    ``_parse_rows``; any other file, any plain body it rejects, and any
    stream that cannot seek (a pipe or FIFO) goes through the Python reader
    on the same handle, which gives the same matrix and is the source of
    every error message."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open("rb") as fh:
        return _read_csv_plain(fh) or _read_csv_python(path, fh)


def _read_csv_plain(fh) -> tuple[np.ndarray, list[str]] | None:
    """The fast read of a binary handle at its start, or None when the handle
    cannot seek (before any byte is read), the file is not plain,
    ``_parse_rows`` rejects it or it holds no row. The header line must end
    in a newline and hold no quote and no bare carriage return. The scan
    counts the lines, so the matrix is allocated once; blank lines shrink it
    in place."""
    if not fh.seekable():
        return None
    head = fh.readline()
    if not head.endswith(b"\n") or b'"' in head or b"\r" in head[:-2]:
        return None
    lines, last = 0, b"\n"
    while chunk := fh.read(_SCAN_BYTES):
        if chunk.translate(None, _PLAIN_BYTES):
            return None
        lines, last = lines + chunk.count(b"\n"), chunk[-1:]
    try:
        header = [h.strip() for h in next(csv.reader([head.decode("utf-8-sig")]))]
    except UnicodeDecodeError:
        return None
    if not header:
        return None
    fh.seek(len(head))
    matrix, rows = np.empty((lines + (last != b"\n"), len(header))), 0
    bits = np.finfo(_WIDE).nmant + 1  # significand bits: 64 on x87, 53 in float64
    # 10**0..10**L, each exact in ``_WIDE`` (L = 27 on x87, 22 in float64)
    powers = np.cumprod([_WIDE(1)] + [_WIDE(10)] * max(e for e in range(64) if 5**e < 2**bits))
    for block in _line_blocks(fh):
        values = _parse_rows(block, len(header), min(10**18, 2**bits), powers)
        if values is None:
            return None
        matrix[rows : rows + len(values)] = values
        rows += len(values)
    if not rows:
        return None
    matrix.resize((rows, len(header)), refcheck=False)
    return matrix, header


def _line_blocks(fh):
    """The rest of ``fh`` in blocks of whole lines of about ``_SCAN_BYTES``,
    each ending in a line feed (added to a last line that has none)."""
    while block := fh.read(_SCAN_BYTES):
        cut = block.rfind(b"\n") + 1
        if not cut:  # a line longer than a block
            block += fh.readline()
        elif cut < len(block):  # the last line starts the next block
            fh.seek(cut - len(block), io.SEEK_CUR)
            block = block[:cut]
        yield block if block.endswith(b"\n") else block + b"\n"


def _among(a: np.ndarray, chars: bytes) -> np.ndarray:
    """Which of the bytes ``a`` are among ``chars``."""
    hit = a == chars[0]
    for c in chars[1:]:
        hit |= a == c
    return hit


def _parse_rows(block: bytes, k: int, bound: int, powers: np.ndarray) -> np.ndarray | None:
    """The ``(rows, k)`` matrix of a block of whole plain lines, or None when
    ``_cells`` rejects it with its blank lines dropped. A cell of digits m
    below ``bound`` and exponent E within ``powers`` is m * 10**E in one
    ``_WIDE`` operation, then rounded to float64: ``float(cell)`` (Clinger,
    PLDI 1990) unless the ``_WIDE`` value sits on a float64 midpoint, where
    rounding twice can differ. ``float`` reads the other cells."""
    cells = _cells(block, k)
    if cells is None:
        # blank lines, which the csv module skips, are the one fault mended
        lines = re.sub(rb"(\r?\n)+", b"\n", block).lstrip(b"\n")
        return None if lines == block else _parse_rows(lines, k, bound, powers)
    starts, stops, marked, e = cells
    ints = np.fromstring(block.translate(_INTEGERS, b".\r"), dtype=np.int64, sep=",")
    exponents = marked + np.arange(marked.size) + 1  # their places in ``ints``
    e[marked] += ints[exponents]  # an int64 wrap lands far outside ``powers``
    m = np.delete(ints, exponents)  # 2**63 - 1 where saturated, as an exponent may be
    del ints
    fast = (m < bound) & (m > -bound) & (e < powers.size) & (e > -powers.size)
    wide = powers[np.where(fast, np.abs(e), 0)]
    np.multiply(m, wide, out=wide, where=e >= 0)
    np.divide(m, wide, out=wide, where=e < 0)
    values = wide.astype(np.float64)
    # on a midpoint the rounding error is half the step to the next float64,
    # so twice the error, added, reaches it exactly
    error = np.subtract(wide, values, out=wide).astype(np.float64)
    del wide
    slow = np.flatnonzero(~fast | (error != 0) & ((values + 2 * error) - values == 2 * error))
    values[slow] = [float(block[s:t]) for s, t in zip(starts[slow].tolist(), stops[slow].tolist())]
    values[(m == 0) & (np.frombuffer(block, np.uint8)[starts] == ord("-"))] = -0.0
    return values.reshape(-1, k)


def _cells(block: bytes, k: int):
    """(starts, stops, the cells with an exponent, the exponent each cell's
    dot makes: minus the digits after it) of ``block``; or None unless each
    line ends in LF or CRLF and holds k cells, each ``[+-]?`` digits with at
    most one dot and at least one digit, then optionally ``[eE][+-]?`` and
    digits."""
    a = np.frombuffer(block, np.uint8)
    at = np.flatnonzero(a - ord("0") > 9)  # every byte but the digits
    kind = a[at]
    is_end = _among(kind, b",\n")
    cell = np.cumsum(is_end)  # at a byte that ends no cell, the cell it is in
    mark_at, dot_at = np.flatnonzero(_among(kind, b"eE")), np.flatnonzero(kind == ord("."))
    ends, marks, dots = at[np.flatnonzero(is_end)], at[mark_at], at[dot_at]
    marked, dotted, line_end = cell[mark_at], cell[dot_at], a[ends] == ord("\n")
    before_sign = a[at[np.flatnonzero(_among(kind, b"+-"))] - 1]  # a[-1]: the last line feed
    after_cr = a[at[np.flatnonzero(kind == ord("\r"))] + 1]
    del at, kind, is_end, cell, mark_at, dot_at
    starts = ends + 1 - np.diff(ends, prepend=-1)
    stops = ends - (a[ends - 1] == ord("\r"))
    mantissa_end = stops.copy()
    mantissa_end[marked] = marks
    digits = mantissa_end - starts - _among(a[starts], b"+-")
    digits[dotted] -= 1
    if (
        not np.array_equal(line_end, np.arange(ends.size) % k == k - 1)  # k cells a line
        or (after_cr != ord("\n")).any()
        or not (np.diff(marked).all() and np.diff(dotted).all())
        or (dots > mantissa_end[dotted]).any()
        or not _among(before_sign, b",\neE").all()  # a sign opens its cell or exponent
        or (digits < 1).any()
        or (stops[marked] - marks - _among(a[marks + 1], b"+-") < 2).any()
    ):
        return None
    shift = np.zeros(ends.size, np.int64)
    shift[dotted] = dots + 1 - mantissa_end[dotted]
    return starts, stops, marked, shift


def _read_csv_python(path, fh) -> tuple[np.ndarray, list[str]]:
    """The exact reader of ``path``'s binary handle ``fh``, from the start
    when it can seek, closing it: any text ``float`` accepts, one
    ``DataError`` per fault."""
    if fh.seekable():
        fh.seek(0)
    try:
        with io.TextIOWrapper(fh, encoding="utf-8-sig", newline="") as text:
            reader = csv.reader(text)
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


@contextmanager
def _open_csv(path, header: list[str]):
    """``path`` open for a CSV with its header row written, after making
    the file's missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        yield fh


def write_matrix_csv(path, matrix, header: list[str]) -> None:
    """Write a numeric matrix with header through ``write_blocks_csv``, a
    block of rows at a time."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.shape[1] != len(header):
        raise ValueError("header length must match the number of columns")
    rows = range(0, matrix.shape[0], _BLOCK_ROWS)
    write_blocks_csv(path, (matrix[r : r + _BLOCK_ROWS] for r in rows), header)


def write_blocks_csv(path, blocks, header: list[str]) -> None:
    """Write numeric blocks of rows with header, making the file's missing
    parent directories first. Each block is formatted by ``_format_cells``
    as it comes: every cell is ``'%.17g' % x``, so a read round-trips
    bit-exactly, and the bytes are those ``csv.writer`` writes for the same
    cells. A caller can so compute a large body a block at a time, and the
    formatter's temporaries stay near one block in size."""
    with _open_csv(path, header) as fh:
        for block in blocks:
            if block.shape[1] != len(header):
                raise ValueError("header length must match the number of columns")
            fh.write(_format_cells(np.asarray(block, dtype=np.float64)))


class _Echo:
    """A file whose ``write`` returns the text it is given, so a
    ``csv.writer`` on it returns each row's line."""

    def write(self, text: str) -> str:
        return text


def write_text_csv(path, blocks, header: list[str]) -> None:
    """Write blocks of text rows with header, each row as ``csv.writer``
    writes it, making the file's missing parent directories first. A block
    is a pair (rows, index): its distinct rows, each rendered once, and the
    row each of its lines repeats, by position in ``rows``. ``blocks`` may
    be any iterable, a generator say, each block written as it comes."""
    line = csv.writer(_Echo()).writerow
    with _open_csv(path, header) as fh:
        for rows, index in blocks:
            fh.write("".join(np.array([line(row) for row in rows], dtype=object)[index]))


# --- '%.17g' cells by array ops -------------------------------------------------

# each cell's text lies NUL-padded in a slot of this many bytes, its
# separator ("," or CRLF) in the slot's last bytes; '%.17g' takes at most 24
_SLOT = 26
# 10**j for j from ``_POWERS_FROM`` to 330, each correctly rounded in
# ``_WIDE`` by strtold (those past float64's range are inf where ``_WIDE``
# is float64, and every cell then falls back)
_POWERS_FROM = -300
_POWERS = np.array([f"1e{j}" for j in range(_POWERS_FROM, 331)], dtype=_WIDE)
# the relative error of y = |x| 10**j in ``_WIDE``: two roundings of half an
# ulp at most (strtold's of the power and the product's), with slack for
# their product and for the float64 rounding of the bound made from it
_ROUNDING = 2.000001 * 2.0 ** -(np.finfo(_WIDE).nmant + 1)
_BYTES = np.uint64(0x0101010101010101)  # a one in each byte of a word


def _digits8(v: np.ndarray) -> np.ndarray:
    """Words (uint64) whose bytes, lowest first, are the 8 decimal digits
    (0-9) of each v < 10**8: halves, quarters, then digits, by exact
    multiply-shift quotients (v * 10486 >> 20 is v // 100 below 10**4, and
    v * 103 >> 10 is v // 10 below 100) in every lane at once."""
    q = v // 10000
    v = q | (v - q * 10000) << 32
    q = (v * 10486 >> 20) & 0x0000007F0000007F
    v = q | (v - q * 100) << 16
    q = (v * 103 >> 10) & 0x000F000F000F000F
    return q | (v - q * 10) << 8


def _kept(words: np.ndarray) -> np.ndarray:
    """0xFF in each byte of a word of digits (0-9) up to its last nonzero
    byte, 0 in the trailing zeros after it."""
    marks = ((words + 0x7F * _BYTES) | words) & (0x80 * _BYTES)  # bit 7 of each nonzero byte
    for shift in (8, 16, 32):
        marks |= marks >> shift
    return (marks >> 7) * 0xFF


def _rounded(x: np.ndarray):
    """(D, k, fast) per cell x: k = floor(log10 |x|), and D = |x| 10**(16 - k)
    rounded to an integer in [1e16, 1e17), k grown by one where it rounds
    up to 1e17; ``fast`` where that D is exact. y = |x| 10**(16 - k) is made
    in ``_WIDE`` from a correctly rounded power of ten, then moved into
    [1e16, 1e17) where log10 was one off. D is exact unless x is
    non-finite or below 1e-300, or y's fraction lies within the rounding
    bound of a half, as every tie does. A zero (either sign) has D = 0 and
    k = 0, its one digit the 0 of ``'%.17g'``."""
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-300) & (a < np.inf)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    wide = a.astype(_WIDE)
    with np.errstate(over="ignore", invalid="ignore"):  # where ``_WIDE`` has no range for y
        y = wide * _POWERS[16 - k - _POWERS_FROM]
        d = y.astype(np.uint64)
        off = (d >= 10**17).astype(np.int64) - (d < 10**16)
        if off.any():
            at = np.flatnonzero(off)
            k[at] += off[at]
            y[at] = wide[at] * _POWERS[16 - k[at] - _POWERS_FROM]
            d[at] = y[at].astype(np.uint64)
        frac = (y - d).astype(np.float64)
    fast &= (y >= 10**16) & (y < 10**17) & (np.abs(frac - 0.5) >= (d + 1.0) * _ROUNDING)
    d += frac > 0.5
    top = d == 10**17
    d[top] = 10**16
    d[zero] = 0
    return d, k + top, fast | zero


def _digit_bytes(d: np.ndarray) -> np.ndarray:
    """The 17 digits of each D in [1e16, 1e17) as ASCII bytes, one row per D,
    with its trailing zeros NUL (D = 0 gives a lone 0): the first digit is
    byte 7 of a word and the others fill two more, little-endian on any
    host."""
    first = d // 10**16
    rest = d - first * 10**16
    high = rest // 10**8
    low, high = _digits8(rest - high * 10**8), _digits8(high)
    kept = _kept(low)
    words = np.empty((d.size, 3), "<u8")
    words[:, 0] = (first + ord("0")) << 56
    words[:, 1] = (high + ord("0") * _BYTES) & np.where(kept != 0, ~np.uint64(0), _kept(high))
    words[:, 2] = (low + ord("0") * _BYTES) & kept
    return words.view(np.uint8)[:, 7:]


def _format_cells(block: np.ndarray) -> str:
    """The CSV lines of a float64 block: each cell ``'%.17g' % x``, the
    cells of a row joined by commas and each row ended by CRLF.

    A cell that ``_rounded`` makes exact is laid out from its D and k as
    ``%g`` lays them out: fixed notation for -4 <= k < 17, else exponent
    notation (e±dd or e±ddd), trailing zeros and a bare point dropped.
    ``%`` formats the other cells. Each cell's text fills a NUL-padded slot;
    the slots are filled one layout group (k = -4..16, or the exponent
    form) at a time, in group order, then put back in cell order, and the
    block's text is every byte of them but the NULs."""
    rows, cols = block.shape
    x = block.ravel()
    d, k, fast = _rounded(x)
    group = np.where((k >= -4) & (k < 17), k + 4, 21).astype(np.uint8)
    order = np.argsort(group, kind="stable")
    k, digits = k[order], _digit_bytes(d[order])
    del d
    slots = np.zeros((x.size, _SLOT), np.uint8)
    slots[:, 0] = np.signbit(x[order]) * np.uint8(ord("-"))
    start = 0
    for g, count in enumerate(np.bincount(group, minlength=22).tolist()):
        s, start = slice(start, start + count), start + count
        if not count:
            continue
        if g < 4:  # 0.ddd, 0.0ddd, 0.00ddd or 0.000ddd
            slots[s, 1 : 6 - g] = np.frombuffer(b"0.000"[: 5 - g], np.uint8)
            slots[s, 6 - g : 23 - g] = digits[s]
            continue
        p = g - 4 if g < 21 else 0  # digits before the point, less one
        slots[s, 1 : p + 2] = digits[s, : p + 1] | ord("0")  # whole digits keep their zeros
        if p < 16:  # a point only before a kept digit
            slots[s, p + 2] = (digits[s, p + 1] != 0) * np.uint8(ord("."))
            slots[s, p + 3 : 19] = digits[s, p + 1 :]
        if g == 21:
            e = k[s]
            slots[s, 19] = ord("e")
            slots[s, 20] = np.where(e < 0, ord("-"), ord("+"))
            e = np.abs(e)
            slots[s, 21] = (e >= 100) * (e // 100 + ord("0"))
            slots[s, 22] = e // 10 % 10 + ord("0")
            slots[s, 23] = e % 10 + ord("0")
    del k, digits
    out = np.empty_like(slots)
    out.view(f"V{_SLOT}")[order] = slots.view(f"V{_SLOT}")
    del slots, order
    slow = np.flatnonzero(~fast)
    text = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype="S24")
    out[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    out = out.reshape(rows, cols, _SLOT)
    out[:, :-1, -1] = ord(",")
    out[:, -1, -2:] = np.frombuffer(b"\r\n", np.uint8)
    return out[out != 0].tobytes().decode("ascii")


def read_json(path, what: str) -> dict:
    """The JSON object in the ``what`` file (say, a config). No file, text that is not
    UTF-8 JSON and JSON that is not an object are each a ``DataError`` naming the file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such {what} file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSON text is UTF-8, so a decode error is one of its faults
        raise DataError(f"{what} is not valid JSON: {path} ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{what} must be a JSON object: {path} holds a {type(doc).__name__}")
    return doc


# each JSON Schema type as the Python type holding it, numpy scalars included
# for library arguments; a bool is no number, so an integer is neither 2.0 nor True
_TYPES = {
    "object": dict, "array": list, "string": str, "boolean": bool,
    "integer": numbers.Integral, "number": numbers.Real,
}


def schema_faults(schema: dict, value, path: tuple = ()):
    """(path, message) per way ``value`` breaks ``schema``, for the keywords
    the config and state schemas use; a schema with an object, array or number
    keyword names its type. ``additionalProperties`` may be a schema or a bool."""
    kind = schema.get("type")
    if kind is not None and (
        not isinstance(value, _TYPES[kind]) or kind != "boolean" and isinstance(value, bool)
    ):
        yield path, f"expected {kind}, got {value!r}"
        return
    if kind == "number" and not math.isfinite(value):
        yield path, f"expected a finite number, got {value!r}"
        return
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if "minimum" in schema and value < schema["minimum"]:
        yield path, f"{value!r} is below the minimum {schema['minimum']}"
    if "maximum" in schema and value > schema["maximum"]:
        yield path, f"{value!r} is above the maximum {schema['maximum']}"
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        yield path, f"{value!r} must be above {schema['exclusiveMinimum']}"
    if kind in ("object", "array"):
        low = schema.get("minProperties", schema.get("minItems", 0))
        high = schema.get("maxProperties", schema.get("maxItems", len(value)))
        if len(value) < low:
            yield path, f"needs at least {low} entries, got {len(value)}"
        if len(value) > high:
            yield path, f"allows at most {high} entries, got {len(value)}"
    if kind == "object":
        known, other = schema.get("properties", {}), schema.get("additionalProperties", True)
        for key in value:
            if key not in known and other is False:
                yield path, f"unknown key {key!r}"
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"missing required key {key!r}"
        for key, item in value.items():
            if isinstance(sub := known.get(key, other), dict):
                yield from schema_faults(sub, item, path + (key,))
    if kind == "array":
        for i, item in enumerate(value):
            yield from schema_faults(schema["items"], item, path + (i,))


def fault_lines(faults) -> list[str]:
    """One line "at <path>: <message>" per (path, message) fault, in path order."""
    faults = sorted(faults, key=lambda fault: fault[0])
    return [f"at {'/'.join(map(str, path)) or '<root>'}: {message}" for path, message in faults]


def check_value(schema: dict, value, path: tuple = ()) -> None:
    """A ``ValueError`` of the fault lines a config with ``value`` at ``path``
    gets, joined by "; ", if ``value`` breaks its setting's ``schema``."""
    if faults := fault_lines(schema_faults(schema, value, path)):
        raise ValueError("; ".join(faults))


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
