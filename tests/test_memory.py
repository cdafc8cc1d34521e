"""Memory guards: the peak of ``evaluate --state`` grows with the rows'
inputs and outputs, not with draws x rows, an ADVI epoch's noise does not
grow with the training rows, ``read_matrix_csv`` holds the matrix and one
parse block, and ``load_csv`` splits a file's matrix in place. Peaks are
taken in-process under ``tracemalloc``; a child's ``ru_maxrss`` would not
do, since a child started from pytest inherits the parent's RSS
high-water mark on exec."""

import tracemalloc

import numpy as np
import pytest

from test_cli import run
from uqkit.data import CLASSIFICATION, Dataset, load_csv, read_matrix_csv, write_matrix_csv
from uqkit.mlp import MlpConfig, init_params, param_count
from uqkit.posterior import AdviState, OptimConfig, advi_fit, save_state
from uqkit.predictive import BLOCK_ROWS

# holding every draw's outputs for every row grew the peak by about 850
# bytes per row at these 20 draws (1.3 KB at 30); blocked, it grows by ~55
MAX_BYTES_PER_ROW = 200


@pytest.mark.parametrize("task, classes", [("regression", 2), ("classification", 3)])
def test_evaluate_state_peak_grows_with_the_rows_not_the_draws(tmp_path, capsys, task, classes):
    cfg = MlpConfig(2, (16,), classes, "tanh")
    posterior = AdviState(mean=init_params(cfg), log_std=np.full(param_count(cfg), -2.0))
    save_state(tmp_path / "state.json", posterior, cfg, task)
    gen = np.random.default_rng(0)
    peaks = {}
    for blocks in (2, 16):
        n = blocks * BLOCK_ROWS
        y = gen.integers(0, classes, n) if task == "classification" else gen.normal(size=n)
        data = tmp_path / f"{n}.csv"
        rows = np.column_stack([gen.normal(size=(n, 2)), y])
        write_matrix_csv(data, rows, ["x0", "x1", "target"])
        argv = [
            "evaluate", "--state", str(tmp_path / "state.json"), "--data", str(data),
            "--alpha", "0.1", "--predictive-samples", "20", "--out-dir", str(tmp_path / str(n)),
        ]
        if task == "classification":
            argv += ["--calib-data", str(tmp_path / f"{2 * BLOCK_ROWS}.csv")]
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
    per_row = (peaks[16] - peaks[2]) / (14 * BLOCK_ROWS)
    assert per_row < MAX_BYTES_PER_ROW, per_row


def test_advi_epoch_peak_does_not_grow_with_the_rows():
    # drawing an epoch's noise in one call grew the peak by about 1.9 KB per
    # training row at P = 1,251 (4.2 MB at 2,048 rows, 15.9 MB at 8,192);
    # in blocks of at most _SAMPLE_NORMALS normals it grows by ~40 bytes
    cfg = MlpConfig(2, (32, 32), 3, "tanh")
    peaks = {}
    for n in (64, 2048, 8192):  # the first builds the stream's jump tables
        gen = np.random.default_rng(0)
        ds = Dataset(gen.normal(size=(n, 2)), gen.integers(0, 3, n), CLASSIFICATION, ("a", "b"))
        peaks[n] = _peak(lambda d: advi_fit(cfg, d, OptimConfig(epochs=1)), ds)[1]
    per_row = (peaks[8192] - peaks[2048]) / (8192 - 2048)
    assert per_row < 400, per_row


def _peak(read, path):
    tracemalloc.start()
    try:
        got = read(path)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_matrix_csv_peak_is_the_matrix_and_one_block(tmp_path):
    # a 200,000 x 3 file with a label column, short cells and so many per
    # byte: the matrix is 4.8 MB, and np.loadtxt's read peaked at 6.0 MB
    n = 200_000
    gen = np.random.default_rng(1)
    matrix = np.column_stack([gen.normal(size=n), gen.integers(0, 3, n), gen.normal(size=n)])
    path = tmp_path / "data.csv"
    write_matrix_csv(path, matrix, ["a", "target", "b"])
    (back, _), peak = _peak(read_matrix_csv, path)
    assert back.tobytes() == matrix.tobytes()
    assert peak <= 6.0e6, peak


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_load_csv_splits_the_matrix_in_place(tmp_path, task):
    # holding the parsed matrix, a copy of its inputs and the targets at
    # once peaked at 10.0 MB for a 200,000 x 3 regression file, where the
    # reader alone peaks at 6.0 MB and one column is 1.6 MB
    n = 100_000
    gen = np.random.default_rng(1)
    y = gen.integers(0, 3, n) if task == "classification" else gen.normal(size=n)
    matrix = np.column_stack([gen.normal(size=n), y, gen.normal(size=n)])
    path = tmp_path / "data.csv"
    write_matrix_csv(path, matrix, ["a", "target", "b"])
    _, read_peak = _peak(read_matrix_csv, path)
    ds, load_peak = _peak(lambda p: load_csv(p, task, "target"), path)
    assert ds.inputs.tobytes() == np.delete(matrix, 1, axis=1).tobytes()
    assert ds.targets.tobytes() == matrix[:, 1].astype(ds.targets.dtype).tobytes()
    # a label file's check and int64 cast (`numerics.check_labels`) hold a
    # rounded copy and masks besides the float column: half a column more
    columns = 1.0 if task == "regression" else 1.5
    assert load_peak <= read_peak + columns * 8 * n, (load_peak, read_peak)
