import ast
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import uqkit
from uqkit.data import (
    Dataset,
    batches,
    json_text,
    load_csv,
    save_csv,
    split,
    synth_classification,
)
from uqkit.errors import DataError, InvalidSplitError
import uqkit.rng as rng_module
from rng_oracle import ScalarRng
from uqkit.rng import Rng, child_seed


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_classification(self, tmp_path):
        path = write(tmp_path, "x0,x1,target\n1.0,2.0,0\n3.5,-1.0,2\n0,0,1\n")
        ds = load_csv(path, "classification", "target")
        assert ds.n == 3 and ds.d == 2
        assert ds.n_classes == 3  # max label + 1
        np.testing.assert_array_equal(ds.targets, [0, 2, 1])
        assert ds.feature_names == ("x0", "x1")

    def test_unparsable_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "x0,x1,target\n1.0,abc,0\n")
        with pytest.raises(DataError, match=r"row 2.*column x1"):
            load_csv(path, "classification", "target")

    def test_missing_target_column(self, tmp_path):
        path = write(tmp_path, "x0,x1,y\n1,2,0\n")
        with pytest.raises(DataError, match="target"):
            load_csv(path, "classification", "target")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""), "regression", "target")

    def test_scientific_notation(self, tmp_path):
        path = write(tmp_path, "x0,target\n1.5e-3,2.25E+1\n-2e2,1e0\n")
        ds = load_csv(path, "regression", "target")
        np.testing.assert_array_equal(ds.inputs[:, 0], [1.5e-3, -2e2])
        np.testing.assert_array_equal(ds.targets, [22.5, 1.0])

    def test_integral_float_label_accepted(self, tmp_path):
        path = write(tmp_path, "x0,target\n1.0,2.0\n2.0,0\n")
        ds = load_csv(path, "classification", "target")
        assert ds.targets.dtype == np.int64
        np.testing.assert_array_equal(ds.targets, [2, 0])

    # 1e16 and up are past 2^53, so an int64 cast of them would not be exact
    @pytest.mark.parametrize(
        "label", ["1.5", "-1", "inf", "nan", "1e300", str(2**63), "1e16"]
    )
    def test_bad_label_names_file_and_row(self, tmp_path, label):
        path = write(tmp_path, f"x0,target\n1.0,0\n2.0,{label}\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, "classification", "target")
        message = str(exc.value)
        assert str(path) in message and "data row 2" in message
        assert "nonnegative integer" in message

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(
            inputs=rng.normal(scale=1e4, size=(20, 3)) * rng.normal(size=(20, 3)),
            targets=rng.normal(size=20),
            task="regression",
            feature_names=("a", "b", "c"),
        )
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path, "regression", "target")
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.targets, ds.targets)


class TestSplit:
    def ds(self, n):
        return Dataset(
            inputs=np.arange(float(2 * n)).reshape(n, 2),
            targets=np.zeros(n),
            task="regression",
            feature_names=("a", "b"),
        )

    def test_floor_sizes_with_remainder_to_train(self):
        tr, ca, te = split(self.ds(10), [0.8, 0.1, 0.1], seed=0)
        assert (tr.n, ca.n, te.n) == (8, 1, 1)
        tr, ca, te = split(self.ds(11), [0.5, 0.25, 0.25], seed=0)
        # floors are (5, 2, 2); remainder 2 goes to train
        assert (tr.n, ca.n, te.n) == (7, 2, 2)

    def test_same_seed_reproduces(self):
        a = split(self.ds(23), [0.6, 0.2, 0.2], seed=9)
        b = split(self.ds(23), [0.6, 0.2, 0.2], seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.inputs, y.inputs)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(6, 200))
            seed = int(rng.integers(0, 2**32))
            parts = split(self.ds(n), [0.5, 0.3, 0.2], seed=seed)
            seen = np.concatenate([p.inputs[:, 0] for p in parts])
            assert sorted(seen.tolist()) == [float(2 * i) for i in range(n)]

    def test_empty_partition_rejected(self):
        with pytest.raises(InvalidSplitError):
            split(self.ds(5), [0.8, 0.1, 0.1], seed=0)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            split(self.ds(10), [0.8, 0.1, 0.2], seed=0)
        with pytest.raises(ValueError):
            split(self.ds(10), [1.0, -0.1, 0.1], seed=0)


class TestBatches:
    def ds(self, n, offset=0.0):
        return Dataset(
            inputs=np.column_stack([np.arange(float(n)), -np.arange(float(n))]) + offset,
            targets=np.arange(float(n)) + offset,
            task="regression",
            feature_names=("a", "b"),
        )

    @staticmethod
    def epochs(datasets, batch_size, seeds, epochs):
        """Each epoch's (inputs, targets) per lane, its batches concatenated;
        a batch is a view that the next epoch overwrites, so each is copied."""
        stream = batches(datasets, batch_size, seeds, epochs)
        steps = -(-datasets[0].n // batch_size)
        out = []
        for _ in range(epochs):
            xs, ys = zip(*[(x.copy(), y.copy()) for x, y in islice(stream, steps)])
            out.append((np.concatenate(xs, axis=1), np.concatenate(ys, axis=1)))
        assert next(stream, None) is None
        return out

    def test_batch_sizes(self):
        sizes = [x.shape for x, _ in batches([self.ds(5)] * 2, 2, [0, 1], epochs=1)]
        assert sizes == [(2, 2, 2), (2, 2, 2), (2, 1, 2)]
        with pytest.raises(ValueError, match="batch_size"):
            next(batches([self.ds(5)], 0, [0], epochs=1))

    def test_epoch_permutations_differ_but_replay(self):
        ds = self.ds(12)
        (_, e0), (_, e1) = self.epochs([ds], 4, [3], epochs=2)
        assert not np.array_equal(e0, e1)
        for e, want in enumerate([e0, e1]):
            np.testing.assert_array_equal(self.epochs([ds], 4, [3], epochs=e + 1)[e][1], want)

    def test_every_row_seen_once_per_epoch(self):
        ds = self.ds(17)
        for _, y in self.epochs([ds, ds], 5, [1, 2], epochs=3):
            for lane in y:
                assert sorted(lane.tolist()) == list(range(17))

    @pytest.mark.parametrize("shared", [False, True])
    def test_each_lane_takes_its_stream_permutation(self, shared):
        # lanes that pass one Dataset object (an ensemble's members) each
        # take their own rows
        n, seeds = 23, [4, 9, 4, 2**64 - 1]
        datasets = [self.ds(n, 0.0 if shared else 100.0 * s) for s in range(len(seeds))]
        if shared:
            datasets = [datasets[0]] * len(seeds)
        for epoch, (x, y) in enumerate(self.epochs(datasets, 7, seeds, epochs=3)):
            for s, (ds, seed) in enumerate(zip(datasets, seeds)):
                want = ds.take(Rng(child_seed(seed, epoch)).permutation(n))
                assert x[s].tobytes() == want.inputs.tobytes()
                assert y[s].tobytes() == want.targets.tobytes()

    @pytest.mark.parametrize("lanes", ["one", "several", "shared"])
    def test_epochs_across_permutation_blocks_take_their_stream_permutation(
        self, monkeypatch, lanes
    ):
        # blocks of 2 epochs over 7 epochs: [0, 1], [2, 3], [4, 5] and a
        # partial [6]; the k-th draw of one stream in the middle block is
        # forced to reject, so that stream draws again alone
        n, epochs, k = 11, 7, 4
        seeds = [5] if lanes == "one" else [5, 2**64 - 1, 5, 8]
        datasets = [self.ds(n, 0.0 if lanes == "shared" else 100.0 * s) for s in range(len(seeds))]
        if lanes == "shared":
            datasets = [datasets[0]] * len(seeds)
        monkeypatch.setattr(uqkit.data, "_PERM_DRAWS", 3 * n * len(seeds) - 1)
        lane, epoch = len(seeds) - 1, 3
        slow = ScalarRng(child_seed(seeds[lane], epoch))
        forced = [slow.next_uint64() for _ in range(k + 1)][-1]
        rejected, bounded_draws, redrawn = rng_module._rejected, Rng._bounded_draws, []

        def record(stream, bounds):
            redrawn.append(stream._state)
            return bounded_draws(stream, bounds)

        monkeypatch.setattr(rng_module, "_rejected", lambda d, b: rejected(d, b) | (d == np.uint64(forced)))
        monkeypatch.setattr(Rng, "_bounded_draws", record)
        got = self.epochs(datasets, 4, seeds, epochs)
        assert redrawn == [Rng(child_seed(seeds[lane], epoch))._state]
        for e, (x, y) in enumerate(got):
            for s, (ds, seed) in enumerate(zip(datasets, seeds)):
                want = ds.take(Rng(child_seed(seed, e)).permutation(n))
                assert x[s].tobytes() == want.inputs.tobytes(), (e, s)
                assert y[s].tobytes() == want.targets.tobytes(), (e, s)


class TestSynth:
    def test_two_moons_noise_free_geometry(self):
        ds = synth_classification("two_moons", 40, noise=0.0, seed=0)
        x = ds.inputs
        top = x[ds.targets == 0]
        bottom = x[ds.targets == 1]
        # arcs of radius 1 around (0, 0) and (1, 0.5)
        np.testing.assert_allclose(np.hypot(top[:, 0], top[:, 1]), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.hypot(bottom[:, 0] - 1.0, bottom[:, 1] - 0.5), 1.0, atol=1e-12
        )

    def test_blob_labels_balanced(self):
        ds = synth_classification("gaussian_blobs", 100, 0.5, seed=1, n_classes=3)
        counts = np.bincount(ds.targets, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_deterministic_per_seed(self):
        a = synth_classification("two_moons", 50, 0.3, seed=5)
        b = synth_classification("two_moons", 50, 0.3, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="is not one of"):
            synth_classification("spirals", 10, 0.1, seed=0)


# the CSV parsers and the CSV writer, as (module alias, name); ``loadtxt``
# stays listed so that no module brings it back
_CSV_CODECS = {
    ("csv", "reader"), ("csv", "writer"), ("np", "loadtxt"), ("numpy", "loadtxt"),
    ("np", "fromstring"), ("numpy", "fromstring"),
}


def _csv_codecs_used(source: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            pairs = {(node.value.id, node.attr)}
        elif isinstance(node, ast.ImportFrom):
            pairs = {(node.module, a.name) for a in node.names}
        else:
            continue
        found |= {".".join(pair) for pair in pairs & _CSV_CODECS}
    return found


def test_only_the_data_module_reads_and_writes_csv():
    for spelling in ("csv.reader(fh)", "w = csv.writer", "np.loadtxt(fh)",
                     "from csv import writer", "from numpy import loadtxt",
                     "np.fromstring(text, sep=',')", "from numpy import fromstring"):
        assert _csv_codecs_used(spelling), spelling
    assert not _csv_codecs_used("np.savetxt(fh, x)\ncsv.QUOTE_ALL\nreader(fh)")
    sources = sorted(Path(uqkit.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    used = {p.name: _csv_codecs_used(p.read_text(encoding="utf-8")) for p in sources}
    assert used.pop("data.py") == {"csv.reader", "csv.writer", "np.fromstring"}
    assert {name: u for name, u in used.items() if u} == {}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_text_holds_only_standard_json(value):
    assert json_text({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    with pytest.raises(ValueError):
        json_text({"x": [value]})
