"""Bounded property tests: every artefact format round-trips bit for bit,
and the conformal quantile and set constructions keep their guarantees."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uqkit.conformal import adaptive_sets, baseline_sets, conformal_quantile
from uqkit.data import Dataset, load_csv, read_matrix_csv, save_csv, write_matrix_csv
from uqkit.mlp import MlpConfig, param_count
from uqkit.posterior import (
    AdviState,
    EnsembleState,
    LaplaceState,
    MapState,
    SwagState,
    load_state,
    save_state,
    state_to_dict,
)

BOUNDED = settings(max_examples=50, deadline=None, database=None)

# any finite float64, with -0.0, subnormals and the extremes drawn often
EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308]
CELLS = st.one_of(
    st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False)
)


def bits(a) -> np.ndarray:
    """The raw 64-bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def vectors(n: int, elements=CELLS):
    return hnp.arrays(np.float64, n, elements=elements)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@BOUNDED
@given(
    matrix=hnp.array_shapes(min_dims=2, max_dims=2, max_side=6).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=CELLS)
    )
)
def test_matrix_csv_round_trip_is_bit_exact(scratch, matrix):
    path = scratch / "matrix.csv"
    header = [f"c{j}" for j in range(matrix.shape[1])]
    write_matrix_csv(path, matrix, header)
    back, names = read_matrix_csv(path)
    assert names == header
    np.testing.assert_array_equal(bits(back), bits(matrix))


@BOUNDED
@given(data=st.data(), task=st.sampled_from(["classification", "regression"]))
def test_dataset_csv_round_trip(scratch, data, task):
    n = data.draw(st.integers(1, 8), label="rows")
    d = data.draw(st.integers(1, 4), label="features")
    inputs = data.draw(vectors(n * d), label="inputs").reshape(n, d)
    if task == "classification":
        targets = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2**40)))
    else:
        targets = data.draw(vectors(n), label="targets")
    ds = Dataset(inputs, targets, task, tuple(f"x{j}" for j in range(d)))
    path = scratch / "dataset.csv"
    save_csv(ds, path)
    back = load_csv(path, task, "target")
    assert back.feature_names == ds.feature_names
    assert back.targets.dtype == ds.targets.dtype
    np.testing.assert_array_equal(bits(back.inputs), bits(ds.inputs))
    if task == "classification":
        np.testing.assert_array_equal(back.targets, ds.targets)
    else:
        np.testing.assert_array_equal(bits(back.targets), bits(ds.targets))


def _state(data, kind: str, p: int):
    def vec(label, elements=CELLS):
        return data.draw(vectors(p, elements), label=label)

    if kind == "map":
        return MapState(vec("theta"))
    if kind == "ensemble":
        members = data.draw(st.integers(2, 4), label="members")
        return EnsembleState(tuple(vec(f"member_{i}") for i in range(members)))
    if kind == "swag":
        rank = data.draw(st.integers(1, 3), label="rank")
        deviations = data.draw(vectors(p * rank), label="deviations").reshape(p, rank)
        return SwagState(
            mean=vec("mean"),
            diag_second_moment=vec("diag_second_moment"),
            deviations=deviations,
            rank=rank,
            snapshots=data.draw(st.integers(rank, 100), label="snapshots"),
        )
    if kind == "laplace":
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        return LaplaceState(mode=vec("mode"), diag_precision=vec("precision", positive))
    return AdviState(mean=vec("mean"), log_std=vec("log_std"))


@BOUNDED
@given(
    data=st.data(),
    kind=st.sampled_from(["map", "ensemble", "swag", "laplace", "advi"]),
    task=st.sampled_from(["classification", "regression"]),
)
def test_state_round_trip_all_kinds(scratch, data, kind, task):
    model = MlpConfig(
        input_dim=data.draw(st.integers(1, 3), label="input_dim"),
        hidden_widths=tuple(data.draw(st.lists(st.integers(1, 3), max_size=2))),
        output_dim=data.draw(st.integers(1, 3), label="output_dim"),
        activation=data.draw(st.sampled_from(["tanh", "relu"])),
        init_seed=data.draw(st.integers(0, 2**31)),
    )
    state = _state(data, kind, param_count(model))
    path = scratch / "state.json"
    save_state(path, state, model, task)
    loaded, back_model, back_task = load_state(path)
    assert type(loaded) is type(state)
    assert (back_model, back_task) == (model, task)
    assert json.loads(path.read_text(encoding="utf-8")) == state_to_dict(
        loaded, back_model, back_task
    )
    for name in state.__dataclass_fields__:
        a, b = getattr(state, name), getattr(loaded, name)
        if isinstance(a, tuple):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(bits(x), bits(y))
        elif isinstance(a, np.ndarray):
            np.testing.assert_array_equal(bits(a), bits(b))
        else:
            assert a == b


# ---------------------------------------------------------------------------
# conformal quantile and prediction sets

ALPHAS = st.floats(min_value=0.001, max_value=0.999)
SCORES = st.floats(min_value=-1e6, max_value=1e6)


@BOUNDED
@given(scores=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), SCORES), min_size=1, max_size=40),
       alpha=ALPHAS)
def test_conformal_quantile_equals_sort_oracle(scores, alpha):
    n = len(scores)
    k = math.ceil((n + 1) * (1.0 - alpha))
    expected = math.inf if k > n else sorted(scores)[k - 1]
    assert conformal_quantile(np.array(scores), alpha) == expected


@st.composite
def calibration_problems(draw):
    """(val probs, val labels, test probs) with ties drawn often."""
    k = draw(st.integers(2, 5), label="classes")
    n = draw(st.integers(1, 25), label="calibration rows")
    logits = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-6.0, 6.0))

    def probs(rows, label):
        z = draw(hnp.arrays(np.float64, (rows, k), elements=logits), label=label)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)), label="labels")
    return probs(n, "val logits"), labels, probs(draw(st.integers(1, 10)), "test logits")


def _deterministic_adaptive(vp, y, tp, alpha):
    return adaptive_sets(vp, y, tp, alpha)


SET_METHODS = st.sampled_from([baseline_sets, _deterministic_adaptive])


@BOUNDED
@given(problem=calibration_problems(), alphas=st.tuples(ALPHAS, ALPHAS), method=SET_METHODS)
def test_prediction_sets_grow_as_alpha_shrinks(problem, alphas, method):
    vp, y, tp = problem
    small, large = sorted(alphas)
    inner = method(vp, y, tp, large).member
    outer = method(vp, y, tp, small).member
    assert np.all(outer | ~inner)


@BOUNDED
@given(problem=calibration_problems(), alpha=ALPHAS, method=SET_METHODS, data=st.data())
def test_quantile_and_sets_ignore_calibration_order(problem, alpha, method, data):
    vp, y, tp = problem
    perm = data.draw(st.permutations(range(len(y))), label="order")
    scores = 1.0 - vp[np.arange(len(y)), y]
    assert conformal_quantile(scores[perm], alpha) == conformal_quantile(scores, alpha)
    np.testing.assert_array_equal(
        method(vp[perm], y[perm], tp, alpha).member, method(vp, y, tp, alpha).member
    )
