"""Bounded property tests: every artefact format round-trips bit for bit,
the fast CSV reader and writer agree with the exact ones, the schema
walker finds the faults jsonschema finds in configs and state documents,
the conformal quantile and set constructions keep their guarantees, and so
do the calibration fits."""

import copy
import csv
import io
import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import temperature_oracle
from uqkit.calibration import (
    T_MAX,
    T_MIN,
    _row_sums,
    _ScaledNll,
    apply_temperature,
    fit_temperature,
    fit_variance_scale,
)
from uqkit.cli import write_sets_csv
from uqkit.conformal import (
    PredictionSets,
    adaptive_sets,
    baseline_sets,
    conformal_quantile,
    cqr_interval,
    jackknife_minmax,
    jackknife_plus,
    scalar_score_interval,
)
from uqkit.config import RUN_SCHEMA
import uqkit.data
from uqkit.data import (
    Dataset,
    _format_cells,
    _read_csv_plain,
    _read_csv_python,
    load_csv,
    read_matrix_csv,
    save_csv,
    schema_faults,
    write_matrix_csv,
)
from uqkit.errors import DataError
from uqkit.mlp import MlpConfig, param_count
from uqkit.posterior import (
    _STATE_SCHEMAS,
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


# --- the C-speed CSV reader and writer against the exact ones ----------------

# cells made only of plain bytes (0-9 . e E + - ,) that stress the parser:
# signs, bare exponents, overflow and underflow, ties at the last bit
PLAIN_CELLS = [
    "+1", "-0", "-0.0", "1.e5", "1.", ".5", "00001", "1E-3", "1e+3", "1e", ".", "-",
    "+", "e5", "1e5.5", "1..2", "--1", "", "1e400", "-1e400", "1e-400", "-1e-400",
    "9007199254740993",  # 2**53 + 1: a tie, rounds to even
    "9007199254740993.000000000000000000001",  # just above the tie
    "0.1000000000000000055511151231257827021181583404541015625",
    "4.9406564584124654e-324",  # smallest subnormal
    "2.4703282292062327e-324",  # just under half of it: 0
    "2.4703282292062328e-324",  # just over half of it: the smallest subnormal
    "2.2250738585072011e-308",  # at the subnormal/normal boundary
    "1.7976931348623157e308", "1.7976931348623158e308", "1.797693134862315807e308",
]
# cells the C path must leave to the Python reader
OTHER_CELLS = [
    "nan", "-inf", "inf", "Infinity", "1_0", "0x1", " 1", "1 ", " 1 ", "\t2",
    '"1"', '"1,5"', '"2\r\n3"', "é", "1\u00a0", "\u0661",
]
NEWLINES = ["\r\n", "\n", "\r"]


def plain_numbers():
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.sampled_from(PLAIN_CELLS),
        finite.map(repr),
        finite.map(lambda v: format(v, ".17g")),
        finite.map(lambda v: "%.30e" % v),
    )


@st.composite
def csv_files(draw):
    """CSV text: half with plain bodies, half with any cell and bare CR
    line endings too; blank and whitespace-only lines, trailing commas and
    ragged rows in both."""
    plain = draw(st.booleans())
    cells = plain_numbers() if plain else st.one_of(
        plain_numbers(), st.sampled_from(OTHER_CELLS)
    )
    k = draw(st.integers(1, 3))
    header = draw(st.sampled_from(
        [["a", "b", "c"], [" a ", "b ", " c"], ["é", "ß", "x"], ['"a"', "b", "c"],
         ["\ufeffa", "b", "c"]]  # a byte-order mark, as spreadsheet exports write
    ))[:k]
    endings = st.sampled_from(NEWLINES) if not plain else st.sampled_from(NEWLINES[:2])
    lines = [",".join(header) + draw(endings)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "ragged", "trailing"]))
        if kind == "blank":
            text = ""
        elif kind == "spaces":
            text = draw(st.sampled_from([" ", "\t", " , "]))
        else:
            width = k + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            text = ",".join(draw(cells) for _ in range(max(width, 1)))
            text += "," if kind == "trailing" else ""
        lines.append(text + draw(endings))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def plain_read(path):
    """``_read_csv_plain`` on a fresh handle of ``path``."""
    with open(path, "rb") as fh:
        return _read_csv_plain(fh)


def python_read(path):
    """``_read_csv_python`` on a fresh handle of ``path``."""
    with open(path, "rb") as fh:
        return _read_csv_python(path, fh)


def read_outcome(read, path):
    try:
        matrix, header = read(path)
    except DataError as exc:
        return "error", str(exc)
    return matrix.dtype.str, matrix.shape, matrix.tobytes(), header


@settings(max_examples=300, deadline=None, database=None)
@given(text=csv_files())
def test_matrix_csv_reader_equals_python_reader(scratch, text):
    path = scratch / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome = read_outcome(read_matrix_csv, path)
    assert outcome == read_outcome(python_read, path)
    assert outcome[0] == "error" or not outcome[3][0].startswith("\ufeff")


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("newline", ["\r\n", "\n"])
@pytest.mark.parametrize("cell", [c for c in PLAIN_CELLS if _is_float(c)])
def test_plain_cells_take_the_c_path_with_python_results(scratch, newline, cell):
    path = scratch / "plain.csv"
    path.write_bytes(f"a,b{newline}{newline}{cell},1{newline}-0,{cell}{newline}".encode())
    assert plain_read(path) is not None
    assert read_outcome(plain_read, path) == read_outcome(python_read, path)
    assert bits(plain_read(path)[0][0, 0]) == bits(float(cell))


def test_workload_shaped_file_takes_the_c_path(scratch, monkeypatch):
    # a 17-digit CRLF body, as bench/ and write_matrix_csv write it
    matrix = np.random.default_rng(0).normal(size=(2000, 10))
    path = scratch / "logits.csv"
    write_matrix_csv(path, matrix, [f"p{j}" for j in range(10)])
    calls = []
    real = uqkit.data._read_csv_python
    monkeypatch.setattr(
        uqkit.data, "_read_csv_python", lambda p, fh: calls.append(p) or real(p, fh)
    )
    back, header = read_matrix_csv(path)
    assert calls == []
    np.testing.assert_array_equal(bits(back), bits(matrix))
    path.write_bytes(path.read_bytes().replace(b"\r\n", b" \r\n"))
    np.testing.assert_array_equal(bits(read_matrix_csv(path)[0]), bits(matrix))
    assert calls == [path]


def _plain_parse(cells, k: int = 4) -> np.ndarray:
    """``_read_csv_plain`` on a file of ``cells``, k to a row, LF endings."""
    padded = list(cells) + ["0"] * (-len(cells) % k)
    body = "".join(",".join(padded[i : i + k]) + "\n" for i in range(0, len(padded), k))
    header = ",".join(f"c{j}" for j in range(k))
    read = _read_csv_plain(io.BytesIO(f"{header}\n{body}".encode()))
    assert read is not None
    return read[0].ravel()[: len(cells)]


def _bulk_cells(seed: int) -> list[str]:
    """About 10**5 cells: random finite float64 bit patterns as ``%.17g``,
    ``repr`` and ``%.{1..20}g``, and random decimals of 1-25 digits with
    leading zeros, signs and exponents from -40 to 40."""
    gen = np.random.default_rng(seed)
    pattern = gen.integers(0, 2**64, 30_000, dtype=np.uint64).view(np.float64)
    values = pattern[np.isfinite(pattern)].tolist()
    values += (gen.normal(size=20_000) * 10.0 ** gen.integers(-30, 30, 20_000)).tolist()
    cells = [format(v, ".17g") for v in values] + [repr(v) for v in values[:10_000]]
    cells += ["%.*g" % (int(p), v) for p, v in zip(gen.integers(1, 21, len(values)), values)]
    for _ in range(20_000):
        digits = "".join(map(str, gen.integers(0, 10, int(gen.integers(1, 26)))))
        digits = "0" * int(gen.integers(0, 4)) + digits
        dot = int(gen.integers(0, len(digits) + 1))
        cell = str(gen.choice(["", "+", "-"])) + digits[:dot]
        cell += "." * int(gen.integers(2)) + digits[dot:]
        if gen.random() < 0.6:
            cell += str(gen.choice(["e", "E"])) + str(gen.choice(["", "+", "-"]))
            cell += str(int(gen.integers(0, 41)))
        cells.append(cell)
    return cells


# cells whose one ``_WIDE`` rounding may land on, or whose value is, a float64
# midpoint, and mantissas and exponents that saturate an int64
TARGETED_CELLS = [
    "9007199254740993", "-9007199254740993", "9007199254740995", "4503599627370496.5",
    "90071992547409930e-1", "0.9007199254740993e16",
    # x87-rounded onto a midpoint, though the decimal is not one
    "0.860434121326249135", "7.23000047180347000e-8", "5.51221483975413553e-6",
    "946862.274078634975", "4074.70608976752942", "5415733.93913634168",
    "999999999999999999", "1000000000000000000", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "99999999999999999999", "-99999999999999999999", "18446744073709551616e-20",
    "1e27", "1e28", "1e-27", "1e-28", "123456789012345678e27", "123456789012345678e-27",
    "1e9223372036854775807", "1e9223372036854775808", "1e-9223372036854775809",
    "1e-9223372036854775808", "1.5e-9223372036854775807", "-9223372036854775808e0",
    "-1e99999999999999999999", "0e99999999999999999999", "-0e-99999999999999999999",
    "0." + "0" * 30 + "1", "1" + "0" * 30 + "e-30", "-0", "+0.0e0", "-.0", "00000.000e-5",
]


@pytest.mark.parametrize("wide", [np.longdouble, np.float64], ids=["longdouble", "float64"])
def test_plain_parse_equals_float_bit_for_bit(monkeypatch, wide):
    # float64 stands in for a host without x87 extended precision
    monkeypatch.setattr(uqkit.data, "_WIDE", wide)
    cells = TARGETED_CELLS + _bulk_cells(seed=0)
    got = bits(_plain_parse(cells))
    want = bits(np.array([float(c) for c in cells]))
    assert [cells[i] for i in np.flatnonzero(got != want)] == []


@pytest.mark.parametrize("body", [
    "1\r2,3\n", "12e5.5,1\n", "1.2.3,1\n", "1e2e3,1\n", "1\n2,3,4\n", "1,2\r3,4\n", "1,2-\n",
    "1,e5\n", "1,5e\n", "1,5e+\n", "+-1,2\n", "1,2\n,\n", "1,2\n3\n",
])
def test_plain_bodies_off_the_grammar_go_to_the_python_reader(scratch, body):
    path = scratch / "off_grammar.csv"
    path.write_bytes(f"a,b\n{body}".encode())
    assert plain_read(path) is None
    assert read_outcome(read_matrix_csv, path) == read_outcome(python_read, path)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_plain_blocks_split_only_between_lines(monkeypatch, scratch, block):
    # blocks shorter than a line, blank lines and CRLFs across block ends,
    # and a last line without a newline
    path = scratch / "blocks.csv"
    path.write_bytes(b"a,b\r\n1.5,-2e-3\r\n\r\n\n" + b"123456789.25,7\n" * 9 + b"\n-0,1e5")
    monkeypatch.setattr(uqkit.data, "_SCAN_BYTES", block)
    assert plain_read(path) is not None
    assert read_outcome(plain_read, path) == read_outcome(python_read, path)


# every float64 the writer may meet, non-finite included
WRITER_CELLS = st.one_of(
    st.sampled_from(EDGES + [1.7976931348623157e308, math.nan, math.inf, -math.inf]),
    st.floats(),
)
BLOCK = uqkit.data._BLOCK_ROWS


@BOUNDED
@given(
    pool=hnp.arrays(np.float64, st.integers(1, 12), elements=WRITER_CELLS),
    rows=st.one_of(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]),
                   st.integers(0, 3 * BLOCK)),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_csv_writer_equals_csv_module(scratch, pool, rows, k, seed):
    matrix = pool[np.random.default_rng(seed).integers(pool.size, size=(rows, k))]
    header = [f"c{j}" for j in range(k)]
    path = scratch / "written.csv"
    write_matrix_csv(path, matrix, header)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows([format(v, ".17g") for v in row] for row in matrix.tolist())
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def percent_lines(matrix) -> str:
    """The formatter's oracle: ``'%.17g' % x`` cells joined by commas, each
    row ended by CRLF."""
    return "".join(",".join(["%.17g" % v for v in row]) + "\r\n" for row in matrix.tolist())


def exact_ties(draws) -> list[float]:
    """Floats m 2**-e whose exact decimal has 18 significant digits ending
    in 5, so that 17 digits sit on a tie: m odd and m 5**e in [1e17, 1e18),
    one per (e, u) draw with u in [0, 1)."""
    ties = []
    for e, u in draws:
        low = max(-(-10**17 // 5**e), 1)
        high = min(10**18 // 5**e, 2**53)
        m = (low + int(u * (high - low))) | 1
        if m < high:
            ties.append(m * 2.0**-e)
    return ties


def test_exact_ties_have_18_digits_ending_in_5():
    ties = exact_ties([(e, u) for e in range(2, 26) for u in (0.0, 0.37, 0.999)])
    assert len(ties) > 60
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x


def decade_edges() -> np.ndarray:
    """Every 10**k of float64 and its two neighbours either side, both signs."""
    edges = []
    for k in range(-324, 309):
        v = float(f"1e{k}")
        below, above = np.nextafter(v, 0.0), np.nextafter(v, math.inf)
        edges += [v, below, np.nextafter(below, 0.0), above, np.nextafter(above, math.inf)]
    edges = np.array(edges)
    return np.concatenate([edges, -edges])


SPECIAL_CELLS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 2.2250738585072014e-308, 2.225073858507201e-308, 1e-300, -1e-300,
                 1.7976931348623157e308, 0.5, 1.0, 100.0, 1e16, 1e17, 123456789012345678.0]


@settings(max_examples=200, deadline=None, database=None)
@given(patterns=hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                           elements=st.integers(0, 2**64 - 1)))
def test_cell_formatter_equals_percent_on_bit_patterns(patterns):
    cells = patterns.view(np.float64)
    assert _format_cells(cells) == percent_lines(cells)


def test_cell_formatter_equals_percent_on_many_bit_patterns():
    patterns = np.random.default_rng(32).integers(0, 2**64, (20_000, 11), dtype=np.uint64)
    cells = patterns.view(np.float64)
    assert _format_cells(cells) == percent_lines(cells)


def test_cell_formatter_equals_percent_on_decade_edges():
    cells = decade_edges().reshape(-1, 5)
    assert _format_cells(cells) == percent_lines(cells)


@BOUNDED
@given(subnormals=hnp.arrays(np.uint64, st.integers(1, 30), elements=st.integers(0, 2**52 - 1)),
       negative=st.booleans())
def test_cell_formatter_equals_percent_on_subnormals_and_specials(subnormals, negative):
    cells = subnormals.view(np.float64) * (-1.0 if negative else 1.0)
    cells = np.concatenate([cells, SPECIAL_CELLS]).reshape(-1, 1)
    assert _format_cells(cells) == percent_lines(cells)


@BOUNDED
@given(block=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                        elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats())),
       labels=st.lists(st.integers(0, 12), min_size=30, max_size=30),
       layout=st.sampled_from(["as drawn", "all zero", "signed zeros", "label column"]))
def test_cell_formatter_equals_percent_on_zeros_and_label_columns(block, labels, layout):
    if layout == "all zero":
        block = np.zeros_like(block)
    elif layout == "signed zeros":
        block = np.copysign(0.0, block)
    elif layout == "label column":
        block[:, 0] = labels[: len(block)]
    assert _format_cells(block) == percent_lines(block)
    # a zero is laid out by array ops, never by the fallback
    assert uqkit.data._rounded(block.ravel())[2][block.ravel() == 0].all()


@BOUNDED
@given(draws=st.lists(st.tuples(st.integers(2, 25), st.floats(0, 1, exclude_max=True)),
                      min_size=1, max_size=40),
       negative=st.booleans())
def test_cell_formatter_equals_percent_on_exact_ties(draws, negative):
    # a tie rounds half to even in '%', so the formatter must never round it
    ties = np.array(exact_ties(draws) + [2.0**-25, 1000000000000000.25], dtype=np.float64)
    cells = (-ties if negative else ties).reshape(-1, 1)
    assert _format_cells(cells) == percent_lines(cells)


def test_cell_formatter_falls_back_on_every_cell_under_an_infinite_bound_or_float64(monkeypatch):
    ties = exact_ties([(e, 0.5) for e in range(2, 26)])
    cells = np.concatenate([decade_edges(), ties, SPECIAL_CELLS,
                            np.random.default_rng(5).standard_normal(400)])
    cells = cells[: cells.size // 4 * 4].reshape(-1, 4)
    expected = percent_lines(cells)
    assert _format_cells(cells) == expected
    # zeros need no rounding, so they alone stay on the array path
    nonzero = cells.ravel() != 0
    monkeypatch.setattr(uqkit.data, "_ROUNDING", math.inf)
    assert (uqkit.data._rounded(cells.ravel())[2] == ~nonzero).all()
    assert _format_cells(cells) == expected
    # where the long double is float64, the bound made from its finfo
    # exceeds 1/2, and the powers past 1e308 are inf
    with np.errstate(over="ignore"):
        monkeypatch.setattr(uqkit.data, "_POWERS", uqkit.data._POWERS.astype(np.float64))
    monkeypatch.setattr(uqkit.data, "_WIDE", np.float64)
    monkeypatch.setattr(uqkit.data, "_ROUNDING", 2.000001 * 2.0**-53)
    assert (uqkit.data._rounded(cells.ravel())[2] == ~nonzero).all()
    assert _format_cells(cells) == expected


def test_powers_of_ten_are_correctly_rounded():
    # the formatter's error bound counts one rounding of each power
    from fractions import Fraction

    for j, power in enumerate(uqkit.data._POWERS, start=uqkit.data._POWERS_FROM):
        if not np.isfinite(power):  # past float64's range: every cell falls back
            continue
        error = abs(Fraction(*power.as_integer_ratio()) - Fraction(10) ** j)
        assert 2 * error <= Fraction(*np.spacing(power).as_integer_ratio()), j


@BOUNDED
@given(
    classes=st.sampled_from([1, 2, 3, 10, 64, 65, 130]),
    rows=st.one_of(st.sampled_from([1, BLOCK, BLOCK + 1]), st.integers(1, 2 * BLOCK + 3)),
    distinct=st.integers(1, 40),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_set_writer_equals_csv_module(scratch, classes, rows, distinct, density, seed):
    gen = np.random.default_rng(seed)
    pool = gen.random((distinct, classes)) < density
    pool = np.vstack([pool, np.zeros(classes, bool), np.ones(classes, bool)])  # empty and full sets
    member = pool[gen.integers(0, len(pool), rows)]
    path = scratch / "sets.csv"
    write_sets_csv(path, PredictionSets(member))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["set"])
    writer.writerows([";".join(str(c) for c in np.flatnonzero(row))] for row in member)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


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
    # saving refuses, in the reader's words, exactly what loading refuses
    # (a regression model whose output_dim is not 2)
    path.write_text(json.dumps(state_to_dict(state, model, task)), encoding="utf-8")
    try:
        load_state(path)
    except DataError as refused:
        with pytest.raises(ValueError) as raised:
            save_state(path, state, model, task)
        assert str(refused) == f"{path}: {raised.value}"
        assert task == "regression" and model.output_dim != 2
        return
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


# ---------------------------------------------------------------------------
# coverage by exchangeability: hold n + 1 points fixed and let each in turn be
# the test point, with the other n as calibration (or training) rows. The mean
# coverage over these n + 1 choices is the marginal coverage, so the count of
# covered points must reach the guarantee times n + 1, with no randomness.

EXCHANGE_ALPHAS = st.one_of(
    st.sampled_from([0.05, 0.1, 0.2, 0.33, 0.5]), st.floats(min_value=0.02, max_value=0.6)
)
# short dyadic values, so every score and every bound built from them is exact;
# 33 of them, so ties are common
GRID = st.integers(-16, 16).map(lambda v: v / 4)


def covered_count(cover, n_points: int) -> int:
    """How many points ``cover(others, i)`` covers, each the test point once."""
    everyone = np.arange(n_points)
    return sum(bool(cover(np.delete(everyone, i), [i])) for i in range(n_points))


def _split_points(data, method: str, n: int):
    """(feature columns, targets) of ``n`` points for a split method."""
    if method in ("baseline", "adaptive"):
        k = data.draw(st.integers(2, 5), label="classes")
        logits = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-6.0, 6.0))
        z = data.draw(hnp.arrays(np.float64, (n, k), elements=logits), label="logits")
        e = np.exp(z - z.max(axis=1, keepdims=True))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)), label="labels")
        return [e / e.sum(axis=1, keepdims=True)], labels
    y = data.draw(hnp.arrays(np.float64, n, elements=GRID), label="targets")
    a = data.draw(hnp.arrays(np.float64, n, elements=GRID), label="lower or mean")
    if method == "cqr":
        b = data.draw(hnp.arrays(np.float64, n, elements=GRID), label="upper")
        return [np.minimum(a, b), np.maximum(a, b)], y
    stds = hnp.arrays(np.float64, n, elements=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    return [a, data.draw(stds, label="stds")], y


SPLIT_METHODS = {
    "baseline": baseline_sets,
    "adaptive": _deterministic_adaptive,
    "cqr": cqr_interval,
    "scalar": scalar_score_interval,
}


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), method=st.sampled_from(list(SPLIT_METHODS)), alpha=EXCHANGE_ALPHAS)
def test_split_methods_cover_1_minus_alpha_by_exchangeability(data, method, alpha):
    n_points = data.draw(st.integers(2, 40), label="n + 1")
    features, y = _split_points(data, method, n_points)

    def cover(others, test):
        result = SPLIT_METHODS[method](
            *(f[others] for f in features), y[others], *(f[test] for f in features), alpha
        )
        return result.contains(y[test])[0]

    assert covered_count(cover, n_points) >= (1 - alpha) * n_points - 1e-9


def _nearest_neighbour(inputs, targets, seed):
    """A symmetric, deterministic and exact trainer: the target of the
    nearest training input, the smaller target on a tie. It ignores the
    seed, so a model depends only on the set of rows it trains on."""
    def predict(x):
        return np.array([min(zip(np.abs(inputs[:, 0] - v), targets))[1] for v in x[:, 0]])

    return predict


@settings(max_examples=100, deadline=None, database=None)
@given(
    data=st.data(),
    method=st.sampled_from([(jackknife_plus, 2), (jackknife_minmax, 1)]),
    alpha=EXCHANGE_ALPHAS,
)
def test_jackknife_methods_cover_by_exchangeability(data, method, alpha):
    # jackknife+ guarantees 1 - 2 alpha, jackknife-minmax 1 - alpha
    (fit, alphas), n_points = method, data.draw(st.integers(3, 13), label="n + 1")
    x = data.draw(hnp.arrays(np.float64, (n_points, 1), elements=st.integers(0, 6).map(float)))
    y = data.draw(hnp.arrays(np.float64, n_points, elements=GRID), label="targets")

    def cover(others, test):
        train = Dataset(x[others], y[others], task="regression", feature_names=("x",))
        return fit(_nearest_neighbour, train, x[test], alpha).contains(y[test])[0]

    assert covered_count(cover, n_points) >= (1 - alphas * alpha) * n_points - 1e-9


# ---------------------------------------------------------------------------
# calibration

@st.composite
def logit_problems(draw):
    """(logits, labels) over the whole finite range, ties drawn often."""
    k = draw(st.integers(2, 5), label="classes")
    n = draw(st.integers(1, 20), label="rows")
    cells = st.one_of(st.sampled_from([0.0, 1.0]), CELLS)
    logits = draw(hnp.arrays(np.float64, (n, k), elements=cells), label="logits")
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)), label="labels")
    return logits, labels


@BOUNDED
@given(problem=logit_problems(), method=st.sampled_from(["golden", "adam"]))
def test_temperature_fit_never_raises_the_nll(problem, method):
    fit = fit_temperature(*problem, method=method)
    assert fit.nll_after <= fit.nll_before
    assert T_MIN <= fit.temperature <= T_MAX


# near the float limit, where beta * logits overflows at some beta the fits try
LIMITS = st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1e306, -3e305, 0.0])


@st.composite
def limit_logit_problems(draw):
    """logit_problems with some rows drawn near the float limit."""
    logits, labels = draw(logit_problems())
    limit = draw(hnp.arrays(np.float64, logits.shape, elements=LIMITS), label="limit rows")
    rows = draw(hnp.arrays(np.bool_, logits.shape[0]), label="rows replaced")
    return np.where(rows[:, None], limit, logits), labels


@BOUNDED
@given(
    problem=st.one_of(logit_problems(), limit_logit_problems()),
    method=st.sampled_from(["golden", "adam"]),
    betas=st.lists(st.floats(T_MIN, 1.0 / T_MIN), min_size=1, max_size=5),
)
# a row whose max overflows, and one whose min does once Adam raises beta
@example(
    problem=(np.array([[1.7976931348623157e308, 0.0]]), np.array([1])),
    method="golden", betas=[2.0],
)
@example(
    problem=(np.array([[0.0, 1.0], [-1.7976931348623157e308, 0.0]]), np.array([1, 1])),
    method="adam", betas=[1.0],
)
def test_temperature_fit_equals_the_textbook_oracle(problem, method, betas):
    logits, labels = problem
    fit = fit_temperature(logits, labels, method=method)
    expected = temperature_oracle.fit_temperature(logits, labels, method)
    fields = ("temperature", "nll_before", "nll_after")
    np.testing.assert_array_equal(
        bits([getattr(fit, f) for f in fields]), bits([getattr(expected, f) for f in fields])
    )
    assert (fit.iterations, fit.warning, fit.at_bound) == (
        expected.iterations, expected.warning, expected.at_bound
    )
    nll = _ScaledNll(logits, labels)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = [nll(beta) for beta in betas]
        want = [temperature_oracle.scaled_nll(logits, labels, beta) for beta in betas]
    np.testing.assert_array_equal(bits(got), bits(want))


# signed zeros, infinities, NaN, subnormals and any other float64
SUM_SPECIALS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]), st.floats()
)


@BOUNDED
@given(
    k=st.one_of(st.sampled_from([7, 8, 9, 128, 129, 136, 257]), st.integers(1, 300)),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    center=st.integers(-300, 300),
    spread=st.integers(0, 300),
    specials=st.lists(SUM_SPECIALS, max_size=6),
    share=st.floats(0.0, 1.0),
)
# numpy's reduce starts from 0.0, so a sum of -0.0 alone is 0.0
@example(k=9, n=2, seed=0, center=0, spread=0, specials=[-0.0], share=1.0)
def test_row_sums_take_numpys_reduce_order(k, n, seed, center, spread, specials, share):
    # magnitudes 10**(center +- spread) within 1e-300..1e300, then a share
    # of the cells replaced by the special values
    gen = np.random.default_rng(seed)
    low, high = max(center - spread, -300), min(center + spread, 300)
    a = gen.standard_normal((k, n)) * 10.0 ** gen.uniform(low, high, (k, n))
    if specials:
        picked = gen.random((k, n)) < share
        a[picked] = gen.choice(specials, picked.sum())
    with np.errstate(invalid="ignore", over="ignore"):
        got = _row_sums(a, np.empty(n))
        want = np.sum(np.ascontiguousarray(a.T), axis=1)
    # which of two NaN operands an add passes on is the instruction's
    # choice, and numpy's reduce and elementwise loops differ there
    np.testing.assert_array_equal(bits(np.where(np.isnan(got), math.nan, got)),
                                  bits(np.where(np.isnan(want), math.nan, want)))


@BOUNDED
@given(problem=logit_problems(), t=st.floats(T_MIN, T_MAX))
# a row whose shift by its max overflows: softmax once warned here
@example(problem=(np.array([[9.97920155e291, -1.7976931348623157e308, 0.0]]), np.array([0])), t=1.0)
def test_temperature_keeps_a_separated_argmax(problem, t):
    logits, _ = problem
    probs = apply_temperature(logits, t)
    assert np.all(probs >= 0.0)
    with np.errstate(over="ignore"):
        second, top = np.sort(logits, axis=1)[:, -2:].T
        # the runner-up's share exp(-gap / t) rounds clearly below the top's
        separated = (top - second) / t > 1e-6
    np.testing.assert_array_equal(
        probs.argmax(axis=1)[separated], logits.argmax(axis=1)[separated]
    )


@BOUNDED
@given(n=st.integers(1, 20), data=st.data())
def test_variance_scale_minimizes_the_gaussian_nll(n, data):
    means, targets = (data.draw(vectors(n), label=label) for label in ("means", "targets"))
    variances = data.draw(
        vectors(n, st.floats(min_value=5e-324, allow_infinity=False)), label="variances"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        z = (targets - means) / np.sqrt(variances)
        closed_form = np.mean(z * z)
    if not np.isfinite(closed_form):
        with pytest.raises(ValueError, match="overflows"):
            fit_variance_scale(means, variances, targets)
        return
    fit = fit_variance_scale(means, variances, targets)
    if fit.warning:
        assert fit.scale == 1e-12
        return

    def nll(s):
        # in standardized residuals, so no product rounds into the subnormals
        with np.errstate(over="ignore"):
            terms = np.log(2 * np.pi * variances) + np.log(s) + z * z / s
        return 0.5 * np.mean(terms)

    s = fit.scale
    assert nll(s) <= nll(s * (1 + 1e-3)) and nll(s) <= nll(s * (1 - 1e-3))


# ---------------------------------------------------------------------------
# the schema walker against jsonschema, on configs and on state documents

# one config with every key RUN_SCHEMA knows, for each kind of data spec and
# for both at once
_FULL_CONFIG = {
    "task": "classification",
    "data": {"synth": {"name": "gaussian_blobs", "n": 60, "noise": 0.1, "classes": 3}},
    "split": [0.6, 0.2, 0.2],
    "model": {"hidden_widths": [8, 4], "activation": "tanh"},
    "method": "swag",
    "optimizer": {
        "algorithm": "adam", "learning_rate": 0.01, "epochs": 3,
        "batch_size": 16, "weight_decay": 0.0,
    },
    "method_params": {
        "members": 2, "rank": 2, "snapshot_every": 1, "swag_epochs": 1,
        "mc_samples": 1, "prior_precision": 1.0,
    },
    "calibration": True,
    "temperature_method": "golden",
    "bins": 15,
    "predictive_samples": 5,
    "out_dir": "run",
    "seed": 0,
    "seeds": [0, 1, 2],
}
_CSV_DATA = {"csv": {"path": "d.csv", "target_column": "y", "classes": 2}}


def _state_bases():
    """(schema, document) for one ``state_to_dict`` document of each kind,
    and the SWAG one under the schema of the keys every kind shares."""
    model = MlpConfig(2, (2,), 2, "relu")
    p = param_count(model)
    theta = np.linspace(-1.0, 1.0, p)
    states = [
        MapState(theta),
        EnsembleState((theta, -theta)),
        SwagState(theta, theta**2 + 1.0, np.ones((p, 2)), rank=2, snapshots=3),
        LaplaceState(theta, np.ones(p)),
        AdviState(theta, -theta),
    ]
    bases = [(_STATE_SCHEMAS[type(s)], state_to_dict(s, model, "regression")) for s in states]
    return bases + [(_STATE_SCHEMAS[None], bases[2][1])]


# (schema, base document) pairs per kind of document
_BASES = {
    "config": [
        (RUN_SCHEMA, config)
        for config in (
            _FULL_CONFIG,
            {**_FULL_CONFIG, "data": _CSV_DATA},
            {**_FULL_CONFIG, "data": {**_FULL_CONFIG["data"], **_CSV_DATA}},
        )
    ],
    "state": _state_bases(),
}
# values a mutation puts in place of any node: one of each JSON type, and
# values that sit on each side of the schemas' bounds and enums
_JSON_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 2.0, 0.5, -0.5, 1e-12, math.nan, math.inf, -math.inf,
    "", "map", "two_moons", "tanh",
    "regression", [], [1], [0.5, 0.25, 0.25], [1, 2, 3, 4], {}, {"x": 1},
    {"synth": {"name": "two_moons", "n": 5}}, {"name": "two_moons", "n": 5},
    {"shape": [1], "data": "AAAAAAAAAAA="},
]
_KEYS = ["x", "n", "rank", "seed", "synth", "csv", "name", "theta", "member_0", "shape"]


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(child, path + (key,))


def _mutated(doc, path, action, value, key="x"):
    """``doc`` with the node at ``path`` dropped or replaced by ``value``,
    or with ``value`` added to that node under ``key`` (an object) or at
    its end (an array)."""
    if not path:
        return value if action == "replace" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    node = parent[path[-1]]
    if action == "drop":
        del parent[path[-1]]
    elif action == "add" and isinstance(node, dict):
        node[key] = value
    elif action == "add" and isinstance(node, list):
        node.append(value)
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def schema_oracle():
    """jsonschema's validator class, with the two intended differences: an
    integer must be a JSON integer, so 2.0 is not one, and a number must be
    finite, so NaN and Infinity are not."""
    jsonschema = pytest.importorskip("jsonschema")
    draft = jsonschema.Draft202012Validator
    checker = draft.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: type(v) is int,
        "number": lambda c, v: draft.TYPE_CHECKER.is_type(v, "number") and math.isfinite(v),
    })
    return jsonschema.validators.extend(draft, type_checker=checker)


def assert_same_fault_paths(oracle, schema, doc):
    expected = {tuple(err.absolute_path) for err in oracle(schema).iter_errors(doc)}
    assert {path for path, _ in schema_faults(schema, doc)} == expected, doc


@pytest.mark.parametrize("document", list(_BASES))
def test_schema_faults_match_jsonschema_on_every_replacement(schema_oracle, document):
    # each value at each node of each base: the bounds and types a random
    # draw can miss
    for schema, base in _BASES[document]:
        for path in _nodes(base):
            for value in _JSON_VALUES:
                doc = _mutated(copy.deepcopy(base), path, "replace", copy.deepcopy(value))
                assert_same_fault_paths(schema_oracle, schema, doc)


@pytest.mark.parametrize("document", list(_BASES))
@settings(max_examples=500, deadline=None, database=None)
@given(data=st.data(), n_mutations=st.integers(0, 4))
def test_schema_faults_match_jsonschema(schema_oracle, document, data, n_mutations):
    schema, base = data.draw(st.sampled_from(_BASES[document]))
    doc = copy.deepcopy(base)
    for _ in range(n_mutations):
        doc = _mutated(
            doc,
            data.draw(st.sampled_from(list(_nodes(doc)))),
            data.draw(st.sampled_from(["drop", "replace", "add"])),
            copy.deepcopy(data.draw(st.sampled_from(_JSON_VALUES))),
            data.draw(st.sampled_from(_KEYS)),
        )
    assert_same_fault_paths(schema_oracle, schema, doc)
