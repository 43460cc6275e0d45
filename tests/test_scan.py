import csv
import io
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisybell import (
    Table,
    bisect_threshold,
    chsh_closed_form,
    gap_rows,
    scan_grid,
    success_probability,
    threshold_rows,
    violates_chsh,
    violation_threshold,
)
from noisybell import cli
from noisybell.scan import (
    BLOCK,
    MAX_SCAN_RECORDS,
    format_real,
    records_to_csv,
    records_to_json,
    rows_to_csv,
    rows_to_json,
    scan_blocks,
)

SCAN_HEADER = "N,F,S,violates,threshold,separable,gap,success_prob"
THRESHOLD_HEADER = "N,threshold_closed_form,bisection_root,abs_diff"
GAP_HEADER = "N,gap_lo,gap_hi,width"


def record(n, noise):
    """The one record of the scan at (n, noise), as a dict of Python values."""
    table = scan_grid([n], noise, noise, 1.0)
    assert len(table) == 1
    return {name: column.tolist()[0] for name, column in table.columns.items()}


def test_record_large_dimension_high_noise_violates():
    point = record(100, 0.9)
    assert abs(point["S"] - 2.396972139615415) < 1e-12
    assert point["violates"]
    assert not point["separable"]
    assert not point["gap"]


def test_record_qubit_half_noise_sits_in_gap():
    point = record(2, 0.5)
    assert not point["violates"]  # 0.5 > 0.2929
    assert not point["separable"]  # 0.5 < 2/3
    assert point["gap"]


def test_record_zero_noise_always_violates():
    for n in (2, 5, 64):
        point = record(n, 0.0)
        assert abs(point["S"] - 2.0 * math.sqrt(2.0)) < 1e-12
        assert point["violates"]
        assert not point["gap"]


def test_record_flags_are_mutually_consistent():
    grid = scan_grid([2, 3, 4, 8, 100], 0.0, 1.0, 0.05)
    assert np.array_equal(grid["violates"], grid["F"] < grid["threshold"])
    assert not (grid["gap"] & (grid["violates"] | grid["separable"])).any()
    assert np.array_equal(grid["separable"], grid["F"] >= grid["N"] / (grid["N"] + 1))


def _exact_violates(n, noise):
    """F < N / (N + 2 + 2 sqrt 2) in rationals: N(1 - F) - 2F > 0 and (N(1 - F) - 2F)^2 > 8F^2."""
    f = Fraction(noise)
    margin = n * (1 - f) - 2 * f
    return margin > 0 and margin * margin > 8 * f * f


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(min_value=2, max_value=10**4), st.integers(min_value=2, max_value=2**70)),
    boundary=st.sampled_from(["threshold", "separable"]),
    ulps=st.integers(min_value=-(10**4), max_value=10**4),
)
@example(n=2, boundary="threshold", ulps=-1000)  # S clears 2 by less than 1e-12 here
@example(n=10**6, boundary="threshold", ulps=0)  # S exceeds 2 at the float threshold
@example(n=2**62, boundary="threshold", ulps=-1)
@example(n=2, boundary="threshold", ulps=-1)  # above N / (N + c), though below its float: S <= 2, so gap
@example(n=6, boundary="separable", ulps=0)  # fl(6/7) lies below 6/7: entangled, so gap
def test_flags_partition_the_noise_axis(n, boundary, ulps):
    """Exactly one of violates, gap and separable holds at every F near either boundary.

    violates agrees with the exact rational test, and separable with
    F(N + 1) >= N, at every F.
    """
    center = violation_threshold(n) if boundary == "threshold" else n / (n + 1)
    noise = float(np.clip((np.float64(center).view(np.int64) + ulps).view(np.float64), 0.0, 1.0))
    point = record(n, noise)
    assert point["violates"] + point["gap"] + point["separable"] == 1
    assert point["violates"] == violates_chsh(n, noise) == _exact_violates(n, noise)
    if boundary == "separable":
        assert point["separable"] == (Fraction(noise) * (n + 1) >= n)


def test_noise_grid_inclusive_and_clamped():
    grid = scan_grid([2], 0.0, 1.0, 0.1)["F"]
    assert len(grid) == 11
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert all(0.0 <= f <= 1.0 for f in grid)


@pytest.mark.parametrize(
    "f_min, f_max, f_step, points",
    [(0.48245730361, 0.50326924273, 5.67e-9, 3_670_537), (0.4791285915, 0.5463645675, 1.66e-8, 4_050_361)],
)
def test_noise_grid_keeps_an_f_max_on_the_grid_at_millions_of_points(f_min, f_max, f_step, points):
    # (f_max - f_min) / f_step falls short of its integer by more than 1e-9 steps here;
    # only the last point is built.
    *_, (_, _, stop, _, last) = scan_blocks([2], f_min, f_max, f_step)
    assert (stop, last) == (points, True)
    assert scan_grid([2], f_min, f_max, f_step, points - 1, points)["F"].tolist() == [f_max]


def test_noise_grid_rejects_bad_config():
    with pytest.raises(ValueError, match="step must be positive"):
        scan_grid([2], 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="must lie inside"):
        scan_grid([2], -0.2, 0.5, 0.1)
    with pytest.raises(ValueError, match="must lie inside"):
        scan_grid([2], 0.8, 0.2, 0.1)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 100])
def test_bisection_root_matches_closed_threshold(n):
    assert abs(bisect_threshold(n) - violation_threshold(n)) < 1e-9


def test_threshold_rows_values():
    rows = threshold_rows([100, 2])
    assert rows["N"].tolist() == [2, 100]
    assert abs(rows["threshold_closed_form"][0] - 0.2928932188134525) < 1e-12
    assert abs(rows["threshold_closed_form"][1] - 0.9539397159989786) < 1e-12
    assert rows["abs_diff"][0] < 1e-9


def test_threshold_asymptote():
    rows = threshold_rows([10**6])
    assert abs(1.0 - rows["threshold_closed_form"][0]) < 5e-6


def test_gap_rows_values():
    rows = gap_rows([4, 2])
    assert rows["N"].tolist() == [2, 4]
    assert abs(rows["gap_lo"][1] - 0.4530818393219728) < 1e-12
    assert abs(rows["gap_hi"][1] - 0.8) < 1e-15
    assert abs(rows["width"][1] - 0.3469181606780271) < 1e-12
    assert abs(rows["gap_lo"][0] - 0.2928932188134525) < 1e-12
    assert abs(rows["gap_hi"][0] - 2.0 / 3.0) < 1e-15


def test_csv_format():
    records = scan_grid([2], 0.0, 0.2, 0.1)
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == SCAN_HEADER
    assert len(lines) == 4
    assert lines[1].startswith("2,0,2.82842712475,true,")


def test_csv_real_formatting_uses_twelve_significant_digits():
    assert format_real(2.0 * math.sqrt(2.0)) == "2.82842712475"
    assert format_real(0.1 + 0.2) == "0.3"


def test_output_is_deterministic():
    records = scan_grid([2, 4], 0.0, 1.0, 0.25)
    assert records_to_csv(records) == records_to_csv(scan_grid([4, 2], 0.0, 1.0, 0.25))
    assert records_to_json(records) == records_to_json(scan_grid([2, 4], 0.0, 1.0, 0.25))


def test_json_records_parse_back():
    payload = json.loads(records_to_json(scan_grid([2], 0.0, 0.5, 0.5)))
    assert [row["N"] for row in payload] == [2, 2]
    assert payload[0]["violates"] is True
    assert payload[0]["S"] == pytest.approx(2.82842712475, abs=1e-11)


def test_noise_grid_rejects_non_finite_config():
    for bounds in ((0.0, 1.0, math.inf), (0.0, 1.0, math.nan), (math.nan, 1.0, 0.1), (0.0, math.inf, 0.1)):
        with pytest.raises(ValueError, match="must be finite"):
            scan_grid([2], *bounds)


def test_noise_grid_caps_point_count_before_allocating():
    # 1 / 1e-19 is 1e19 steps, just past the cap of 2**63 - 1; 1e-300 would be 1e300.
    for f_max, f_step in ((1.0, 1e-19), (1.0, 1e-300), (1.0, 5e-324)):
        with pytest.raises(ValueError, match=f"more than {MAX_SCAN_RECORDS} noise points"):
            scan_grid([2], 0.0, f_max, f_step)


def test_scan_grid_caps_record_count_before_allocating():
    # Two dimensions times 5e18 + 1 points is past the cap of 2**63 - 1.  A grid
    # that size cannot be allocated, so only a check ahead of it raises this error.
    with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_SCAN_RECORDS}"):
        scan_grid([2, 3], 0.0, 1.0, 2e-19)


def test_scan_blocks_checks_the_whole_request_without_allocating():
    assert list(scan_blocks([1024, 2, 16], 0.0, 1.0, 0.01)) == [([2, 16, 1024], 0, 101, True, True)]
    blocks = scan_blocks([3, 2], 0.0, 1.0, 2.0**-60)  # valid, and too large to build
    assert next(blocks) == ([2], 0, BLOCK, True, False)
    with pytest.raises(OverflowError):  # N^2 in success_prob, whichever dimension it is
        scan_blocks([2, 10**160], 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="at least 2"):
        scan_blocks([2, 1], 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="exceeds the limit"):
        scan_blocks([2, 3], 0.0, 1.0, 2e-19)


def test_scan_grid_rejects_point_ranges_outside_the_grid():
    for start, stop in ((-1, 2), (2, 1), (0, 4), (0, 7)):
        with pytest.raises(ValueError, match="point range"):
            scan_grid([2, 5], 0.0, 1.0, 0.5, start, stop)


def test_scan_grid_columns_are_read_only():
    grid = scan_grid([2, 5], 0.0, 1.0, 0.5)
    assert len(grid) == 6
    assert grid["N"].tolist() == [2, 2, 2, 5, 5, 5]
    tables = ((grid, SCAN_HEADER), (threshold_rows([5, 2]), THRESHOLD_HEADER), (gap_rows([5, 2]), GAP_HEADER))
    for table, header in tables:
        assert isinstance(table, Table)
        assert ",".join(table.columns) == header
        for column in table.columns.values():
            assert len(column) == len(table)
            with pytest.raises(ValueError):
                column[0] = column[1]
        with pytest.raises(TypeError):
            table.columns["N"] = table["N"]


def test_table_columns_share_one_length():
    for columns in ({}, {"N": np.arange(2), "F": np.zeros(3)}):
        with pytest.raises(ValueError, match="all of one length"):
            Table(columns)
    # Only 1-D float64, bool, int64 and object arrays are columns the emitters can write.
    for bad in (
        [1.0, 2.0],
        np.array(1.0),
        np.zeros((2, 2)),
        np.array(["a", "b"]),
        np.zeros(2, dtype=np.float32),
        np.zeros(2, dtype=np.int32),
        np.zeros(2, dtype=">f8"),
    ):
        with pytest.raises(ValueError, match="column 'x' is not a 1-D array"):
            Table({"N": np.arange(2), "x": bad})
    for cells in (["a", 2], [0.5, -0.0], [True, 1]):
        with pytest.raises(ValueError, match="object column 'x' holds something other than Python integers"):
            Table({"N": np.arange(2), "x": np.array(cells, dtype=object)})
    with pytest.raises(ValueError, match="column name 1 is not a string"):
        Table({1: np.arange(2)})
    for good in (np.zeros(2), np.array([True, False]), np.arange(2), np.array([2**64, 3], dtype=object)):
        assert len(Table({"x": good})) == 2


@pytest.mark.parametrize("name", ["p%", "5%s", 'say "hi"', "a\\b", "é", "%%"])
def test_json_keys_are_what_json_dumps_writes(name):
    """Every column name is a key as json.dumps writes it, with its column written into the template or not."""
    for size in (1, 33):
        table = Table({"N": np.full(size, 3), name: np.linspace(0.0, 1.0, size), "z": np.full(size, 0.5)})
        objects = [{"N": 3, name: x, "z": 0.5} for x in table[name].tolist()]
        assert records_to_json(table) == json.dumps(objects, indent=2) + "\n"
        rows = Table({name: np.full(size, 0.25)})  # past one record, written into the template
        assert records_to_json(rows) == json.dumps([{name: 0.25}] * size, indent=2) + "\n"
        assert records_to_csv(rows) == _oracle_csv([(0.25,)] * size, [name])


@settings(max_examples=300, deadline=None)
@given(names=st.lists(st.text(), min_size=1, max_size=4, unique=True))
@example(names=["a,b"])  # once written raw: two header fields over one value
@example(names=[""])
def test_csv_header_reads_back_as_the_column_names(names):
    """csv.reader parses the header back to the columns, whatever characters the names hold."""
    text = records_to_csv(Table({name: np.full(2, 0.25) for name in names}))
    assert list(csv.reader(io.StringIO(text))) == [names] + [["0.25"] * len(names)] * 2
    assert text.startswith(_writer_header(names))


def test_empty_scan_grid_emits_header_and_empty_list():
    """An empty table writes its header line in CSV and an empty list in JSON."""
    for table, header in ((scan_grid([], 0.0, 1.0, 0.5), SCAN_HEADER), (threshold_rows([]), THRESHOLD_HEADER)):
        assert len(table) == 0
        assert records_to_csv(table) == header + "\n"
        assert records_to_json(table) == "[]\n"
    assert records_to_csv(gap_rows([])) == GAP_HEADER + "\n"


# --- per-point oracle -------------------------------------------------------
# The route scan_grid, threshold_rows, gap_rows and the emitters replaced: one
# closed-form call per grid point or dimension, text built field by field, and
# JSON through json.dumps.  The violates and separable flags are decided in
# rationals, not by the functions scan_grid calls.


def _oracle_records(dims, f_min, f_max, f_step):
    steps = int((f_max - f_min) / f_step + 1e-9)
    grid = [min(f_min + k * f_step, f_max) for k in range(steps + 1)]
    records = []
    for n in sorted(dims):
        for f in grid:
            s_value = chsh_closed_form(n, f)
            threshold = violation_threshold(n)
            separable = Fraction(f) * (n + 1) >= n
            violates = _exact_violates(n, f)
            gap = not violates and not separable
            records.append((n, f, s_value, violates, threshold, separable, gap, success_probability(n, f)))
    return records


def _oracle_threshold(dims):
    records = []
    for n in sorted(dims):
        closed, root = violation_threshold(n), bisect_threshold(n)
        records.append((n, closed, root, abs(closed - root)))
    return records


def _oracle_gap(dims):
    return [(n, violation_threshold(n), n / (n + 1), n / (n + 1) - violation_threshold(n)) for n in sorted(dims)]


def _oracle_csv(records, keys):
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return format_real(value) if isinstance(value, float) else str(value)

    return _writer_header(keys) + "".join(",".join(cell(v) for v in record) + "\n" for record in records)


def _writer_header(names):
    """The header line csv.writer writes with its default dialect, ended by "\n" instead of "\r\n"."""
    line = io.StringIO()
    csv.writer(line).writerow(names)
    return line.getvalue()[:-2] + "\n"


def _oracle_json(records, keys):
    payload = [
        {key: float(format_real(v)) if isinstance(v, float) else v for key, v in zip(keys, record)}
        for record in records
    ]
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=2, max_value=10**6), min_size=1, max_size=4),
    bounds=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2).map(sorted),
    f_step=st.floats(min_value=1e-3, max_value=1.0),
)
@example(dims=[2, 5], bounds=[0.0, 0.3], f_step=0.1)  # last point clamped to f_max
@example(dims=[3], bounds=[0.0, -0.0], f_step=0.5)  # min() keeps 0.0 where np.minimum gives -0.0
@example(dims=[3, 3], bounds=[0.25, 0.25], f_step=1.0)
@example(dims=[28], bounds=[0.8529193279227653, 0.8529193279227653], f_step=0.5)  # fl(28/(28+c)), below it: violates
@example(dims=[6], bounds=[0.8571428571428571, 0.8571428571428571], f_step=0.5)  # fl(6/7), below it: gap
def test_columnar_scan_matches_per_point_oracle(dims, bounds, f_step):
    f_min, f_max = bounds
    expected = _oracle_records(dims, f_min, f_max, f_step)
    grid = scan_grid(dims, f_min, f_max, f_step)
    assert list(zip(*(column.tolist() for column in grid.columns.values()))) == expected
    keys = SCAN_HEADER.split(",")
    assert records_to_csv(grid) == _oracle_csv(expected, keys)
    assert records_to_json(grid) == _oracle_json(expected, keys)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(
        st.integers(min_value=2, max_value=10**6) | st.sampled_from([2**63 - 1, 2**63, 10**20, 10**300]), max_size=5
    )
)
@example(dims=[])
@example(dims=[10**300, 2, 2])
def test_threshold_and_gap_rows_match_per_dimension_oracle(dims):
    """threshold and gap text, byte for byte, at any dimension: past int64 the N column stays exact."""
    for rows, expected, header in (
        (threshold_rows(dims), _oracle_threshold(dims), THRESHOLD_HEADER),
        (gap_rows(dims), _oracle_gap(dims), GAP_HEADER),
    ):
        keys = header.split(",")
        assert rows_to_csv(rows) == _oracle_csv(expected, keys)
        assert rows_to_json(rows) == _oracle_json(expected, keys)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.sampled_from([2, 3, 64, 10**6, 10**20]), min_size=1, max_size=4),
    bounds=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2).map(sorted),
    f_step=st.floats(min_value=1e-3, max_value=1.0),
    cuts=st.lists(st.integers(min_value=0, max_value=5000), max_size=6),
)
def test_blocks_join_into_the_whole_grid(dims, bounds, f_step, cuts):
    """Any cut of the grid points into blocks, one dimension at a time, gives the whole grid's records and bytes."""
    f_min, f_max = bounds
    whole = scan_grid(dims, f_min, f_max, f_step)
    points = len(whole) // len(dims)
    edges = sorted({0, points, *(cut % (points + 1) for cut in cuts)})
    ranges = list(zip(edges, edges[1:]))
    blocks = [scan_grid([n], f_min, f_max, f_step, a, b) for n in sorted(dims) for a, b in ranges]
    # A point range of every dimension at once holds those points of each, in the whole grid's column types.
    parts = [scan_grid(dims, f_min, f_max, f_step, a, b) for a, b in ranges]
    for name, column in whole.columns.items():
        assert [x for block in blocks for x in block[name].tolist()] == column.tolist()
        for (a, b), part in zip(ranges, parts):
            assert part[name].dtype == column.dtype
            assert part[name].tolist() == [x for i in range(len(dims)) for x in column[i * points :][a:b].tolist()]
    last = len(blocks) - 1
    csv = "".join(records_to_csv(block, header=i == 0) for i, block in enumerate(blocks))
    assert csv == records_to_csv(whole)
    text = "".join(records_to_json(block, first=i == 0, last=i == last) for i, block in enumerate(blocks))
    assert text == records_to_json(whole)


# Reals "%.12g" does not print as json does, or that a row template must not
# mistake for each other: signed zeros, NaN, infinities, subnormals, reals
# from 1e12 up, and reals that "%.12g" prints as an integer.
_ODD_REALS = [
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    5e-324,
    -2.5e-320,
    2.2250738585072014e-308,
    999999999999.5,
    1e12,
    -3e15,
    1e300,
    0.9999999999996,
    1.0000000000004,
    1.0,
    -2.0,
]
_RUN_LENGTHS = [1, 2, 31, 32, 33, 67]
_NAMES = ["N", "F", "p%", "5%s", 'say "hi"', "é", "a,b", "", "x\r\ny", "{0}", "}{", "100%%"]
_CELLS = {
    "int64": st.integers(-3, 3),
    "object": st.sampled_from([2**63, 2**64 + 1, -(10**20), 7]),  # N past int64 stays exact
    "float64": st.sampled_from(_ODD_REALS) | st.floats(),
    "bool": st.booleans(),
}


@st.composite
def _adversarial_tables(draw):
    """Tables whose first column comes in runs of 1, 2, 31, 32, 33 and 67 equal values.

    Each other column takes one or two values on each run, so it may be
    constant on a run, or mix ``0.0`` with ``-0.0`` or ``1.0`` with ``1.5``;
    a real's second value is often the first one negated.
    """
    runs = draw(st.lists(st.sampled_from(_RUN_LENGTHS), max_size=5))
    width = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=width, max_size=width, unique=True))
    kinds = [draw(st.sampled_from(list(_CELLS)))]
    kinds += [draw(st.sampled_from(["int64", "float64", "bool"])) for _ in names[1:]]
    columns = {names[0]: [value for run in runs for value in [draw(_CELLS[kinds[0]])] * run]}
    for name, kind in zip(names[1:], kinds[1:]):
        cells = []
        for run in runs:
            pool = [draw(_CELLS[kind])]
            twins = st.just(-pool[0]) if kind == "float64" else st.nothing()
            pool += draw(st.lists(twins | _CELLS[kind], max_size=1))
            pattern = draw(st.integers(0, 2**run - 1))  # which of the pool each record takes
            cells += [pool[(pattern >> i) % len(pool)] for i in range(run)]
        columns[name] = cells
    return Table({name: np.array(cells, dtype=kind) for (name, cells), kind in zip(columns.items(), kinds)})


_R = 32


@settings(max_examples=150, deadline=None)
@given(table=_adversarial_tables(), cuts=st.lists(st.integers(min_value=0, max_value=10**4), max_size=4))
# 0.0 and -0.0 on one run: constancy and the json memo must tell them apart.
@example(table=Table({"N": np.full(_R + 1, 5), "x": np.array([0.0] * _R + [-0.0])}), cuts=[])
@example(table=Table({"N": np.full(_R + 1, 5), "x": np.array([-0.0, 0.0] + [0.5] * (_R - 1))}), cuts=[])
# Reals "%.12g" prints as integers, where json writes a ".0".
@example(table=Table({"N": np.arange(4), "x": np.array([0.5, 1.0, 0.9999999999996, 3.0])}), cuts=[])
# N past int64 in runs longer than 32, cut inside a run.
@example(
    table=Table(
        {
            "N": np.array([2**64] * (_R + 2) + [10**20] * 3, dtype=object),
            "F": np.linspace(0.0, 1.0, _R + 5),
            "t": np.full(_R + 5, 1e-310),
        }
    ),
    cuts=[_R // 2, _R + 3],
)
def test_emitters_match_the_oracle_on_adversarial_tables(table, cuts):
    """Any table, cut into blocks anywhere, writes what the per-record oracle writes."""
    names = list(table.columns)
    records = list(zip(*(column.tolist() for column in table.columns.values())))
    edges = sorted({0, len(table), *(cut % (len(table) + 1) for cut in cuts)})
    blocks = [Table({name: column[a:b] for name, column in table.columns.items()}) for a, b in zip(edges, edges[1:])]
    blocks = blocks or [table]
    last = len(blocks) - 1
    csv = "".join(records_to_csv(block, header=i == 0) for i, block in enumerate(blocks))
    assert csv == _oracle_csv(records, names)
    text = "".join(records_to_json(block, first=i == 0, last=i == last) for i, block in enumerate(blocks))
    assert text == _oracle_json(records, names)


@settings(max_examples=1000, deadline=None)
@given(
    value=st.one_of(
        st.floats(),
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1024)),  # every exponent
        st.floats(-1e-307, 1e-307),  # subnormals and their neighbours
        st.floats(1e12, 1e16) | st.floats(-1e16, -1e12),
        st.floats(999999999999.0, 1000000000001.0),
    )
)
@example(0.0)
@example(-0.0)
@example(5e-320)
@example(2.2250738585072014e-308)
@example(math.nextafter(2.2250738585072014e-308, 0.0))
@example(999999999999.5)
@example(math.nextafter(999999999999.5, 0.0))
@example(1e12)
@example(1e16)
@example(1e11)
@example(-3.0)
@example(9.99999999999999e-05)
@example(sys.float_info.max)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_json_real_matches_repr_of_the_rounded_float(value):
    """A real beside another value, so the column is not folded, is what json.dumps writes of it rounded."""
    objects = [{"x": float(format_real(value))}, {"x": 0.5}]
    assert records_to_json(Table({"x": np.array([value, 0.5])})) == json.dumps(objects, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_memory_is_flat_in_grid_size(fmt, tmp_path):
    """The CLI writes a scan block by block, so its peak memory does not grow with the grid.

    A block holds few enough records that the 100,001-record scan peaks under
    2.5 MiB: about 1.2 MiB for CSV and 1.7 MiB for JSON in blocks of 2**12,
    against 4.6 and 6.6 MiB in blocks of 2**14.  Written in one block, it
    peaked at 29 and 41 MiB, five times the 20,001-record scan.  That scan ends
    in a block of 3,617 records; it peaked at 2.07 MiB in JSON while its text
    was concatenated with the closing bracket, which copied it twice more.
    """
    out = tmp_path / "scan.out"

    def peak(f_step):
        tracemalloc.start()
        try:
            assert cli.main(["scan", "--dims", "2", "--f-step", f_step, "--format", fmt, "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            out.unlink()

    peak("0.5")  # one-time allocations (caches, lazy imports) stay out of both peaks
    small, large = peak("5e-5"), peak("1e-5")  # 20,001 and 100,001 records
    assert 20_001 > BLOCK
    assert large <= 1.5 * small, (small, large)
    assert small <= 1.1 * large, (small, large)  # no block, the last included, holds its text more often
    assert large <= 2.5 * 2**20, large
