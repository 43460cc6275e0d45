import json
import os
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisybell import BehaviorTable, TableFormatError, load_table, save_table
from noisybell.behavior import MAX_TABLE_BYTES, NEGATIVITY_TOL, NORMALIZATION_TOL, table_from_json, table_to_json

from dense import (
    UNIFORM,
    numpy_correlators,
    numpy_facets,
    numpy_normalization_defect,
    numpy_signaling_defect,
)


def test_flat_order_is_xyab_lexicographic():
    # 0..15 normalized per setting pair: entry k is k / (sum of its group of four), all distinct.
    flat = [k / sum(range(k - k % 4, k - k % 4 + 4)) for k in range(16)]
    table = BehaviorTable.from_flat(flat)
    # b varies fastest, then a, then y, then x
    assert table.probs[0, 0, 0, 0] == flat[0]
    assert table.probs[0, 0, 0, 1] == flat[1]
    assert table.probs[0, 0, 1, 0] == flat[2]
    assert table.probs[0, 1, 0, 0] == flat[4]
    assert table.probs[1, 0, 0, 0] == flat[8]
    assert len(set(flat)) == 16
    assert table.to_flat() == flat


def test_equality_is_identity_and_tables_hash():
    """Two tables of equal entries are distinct objects: the default dataclass == compared their arrays and raised."""
    first, second = BehaviorTable.from_flat([0.25] * 16), BehaviorTable.from_flat([0.25] * 16)
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_uniform_table_properties():
    table = UNIFORM
    assert table.normalization_defect < 1e-15
    assert table.signaling_defect < 1e-15
    assert np.all(np.abs(table.correlators) < 1e-15)


def test_correlator_signs():
    probs = np.zeros((2, 2, 2, 2))
    probs[:, :, 0, 0] = 0.5
    probs[:, :, 1, 1] = 0.5
    table = BehaviorTable(probs)
    assert np.all(np.abs(table.correlators - 1.0) < 1e-15)


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    raw = rng.random((2, 2, 2, 2))
    raw /= raw.sum(axis=(2, 3), keepdims=True)
    table = BehaviorTable(raw)
    path = tmp_path / "table.json"
    save_table(table, path, meta={"origin": "test"})
    loaded = load_table(path)
    assert loaded.to_flat() == table.to_flat()


def test_json_format_fields():
    payload = json.loads(table_to_json(UNIFORM))
    assert payload["settings"] == [2, 2]
    assert payload["outcomes"] == [2, 2]
    assert payload["px"] == [0.25] * 16


def test_load_rejects_bad_normalization():
    flat = [0.9 / 4.0] * 16  # settings sum to 0.9
    text = json.dumps({"px": flat})
    with pytest.raises(TableFormatError):
        table_from_json(text)


def test_load_rejects_missing_px():
    with pytest.raises(TableFormatError):
        table_from_json(json.dumps({"settings": [2, 2]}))


def test_load_rejects_wrong_length():
    with pytest.raises(TableFormatError):
        table_from_json(json.dumps({"px": [0.25] * 15}))


def test_load_rejects_wrong_scenario():
    with pytest.raises(TableFormatError):
        table_from_json(json.dumps({"settings": [3, 2], "px": [1.0 / 4.0] * 16}))


@pytest.mark.parametrize(
    "field,match",
    [
        ({"settings": 3}, "unsupported"),
        ({"outcomes": None}, "unsupported"),
        ({"outcomes": [2, 2, 2]}, "unsupported"),
        # A deterministic vertex spelled in booleans used to load as 1.0/0.0.
        ({"px": [True, False, False, False] * 4}, "not booleans"),
        # float("0.25") parses, so quoted numbers used to load as probabilities.
        ({"px": ["0.25"] * 16}, "not booleans, strings"),
        # A 401-digit integer used to escape as OverflowError.
        ({"px": [10**400] + [0.25] * 15}, "'px' entry out of floating-point range"),
        ({"px": [float("nan")] + [0.25] * 15}, "non-finite entries"),
    ],
    ids=["field0", "field1", "field2", "px_booleans", "px_strings", "px_past_float_range", "px_not_finite"],
)
def test_load_rejects_malformed_scenario(field, match):
    """Malformed fields end in TableFormatError; some used to escape as TypeError or OverflowError."""
    with pytest.raises(TableFormatError, match=match):
        table_from_json(json.dumps({"px": [0.25] * 16, **field}))


def test_load_rejects_invalid_json():
    with pytest.raises(TableFormatError):
        table_from_json("{not json")


def test_load_rejects_json_that_is_not_an_object():
    with pytest.raises(TableFormatError, match="^table file must contain a JSON object$"):
        table_from_json("[]")


def test_load_rejects_deeply_nested_json():
    """The decoder recurses per bracket; 50,000 levels used to escape as RecursionError."""
    depth = 50_000
    with pytest.raises(TableFormatError, match="not valid JSON"):
        table_from_json('{"px": ' + "[" * depth + "]" * depth + "}")


def test_load_reads_a_file_of_the_bound_and_rejects_one_byte_more(tmp_path):
    text = table_to_json(UNIFORM).encode()
    path = tmp_path / "padded.json"
    path.write_bytes(text + b" " * (MAX_TABLE_BYTES - len(text)))
    assert load_table(path).to_flat() == UNIFORM.to_flat()
    path.write_bytes(text + b" " * (MAX_TABLE_BYTES + 1 - len(text)))
    with pytest.raises(TableFormatError, match=f"^table file is larger than {MAX_TABLE_BYTES} bytes$"):
        load_table(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_load_reads_newlines_as_read_text_does(newline, tmp_path):
    """A JSON error names a line and column, so the file's newlines are read as ``Path.read_text`` reads them."""
    path = tmp_path / "table.json"
    path.write_bytes(table_to_json(UNIFORM).replace("\n", newline).encode())
    assert load_table(path).to_flat() == UNIFORM.to_flat()
    path.write_bytes('{\n"px":\r\n[0.25,\r\r0.25 0.25]}'.replace("\n", newline).encode())
    with pytest.raises(TableFormatError) as loaded:
        load_table(path)
    with pytest.raises(TableFormatError) as read:
        table_from_json(path.read_text(encoding="utf-8"))
    assert str(loaded.value) == str(read.value)


def _load_from_a_pipe_on_stdin(data):
    """``load_table("/dev/stdin")`` with fd 0 the read end of a pipe that holds ``data``."""
    read, write = os.pipe()
    saved = os.dup(0)
    try:
        os.write(write, data)
        os.close(write)
        os.dup2(read, 0)
        return load_table("/dev/stdin")
    finally:
        os.dup2(saved, 0)
        os.close(saved)
        os.close(read)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_load_leaks_no_descriptor_and_keeps_its_error_texts(tmp_path):
    """100 loads on each path, returning a table or raising, leave the process's open descriptors as they were."""
    text = table_to_json(UNIFORM).encode()
    files = {
        "valid.json": text,
        "latin1.json": '{"px": [0.25], "meta": "\u00e9"}'.encode("latin-1"),
        "bad.json": b'{"px": [0.25,',
        "long.json": text + b" " * (MAX_TABLE_BYTES + 1 - len(text)),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "dir").mkdir()
    # (load, the exception and its text, or None for a table)
    directory = (IsADirectoryError, f"[Errno 21] Is a directory: '{tmp_path}/dir'")
    cases = [
        (lambda: load_table(tmp_path / "valid.json"), None),
        (lambda: load_table(tmp_path / "dir"), directory),  # a Path, named as str(path)
        (lambda: load_table(tmp_path / "absent.json"), (FileNotFoundError, None)),
        (lambda: load_table(tmp_path / "latin1.json"), (UnicodeDecodeError, None)),
        (lambda: load_table(tmp_path / "bad.json"), (TableFormatError, None)),
        (lambda: load_table(tmp_path / "long.json"), (TableFormatError, None)),
    ]
    if os.path.exists("/dev/stdin"):
        cases.append((lambda: _load_from_a_pipe_on_stdin(text), None))
    for load, raised in cases:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(100):
            if raised is None:
                assert load().to_flat() == UNIFORM.to_flat()
            else:
                with pytest.raises(raised[0]) as error:
                    load()
                assert raised[1] is None or str(error.value) == raised[1]
        assert len(os.listdir("/proc/self/fd")) == before


def test_load_rejects_negative_entries():
    flat = [0.0] * 16
    for k in range(0, 16, 4):
        flat[k] = 1.1
        flat[k + 1] = -0.1
    with pytest.raises(TableFormatError):
        table_from_json(json.dumps({"px": flat}))


@pytest.mark.parametrize(
    "make", [BehaviorTable, lambda probs: BehaviorTable.from_flat(probs.reshape(-1))], ids=["init", "from_flat"]
)
def test_complex_tables_are_rejected(make):
    """The float cast used to drop imaginary parts with only a warning, so is_local_lp called this table local."""
    with pytest.raises(TableFormatError, match="^behavior table entries must be real, got complex values$"):
        make(np.full((2, 2, 2, 2), 0.25 + 1j))


def test_signaling_defect_detects_marginal_shift():
    probs = np.full((2, 2, 2, 2), 0.25)
    # Alice's marginal depends on Bob's setting y when x = 0
    probs[0, 1] = np.array([[0.5, 0.1], [0.1, 0.3]])
    table = BehaviorTable(probs)
    assert table.signaling_defect > 0.09
    assert not table.is_no_signaling()


def test_table_quantities_are_computed_once_and_read_only():
    """Construction, the facet test and the lhv-check report share one evaluation per table."""
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 1] = np.array([[0.5, 0.1], [0.1, 0.3]])
    table = BehaviorTable(probs)
    for name in ("correlators", "facets", "signaling_defect", "normalization_defect"):
        assert getattr(table, name) is getattr(table, name)
    for array in (table.correlators, table.facets):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert BehaviorTable(probs).correlators is not table.correlators


_TINY = 2.2250738585072014e-308  # the smallest normal float64; below it, subnormals
# Entries from 1e-300 to 1, exact zeros of both signs, subnormals and round-off negatives down to -NEGATIVITY_TOL.
_entry = st.one_of(
    st.floats(1e-300, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -NEGATIVITY_TOL]),
    st.floats(5e-324, _TINY, exclude_max=True),
    st.floats(-NEGATIVITY_TOL, 0.0),
)


@st.composite
def _tables(draw) -> np.ndarray:
    """Per setting pair, four drawn entries, left as drawn or normalized: one entry made 1 minus the
    others (scaled to sum to at most 1), so that entry may itself be a round-off negative.  A table
    may also repeat one normalized pair, so it is no-signaling and its defect is the sums' round-off."""
    mode = draw(st.sampled_from(["drawn", "normalized", "repeated"]))
    cells = []
    for _ in range(1 if mode == "repeated" else 4):
        cell = draw(st.lists(_entry, min_size=4, max_size=4))
        if mode != "drawn":
            k = draw(st.integers(0, 3))
            others = cell[:k] + cell[k + 1 :]
            total = others[0] + others[1] + others[2]
            if total > 1.0:
                others = [value / total for value in others]
            cell = others[:k] + [1.0 - (others[0] + others[1] + others[2])] + others[k:]
        cells.append(cell)
    return np.array(cells * (4 // len(cells))).reshape(2, 2, 2, 2)


# Every setting pair holds 1 and three halves of its last bit, the 1 first or last.  Summed in another
# order than left to right (reversed, pairwise, or the last three first), a pair's total rounds
# differently, and so do the marginals and correlators that hold the 1.
_HALF_ULP = 2.0**-53
_ORDER_TABLES = [
    np.array([cell] * 4).reshape(2, 2, 2, 2) for cell in ([1.0] + [_HALF_ULP] * 3, [_HALF_ULP] * 3 + [1.0])
]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=200, deadline=None)
@given(probs=_tables())
@example(probs=_ORDER_TABLES[0])
@example(probs=_ORDER_TABLES[1])
def test_table_quantities_have_the_bits_of_the_numpy_expressions(probs):
    """Construction accepts exactly the tables the numpy checks accept, and every quantity has their bits."""
    expected = probs + 0.0
    defect = numpy_normalization_defect(expected)
    if defect > NORMALIZATION_TOL:
        with pytest.raises(TableFormatError, match=f"^{re.escape(f'per-setting totals deviate from 1 by {defect}')}$"):
            BehaviorTable.from_flat(probs.reshape(-1).tolist())
        return
    table = BehaviorTable.from_flat(probs.reshape(-1).tolist())
    assert table.probs.tobytes() == expected.tobytes()
    assert _bits(table.normalization_defect) == _bits(defect)
    assert _bits(table.signaling_defect) == _bits(numpy_signaling_defect(expected))
    assert table.correlators.tobytes() == numpy_correlators(expected).tobytes()
    assert table.facets.tobytes() == numpy_facets(expected).tobytes()


def _correlated(e00: float) -> np.ndarray:
    """The no-signaling table (1 + ab E_xy) / 4 with E00 = e00 and the other correlators 0."""
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = np.array([[1.0 + e00, 1.0 - e00], [1.0 - e00, 1.0 + e00]]) / 4.0
    return probs


_STRINGS = r"^behavior table entries must be real, got non-numeric values$"


def _from_flat(probs) -> BehaviorTable:
    """from_flat of an array's entries; a list goes as it is, since from_flat flattens it and a ragged one cannot be."""
    return BehaviorTable.from_flat(np.reshape(probs, -1) if isinstance(probs, np.ndarray) else probs)


@pytest.mark.parametrize("make", [BehaviorTable, _from_flat], ids=["init", "from_flat"])
@pytest.mark.parametrize(
    "probs,match",
    [
        # Past E00 = 1 an entry is -0.05; the facet test used to call this table local.
        (_correlated(1.2), r"^behavior table has negative entry -0\.0499999"),
        (np.full((2, 2, 2, 2), 0.2), r"^per-setting totals deviate from 1 by 0\.19999"),
        # The float cast used to parse strings and bytes, and to overflow on integers past the float range.
        (np.full((2, 2, 2, 2), "0.25"), _STRINGS),
        (np.full((2, 2, 2, 2), b"0.25"), _STRINGS),
        (np.full((2, 2, 2, 2), "0.25").tolist(), _STRINGS),
        (np.full((2, 2, 2, 2), "0.25", dtype=object), _STRINGS),
        (np.full((2, 2, 2, 2), 10**400, dtype=object).tolist(), r"^behavior table entries must be real numbers: int"),
        # Ragged nesting used to escape as numpy's bare ValueError.
        ([[0.25] * 4, [0.25] * 12], r"^behavior table must be a regular array: "),
    ],
    ids=[
        "negative", "unnormalized", "strings", "bytes", "string_lists", "string_objects", "past_float_range", "ragged"
    ],
)
def test_construction_rejects_non_probability_tables(make, probs, match):
    """Every BehaviorTable is a probability table, not only one loaded from a file."""
    with pytest.raises(TableFormatError, match=match):
        make(probs)


@pytest.mark.parametrize(
    "make,values,match",
    [
        (BehaviorTable, np.full((4, 4), 1 / 16), r"^behavior table must have shape \(2,2,2,2\), got \(4, 4\)$"),
        (BehaviorTable.from_flat, [1 / 15] * 15, r"^flat behavior table must have 16 entries, got 15$"),
    ],
    ids=["init_4x4", "from_flat_15"],
)
def test_construction_rejects_wrong_sizes(make, values, match):
    with pytest.raises(TableFormatError, match=match):
        make(values)


def test_construction_keeps_round_off_negatives_and_totals():
    probs = _correlated(1.0)
    probs[0, 0, 0, 1] = -1e-13
    probs[0, 0, 0, 0] += 1e-13 + 1e-7
    assert BehaviorTable(probs).normalization_defect == pytest.approx(1e-7)


# Per setting pair, four weights with a positive sum; subnormals and exact zeros included.
_weights = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_weights, min_size=4, max_size=4))
def test_save_load_round_trips_random_tables_exactly(rows):
    probs = np.array(rows).reshape(2, 2, 2, 2)
    table = BehaviorTable(probs / probs.sum(axis=(2, 3), keepdims=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        save_table(table, path, meta={"seed": 1})
        loaded = load_table(path)
    assert loaded.probs.tobytes() == table.probs.tobytes()
