import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisybell import BehaviorTable, TableFormatError, chsh_facets, load_table, save_table
from noisybell.behavior import table_from_json, table_to_json

from dense import UNIFORM


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
    ],
    ids=["field0", "field1", "field2", "px_booleans", "px_strings", "px_past_float_range"],
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
    for name in ("correlators", "signaling_defect", "normalization_defect"):
        assert getattr(table, name) is getattr(table, name)
    assert chsh_facets(table=table).tobytes() == chsh_facets(table).tobytes()  # the public signature is unchanged
    for array in (table.correlators, chsh_facets(table)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert BehaviorTable(probs).correlators is not table.correlators


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
