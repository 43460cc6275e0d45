import json

import numpy as np
import pytest

from noisybell import BehaviorTable, TableFormatError, load_table, save_table
from noisybell.behavior import table_from_json, table_to_json


def test_flat_order_is_xyab_lexicographic():
    flat = list(range(16))
    table = BehaviorTable.from_flat(flat)
    # b varies fastest, then a, then y, then x
    assert table.probs[0, 0, 0, 0] == 0
    assert table.probs[0, 0, 0, 1] == 1
    assert table.probs[0, 0, 1, 0] == 2
    assert table.probs[0, 1, 0, 0] == 4
    assert table.probs[1, 0, 0, 0] == 8
    assert table.to_flat() == [float(v) for v in flat]


def test_uniform_table_properties():
    table = BehaviorTable.uniform()
    assert table.normalization_defect() < 1e-15
    assert table.signaling_defect() < 1e-15
    assert all(abs(table.correlator(x, y)) < 1e-15 for x in range(2) for y in range(2))


def test_correlator_signs():
    probs = np.zeros((2, 2, 2, 2))
    probs[:, :, 0, 0] = 0.5
    probs[:, :, 1, 1] = 0.5
    table = BehaviorTable(probs)
    assert all(abs(table.correlator(x, y) - 1.0) < 1e-15 for x in range(2) for y in range(2))


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
    payload = json.loads(table_to_json(BehaviorTable.uniform()))
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
    ],
    ids=["field0", "field1", "field2", "px_booleans", "px_strings"],
)
def test_load_rejects_malformed_scenario(field, match):
    """Non-list scenario fields used to escape as a TypeError."""
    with pytest.raises(TableFormatError, match=match):
        table_from_json(json.dumps({"px": [0.25] * 16, **field}))


def test_load_rejects_invalid_json():
    with pytest.raises(TableFormatError):
        table_from_json("{not json")


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


def test_signaling_defect_detects_marginal_shift():
    probs = np.full((2, 2, 2, 2), 0.25)
    # Alice's marginal depends on Bob's setting y when x = 0
    probs[0, 1] = np.array([[0.5, 0.1], [0.1, 0.3]])
    table = BehaviorTable(probs)
    assert table.signaling_defect() > 0.09
    assert not table.is_no_signaling()
