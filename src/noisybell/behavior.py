"""Two-setting / two-outcome behavior tables and their on-disk format.

A behavior table stores P(a, b | x, y) for settings x, y in {0, 1} and
outcomes a, b in {+1, -1}.  Outcome index 0 means +1.  The flat serialization
order is lexicographic in (x, y, a, b) with b varying fastest, which is also
the order of the 16-entry ``px`` list in the JSON file format::

    {"settings": [2, 2], "outcomes": [2, 2], "px": [p0000, p0001, ...]}

``px`` is mandatory; ``settings`` and ``outcomes`` are validated when present
and must equal [2, 2].  Unknown keys (e.g. ``meta``) are ignored on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

FLAT_LENGTH = 16
NORMALIZATION_TOL = 1e-6  # largest deviation of a per-setting total from 1
SIGNALING_TOL = 1e-8  # largest marginal shift still read as no-signaling
NEGATIVITY_TOL = 1e-12  # entries down to -NEGATIVITY_TOL count as round-off


class TableFormatError(ValueError):
    """A behavior-table file or array failed parsing or validation."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _entries(values: object) -> np.ndarray:
    """``np.asarray(values)``, with ragged nesting raised as a TableFormatError."""
    try:
        return np.asarray(values)
    except ValueError as exc:  # numpy: "... has an inhomogeneous shape ..."
        raise TableFormatError(f"behavior table must be a regular array: {exc}") from exc


@dataclass(frozen=True)
class BehaviorTable:
    """Probabilities indexed [x][y][a][b] with outcome index 0 = +1.

    Every table is a probability table: construction raises
    :class:`TableFormatError` unless the entries are real, finite, at least
    -NEGATIVITY_TOL and sum to 1 within NORMALIZATION_TOL per setting pair.
    The derived quantities are computed on first use and kept.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        raw = _entries(self.probs)
        # The float cast would drop imaginary parts with only a warning, and parse "0.25" and b"0.25".
        strings = raw.dtype == object and any(isinstance(v, (str, bytes)) for v in raw.flat)
        if raw.dtype.kind not in "biufO" or strings:
            got = "complex" if raw.dtype.kind == "c" else "non-numeric"
            raise TableFormatError(f"behavior table entries must be real, got {got} values")
        try:
            probs = raw.astype(float)
        except (OverflowError, TypeError) as exc:  # an integer past the float range, a complex object
            raise TableFormatError(f"behavior table entries must be real numbers: {exc}") from exc
        if probs.shape != (2, 2, 2, 2):
            raise TableFormatError(f"behavior table must have shape (2,2,2,2), got {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise TableFormatError("behavior table contains non-finite entries")
        if probs.min() < -NEGATIVITY_TOL:
            raise TableFormatError(f"behavior table has negative entry {float(probs.min())}")
        # + 0.0 turns a -0.0 entry into 0.0 and keeps every other bit, so a file that
        # writes its zeros as -0.0 prints the same verdict and weights as one with 0.0.
        object.__setattr__(self, "probs", _freeze(probs + 0.0))
        if self.normalization_defect > NORMALIZATION_TOL:
            raise TableFormatError(f"per-setting totals deviate from 1 by {self.normalization_defect}")

    @classmethod
    def from_flat(cls, values: object) -> "BehaviorTable":
        flat = _entries(values).reshape(-1)
        if flat.size != FLAT_LENGTH:
            raise TableFormatError(f"flat behavior table must have 16 entries, got {flat.size}")
        return cls(flat.reshape(2, 2, 2, 2))

    def to_flat(self) -> list[float]:
        return [float(v) for v in self.probs.reshape(-1)]

    @cached_property
    def correlators(self) -> np.ndarray:
        """All E(x, y) = P(++) - P(+-) - P(-+) + P(--) as a read-only 2x2 array [x][y]."""
        p = self.probs
        return _freeze(p[:, :, 0, 0] - p[:, :, 0, 1] - p[:, :, 1, 0] + p[:, :, 1, 1])

    @cached_property
    def normalization_defect(self) -> float:
        """Largest deviation of a per-setting total from 1."""
        return float(np.max(np.abs(self.probs.sum(axis=(2, 3)) - 1.0)))

    @cached_property
    def signaling_defect(self) -> float:
        """How much one side's marginals depend on the other side's setting."""
        marg_a = self.probs.sum(axis=3)  # [x][y][a]
        marg_b = self.probs.sum(axis=2)  # [x][y][b]
        defect_a = np.max(np.abs(marg_a[:, 0, :] - marg_a[:, 1, :]))
        defect_b = np.max(np.abs(marg_b[0, :, :] - marg_b[1, :, :]))
        return float(max(defect_a, defect_b))

    def is_no_signaling(self) -> bool:
        return self.signaling_defect <= SIGNALING_TOL


def table_to_json(table: BehaviorTable, meta: dict | None = None) -> str:
    """Serialize a table to the canonical JSON format (exact float round trip)."""
    payload: dict = {"settings": [2, 2], "outcomes": [2, 2], "px": table.to_flat()}
    if meta:
        payload["meta"] = meta
    return json.dumps(payload, indent=2) + "\n"


def table_from_json(text: str) -> BehaviorTable:
    """Parse and validate the canonical JSON format."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise TableFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TableFormatError("table file must contain a JSON object")
    for key in ("settings", "outcomes"):
        if key in payload and payload[key] != [2, 2]:
            raise TableFormatError(f"unsupported {key} {payload[key]}; only [2, 2] scenarios")
    if "px" not in payload:
        raise TableFormatError("table file is missing the 'px' probability list")
    px = payload["px"]
    if not isinstance(px, list) or len(px) != FLAT_LENGTH:
        raise TableFormatError("'px' must be a list of 16 probabilities")
    # bool is an int subclass and float("0.25") parses, so test the JSON type itself.
    if not all(type(v) in (int, float) for v in px):
        raise TableFormatError("'px' entries must be JSON numbers, not booleans, strings, null, lists or objects")
    try:
        table = BehaviorTable.from_flat([float(v) for v in px])
    except OverflowError as exc:  # an integer entry past the float range
        raise TableFormatError(f"'px' entry out of floating-point range: {exc}") from exc
    return table


def save_table(table: BehaviorTable, path: str | Path, meta: dict | None = None) -> None:
    Path(path).write_text(table_to_json(table, meta=meta), encoding="utf-8")


def load_table(path: str | Path) -> BehaviorTable:
    return table_from_json(Path(path).read_text(encoding="utf-8"))
