"""Two-setting / two-outcome behavior tables and their on-disk format.

A behavior table stores P(a, b | x, y) for settings x, y in {0, 1} and
outcomes a, b in {+1, -1}.  Outcome index 0 means +1.  The flat serialization
order is lexicographic in (x, y, a, b) with b varying fastest, which is also
the order of the 16-entry ``px`` list in the JSON file format::

    {"settings": [2, 2], "outcomes": [2, 2], "px": [p0000, p0001, ...]}

``px`` is mandatory; ``settings`` and ``outcomes`` are validated when present
and must equal [2, 2].  Unknown keys (e.g. ``meta``) are ignored on load.

A table computes its checks and every derived quantity (the defects, the
correlators and the 8 CHSH facets) once, when it is built, from its 16
entries as Python floats: on 16 numbers that is cheaper than numpy's
per-call cost, and the sums are written in numpy's order, so every value
keeps the bits of the numpy expression it stands for.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import stat
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FLAT_LENGTH = 16
NORMALIZATION_TOL = 1e-6  # largest deviation of a per-setting total from 1
SIGNALING_TOL = 1e-8  # largest marginal shift still read as no-signaling
NEGATIVITY_TOL = 1e-12  # entries down to -NEGATIVITY_TOL count as round-off
MAX_TABLE_BYTES = 1 << 20  # the largest table file load_table reads; a canonical one is under 600 bytes
_READ_CHUNK = 1 << 16


class TableFormatError(ValueError):
    """A behavior-table file or array failed parsing or validation."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@contextlib.contextmanager
def _overwrite(path: str | Path) -> Iterator[Callable[[str], object]]:
    """The UTF-8 write function of ``path``, which is rewritten in place and then cut to length.

    The file is opened without ``O_TRUNC``; once the writes are done it is
    truncated at the final position.  A finished write leaves the bytes a fresh
    file would hold, in the same inode with the same permissions.  An exception
    during the writes, ``KeyboardInterrupt`` included, still cuts the file, so
    it holds exactly what was written before it; if that cut fails too, the
    first exception is the one raised.  Only a regular file is cut: ``ftruncate``
    fails on ``/dev/null``, a FIFO or a pipe.  A process killed with no cleanup
    (SIGKILL, or SIGTERM with its default action) mid-write can leave the new
    bytes followed by the old file's tail.

    Why not ``open(path, "w")``: most likely ext4's default ``auto_da_alloc``.
    Truncating a file to zero makes its ``close()`` start writeback, and the
    next ``O_TRUNC`` open of that file waits for it.  Rewriting a 600-byte
    file (4 files in turn, 2 ms apart, 2 shared vCPUs, medians) took 181-212 µs
    to open, 17-18 µs to write and 26-28 µs to close with ``O_TRUNC``;
    15, 16 and 2 µs without it and with the trailing cut.  With ``O_TRUNC``,
    ``save_table`` took 0.51-0.57 ms of a 2.7-3.1 ms in-process
    ``sample --dim 24 --count 100000 --out`` op, and under cProfile the open
    of each 10 MB CSV or 2.4 MB JSON ``scan --out`` took about 4 ms.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    f = open(fd, "w", encoding="utf-8")
    cut = f.truncate if stat.S_ISREG(os.fstat(fd).st_mode) else f.flush  # truncate flushes, then cuts where it is
    try:
        yield f.write
        cut()
    except BaseException:
        with contextlib.suppress(OSError), f:  # the exception that stopped the write is the one to report
            cut()
        raise
    f.close()


def _entries(values: object) -> np.ndarray:
    """``np.asarray(values)``, with ragged nesting raised as a TableFormatError."""
    try:
        return np.asarray(values)
    except ValueError as exc:  # numpy: "... has an inhomogeneous shape ..."
        raise TableFormatError(f"behavior table must be a regular array: {exc}") from exc


# The 8 CHSH facets in the order of _derived's facet values: the minus sign
# on E00, E01, E10, E11 in turn, each with the global sign + then -.
FACET_LABELS = (
    "+[E01+E10+E11-E00]",
    "-[E01+E10+E11-E00]",
    "+[E00+E10+E11-E01]",
    "-[E00+E10+E11-E01]",
    "+[E00+E01+E11-E10]",
    "-[E00+E01+E11-E10]",
    "+[E00+E01+E10-E11]",
    "-[E00+E01+E10-E11]",
)


def _derived(p: list[float]) -> tuple[float, float, list[float], list[float]]:
    """normalization_defect, signaling_defect, the correlators and the 8 facets of the flat entries ``p``.

    Every sum runs left to right, which is numpy's own order for a sum of
    fewer than 8 terms, so each value has the bits of the numpy expression
    on the (2, 2, 2, 2) array that it stands for.  Built-in ``sum`` is
    avoided: from Python 3.12 it compensates float sums, which changes bits.
    """
    # s, t, u, v are the setting pairs (x, y) = 00, 01, 10, 11; 0 to 3 their outcomes ++, +-, -+, --.
    s0, s1, s2, s3, t0, t1, t2, t3, u0, u1, u2, u3, v0, v1, v2, v3 = p
    normalization = max(
        abs(s0 + s1 + s2 + s3 - 1.0),
        abs(t0 + t1 + t2 + t3 - 1.0),
        abs(u0 + u1 + u2 + u3 - 1.0),
        abs(v0 + v1 + v2 + v3 - 1.0),
    )
    signaling = max(
        # Alice's marginal P(a | x, y) at y = 0 against y = 1 ...
        abs((s0 + s1) - (t0 + t1)),
        abs((s2 + s3) - (t2 + t3)),
        abs((u0 + u1) - (v0 + v1)),
        abs((u2 + u3) - (v2 + v3)),
        # ... and Bob's P(b | x, y) at x = 0 against x = 1.
        abs((s0 + s2) - (u0 + u2)),
        abs((s1 + s3) - (u1 + u3)),
        abs((t0 + t2) - (v0 + v2)),
        abs((t1 + t3) - (v1 + v3)),
    )
    e00, e01, e10, e11 = s0 - s1 - s2 + s3, t0 - t1 - t2 + t3, u0 - u1 - u2 + u3, v0 - v1 - v2 + v3
    total = e00 + e01 + e10 + e11
    # In FACET_LABELS order.
    f00, f01, f10, f11 = total - 2.0 * e00, total - 2.0 * e01, total - 2.0 * e10, total - 2.0 * e11
    return normalization, signaling, [e00, e01, e10, e11], [f00, -f00, f01, -f01, f10, -f10, f11, -f11]


@dataclass(frozen=True, eq=False)
class BehaviorTable:
    """Probabilities indexed [x][y][a][b] with outcome index 0 = +1.

    Every table is a probability table: construction raises
    :class:`TableFormatError` unless the entries are real, finite, at least
    -NEGATIVITY_TOL and sum to 1 within NORMALIZATION_TOL per setting pair.
    Construction also computes the derived quantities below, once.
    """

    probs: np.ndarray
    normalization_defect: float = field(init=False, repr=False)
    """Largest deviation of a per-setting total from 1."""
    signaling_defect: float = field(init=False, repr=False)
    """How much one side's marginals depend on the other side's setting."""
    correlators: np.ndarray = field(init=False, repr=False)
    """All E(x, y) = P(++) - P(+-) - P(-+) + P(--) as a read-only 2x2 array [x][y]."""
    facets: np.ndarray = field(init=False, repr=False)
    """The 8 CHSH expressions as a read-only array, in :data:`FACET_LABELS` order:
    the minus sign on E00, E01, E10 and E11 in turn, each with the global sign + then -."""

    def __post_init__(self) -> None:
        raw = _entries(self.probs)
        # The float cast would drop imaginary parts with only a warning, and parse "0.25" and b"0.25".
        kind = raw.dtype.kind
        if kind not in "biufO" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in raw.flat)):
            got = "complex" if kind == "c" else "non-numeric"
            raise TableFormatError(f"behavior table entries must be real, got {got} values")
        try:
            probs = raw.astype(float)
        except (OverflowError, TypeError) as exc:  # an integer past the float range, a complex object
            raise TableFormatError(f"behavior table entries must be real numbers: {exc}") from exc
        if probs.shape != (2, 2, 2, 2):
            raise TableFormatError(f"behavior table must have shape (2,2,2,2), got {probs.shape}")
        # + 0.0 turns a -0.0 entry into 0.0 and keeps every other bit, so a file that
        # writes its zeros as -0.0 prints the same verdict and weights as one with 0.0.
        probs += 0.0  # astype made a copy
        flat = probs.ravel().tolist()
        if not all(map(math.isfinite, flat)):
            raise TableFormatError("behavior table contains non-finite entries")
        low = min(flat)
        if low < -NEGATIVITY_TOL:
            raise TableFormatError(f"behavior table has negative entry {low}")
        normalization, signaling, corr, facets = _derived(flat)
        if normalization > NORMALIZATION_TOL:
            raise TableFormatError(f"per-setting totals deviate from 1 by {normalization}")
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "normalization_defect", normalization)
        object.__setattr__(self, "signaling_defect", signaling)
        object.__setattr__(self, "correlators", _freeze(np.array(corr).reshape(2, 2)))
        object.__setattr__(self, "facets", _freeze(np.array(facets)))

    @classmethod
    def from_flat(cls, values: object) -> "BehaviorTable":
        entries = _entries(values)
        if entries.size != FLAT_LENGTH:
            raise TableFormatError(f"flat behavior table must have 16 entries, got {entries.size}")
        return cls(entries.reshape(2, 2, 2, 2))

    def to_flat(self) -> list[float]:
        return [float(v) for v in self.probs.reshape(-1)]

    def is_no_signaling(self) -> bool:
        return self.signaling_defect <= SIGNALING_TOL


def table_to_json(table: BehaviorTable, meta: dict | None = None) -> str:
    """Serialize a table to the canonical JSON format (exact float round trip)."""
    payload: dict = {"settings": [2, 2], "outcomes": [2, 2], "px": table.to_flat()}
    if meta:
        payload["meta"] = meta
    return json.dumps(payload, indent=2) + "\n"


_JSON_NUMBERS = frozenset((int, float))


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
    if not isinstance(px, list):
        raise TableFormatError("'px' must be a list of 16 probabilities")
    # bool is an int subclass and float("0.25") parses, so test the JSON type itself.
    if not _JSON_NUMBERS.issuperset(map(type, px)):
        raise TableFormatError("'px' entries must be JSON numbers, not booleans, strings, null, lists or objects")
    try:
        table = BehaviorTable.from_flat([float(v) for v in px])
    except OverflowError as exc:  # an integer entry past the float range
        raise TableFormatError(f"'px' entry out of floating-point range: {exc}") from exc
    return table


def save_table(table: BehaviorTable, path: str | Path, meta: dict | None = None) -> None:
    """Write ``table_to_json(table, meta)`` to ``path``; an existing file is rewritten in place and cut to length."""
    with _overwrite(path) as write:
        write(table_to_json(table, meta=meta))


def load_table(path: str | Path) -> BehaviorTable:
    """Parse the table file at ``path``, which may also be a pipe or a device.

    The path is used as given, so ``table.json/`` is ``[Errno 20] Not a
    directory``, and a directory is ``[Errno 21] Is a directory``, as
    ``open`` words it.  The file is read with ``os.read`` on a descriptor that
    is closed on every path, at most MAX_TABLE_BYTES + 1 bytes in chunks of
    at most 64 KiB, since one read of the whole bound would allocate it for
    every small file; a longer file is a TableFormatError.  The text is UTF-8
    with universal newlines, as ``Path.read_text(encoding="utf-8")`` reads it,
    so a JSON error names the same line and column.
    """
    data = bytearray()
    fd = os.open(path, os.O_RDONLY)
    try:
        # os.open opens a directory for reading, and its read error would name no file.
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        while chunk := os.read(fd, min(_READ_CHUNK, MAX_TABLE_BYTES + 1 - len(data))):  # read(0) ends it at the bound
            data += chunk
    finally:
        os.close(fd)
    if len(data) > MAX_TABLE_BYTES:
        raise TableFormatError(f"table file is larger than {MAX_TABLE_BYTES} bytes")
    return table_from_json(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
