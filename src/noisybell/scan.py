"""Closed-form parameter scans, threshold verification and gap reports.

Everything here evaluates closed forms only, so scans stay cheap at any
dimension.  Output is deterministic: records are ordered by (N, F) and reals
are printed with 12 significant digits, which is diff-stable and hides the
last-bit float noise of grid generation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .behavior import _freeze
from .family import (
    chsh_closed_form,
    is_separable_family,
    separability_threshold,
    success_probability,
    violates_chsh,
    violation_threshold,
)

BISECT_TOL = 1e-12  # bisect_threshold stops once its bracket is this narrow

# Largest number of records one scan may produce, the int64 range its record
# indices live in; grids are sized against it before anything is allocated.
MAX_SCAN_RECORDS = 2**63 - 1

# Most records per block when a scan is written out a block at a time, so
# the memory a scan takes does not grow with its grid.  A block's texts are
# held about four times over while it is written (column texts, the joined
# parts, the joined str, the encoded bytes).  2**12 is the knee, measured on
# the benchmark's scan-grid workload (2 shared vCPUs, Python 3.11): peak RSS
# is 39.5 MB against 45.9 MB at 2**14, while 2**11 and 2**10 read 39.6 and
# 39.5 MB and lose about a quarter of the records per second to the fixed
# cost of each block.
BLOCK = 2**12

# The column types a Table takes: reals, flags, and integers in and past int64.
_COLUMN_TYPES = tuple(map(np.dtype, (np.float64, bool, np.int64, object)))


@dataclass(frozen=True, eq=False)
class Table:
    """Records as named, read-only columns of equal length, in output order.

    The names are the CSV header and the JSON keys; element ``i`` of every
    column belongs to record ``i``, and ``len`` is the record count.  A
    column is a 1-D array of float64 (reals), bool (flags), int64 or object
    (Python integers, exact past int64).
    """

    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        for name, column in self.columns.items():
            if not isinstance(name, str):
                raise ValueError(f"column name {name!r} is not a string")
            if not (isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype in _COLUMN_TYPES):
                raise ValueError(f"column {name!r} is not a 1-D array of float64, bool, int64 or object")
            if column.dtype == object and not all(type(value) is int for value in column.tolist()):
                raise ValueError(f"object column {name!r} holds something other than Python integers")
        if len({len(column) for column in self.columns.values()}) != 1:
            raise ValueError("a table has one or more columns, all of one length")
        for column in self.columns.values():
            _freeze(column)
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


def format_real(value: float) -> str:
    return "%.12g" % value


def _grid_points(f_min: float, f_max: float, f_step: float) -> int:
    """Point count of the noise grid of :func:`scan_grid`, checked before anything is allocated."""
    if not (math.isfinite(f_min) and math.isfinite(f_max) and math.isfinite(f_step)):
        raise ValueError(f"grid bounds and step must be finite, got [{f_min}, {f_max}] step {f_step}")
    if f_step <= 0.0:
        raise ValueError(f"grid step must be positive, got {f_step}")
    if not (0.0 <= f_min <= f_max <= 1.0):
        raise ValueError(f"noise range [{f_min}, {f_max}] must lie inside [0, 1]")
    # An f_max on the grid can give a quotient short of its integer by the
    # inputs' rounding, which at millions of points exceeds any fixed slack;
    # the slack scales with it, but stays under half a step, so an f_max off
    # the grid gains no point.
    slack = min(max(1e-9, 4 * math.ulp(1.0) * (f_min + f_max) / f_step), 0.25)
    steps = (f_max - f_min) / f_step + slack
    if steps >= MAX_SCAN_RECORDS:
        raise ValueError(f"grid step {f_step} gives more than {MAX_SCAN_RECORDS} noise points")
    return int(steps) + 1


def _dim_column(ordered: list[int]) -> np.ndarray:
    """A table's N column from its checked dimensions in ascending order.

    Dimensions past int64 are valid; an object column of Python ints keeps
    them exact, numpy unsigned ones included.
    """
    if ordered and ordered[-1] > np.iinfo(np.int64).max:
        return np.array([int(n) for n in ordered], dtype=object)
    return np.array(ordered, dtype=np.int64)


def scan_blocks(
    dims: list[int], f_min: float, f_max: float, f_step: float
) -> Iterator[tuple[list[int], int, int, bool, bool]]:
    """Blocks of at most :data:`BLOCK` records to write a scan in, as ``(dims, start, stop, first, last)``.

    Runs :func:`scan_grid` on the first grid point of every dimension before
    it returns, so it raises what any block would (``ValueError`` for a bad
    grid or a count past :data:`MAX_SCAN_RECORDS`, ``OverflowError`` for a
    dimension past the float range) and allocates nothing grid-sized.  A
    block is ``scan_grid(dims, f_min, f_max, f_step, start, stop)``: whole
    dimensions while they fit in one, else one dimension a range of points
    at a time.  ``first`` and ``last`` flag the blocks whose texts open and
    close the output.
    """
    scan_grid(dims, f_min, f_max, f_step, 0, 1)
    ordered = sorted(dims)
    points = _grid_points(f_min, f_max, f_step)
    per_block = max(1, BLOCK // points)

    def blocks() -> Iterator[tuple[list[int], int, int, bool, bool]]:
        for i in range(0, len(ordered), per_block):
            last_dims = i + per_block >= len(ordered)
            for start in range(0, points, BLOCK):
                stop = min(start + BLOCK, points)
                yield ordered[i : i + per_block], start, stop, i == 0 and start == 0, last_dims and stop == points

    return blocks()


def scan_grid(
    dims: list[int], f_min: float, f_max: float, f_step: float, start: int = 0, stop: int | None = None
) -> Table:
    """Records of every (N, F) pair, N ascending, F along the noise grid.

    The grid is f_min, f_min + f_step, ... inclusive, clamped into
    [f_min, f_max].  ``start`` and ``stop`` select its points
    k = start .. stop - 1, each still f_min + k * f_step, of every dimension,
    so a caller can take a grid in blocks of bounded size: whole dimensions,
    or one dimension a range of points at a time.
    """
    points = _grid_points(f_min, f_max, f_step)
    if len(dims) * points > MAX_SCAN_RECORDS:
        raise ValueError(f"scan of {len(dims) * points} records exceeds the limit of {MAX_SCAN_RECORDS}")
    stop = points if stop is None else stop
    if not 0 <= start <= stop <= points:
        raise ValueError(f"point range [{start}, {stop}) is not inside the {points} points of the grid")
    ordered = sorted(dims)
    grid = f_min + np.arange(start, stop) * f_step
    # min(f, f_max), which keeps f on a tie: np.minimum would turn 0.0 into -0.0.
    grid = np.where(f_max < grid, f_max, grid)
    size = len(ordered) * len(grid)
    s_value = np.empty(size)
    violates = np.empty(size, dtype=bool)
    threshold = np.empty(size)
    separable = np.empty(size, dtype=bool)
    success_prob = np.empty(size)
    for i, n in enumerate(ordered):
        rows = slice(i * len(grid), (i + 1) * len(grid))
        s_value[rows] = chsh_closed_form(n, grid)
        violates[rows] = violates_chsh(n, grid)
        threshold[rows] = violation_threshold(n)
        separable[rows] = is_separable_family(n, grid)
        success_prob[rows] = success_probability(n, grid)
    # violates is decided exactly, not from S: S can print as 2 at 12 digits
    # on either side of the threshold.  With separable, exactly one of the
    # three flags holds at every point.
    return Table(
        {
            "N": np.repeat(_dim_column(ordered), len(grid)),
            "F": np.tile(grid, len(ordered)),
            "S": s_value,
            "violates": violates,
            "threshold": threshold,
            "separable": separable,
            "gap": ~violates & ~separable,
            "success_prob": success_prob,
        }
    )


def bisect_threshold(n: int) -> float:
    """Root of chsh_closed_form(n, F) = 2 in F, by bisection.

    Independent check of :func:`violation_threshold`; the closed form is
    strictly decreasing in F, from 2*sqrt(2) at F=0 to 0 at F=1.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if hi - lo <= BISECT_TOL:
            break
        mid = (lo + hi) / 2.0
        if chsh_closed_form(n, mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def threshold_rows(dims: list[int]) -> Table:
    """Closed-form violation threshold of each dimension beside its bisection root, N ascending."""
    ordered = sorted(dims)
    closed = np.array([violation_threshold(n) for n in ordered], dtype=float)
    root = np.array([bisect_threshold(n) for n in ordered], dtype=float)
    return Table(
        {
            "N": _dim_column(ordered),
            "threshold_closed_form": closed,
            "bisection_root": root,
            "abs_diff": np.abs(closed - root),
        }
    )


def gap_rows(dims: list[int]) -> Table:
    """Noise intervals where the state is entangled but does not violate CHSH, N ascending."""
    ordered = sorted(dims)
    lo = np.array([violation_threshold(n) for n in ordered], dtype=float)
    hi = np.array([separability_threshold(n) for n in ordered], dtype=float)
    return Table({"N": _dim_column(ordered), "gap_lo": lo, "gap_hi": hi, "width": hi - lo})


def records_to_csv(records: Table, header: bool = True) -> str:
    """One line per record, after the header line unless ``header`` is false.

    Reals are written with 12 significant digits.  The header quotes the
    column names as ``csv.writer`` does.  The texts of consecutive blocks,
    only the first with its header, join into the text of the whole grid.
    """
    head = _csv_header(records.columns) if header else ""
    return _join(records, _csv_texts, [""] + [","] * (len(records.columns) - 1), "\n", "", head, "")


def _csv_header(names) -> str:
    """The header line as csv.writer writes it, but ended by "\n"."""
    buf = io.StringIO()
    csv.writer(buf).writerow(names)
    return buf.getvalue().removesuffix("\r\n") + "\n"


def records_to_json(records: Table, first: bool = True, last: bool = True) -> str:
    """What ``json.dumps(objects, indent=2)`` plus a newline writes, or a part of it.

    Each record is one object with the columns' names as keys and reals
    rounded to 12 significant digits.  ``first`` opens the list and ``last``
    closes it; the texts of consecutive non-empty blocks, flagged so, join
    into the text of the whole grid.
    """
    keys = [json.dumps(name) + ": " for name in records.columns]
    literals = ["  {\n    " + keys[0]] + [",\n    " + key for key in keys[1:]]
    if first and last and len(records) == 0:
        return "[]\n"
    return _join(records, _json_texts, literals, "\n  }", ",\n", "[\n" if first else ",\n", "\n]\n" if last else "")


# threshold and gap output goes through these names too: the benchmark's
# tracer (perfbench/tracing.py) times them as call sites in noisybell.cli.
rows_to_csv = records_to_csv
rows_to_json = records_to_json

_BOOL_WORDS = np.array(["false", "true"], dtype=object)


def _csv_texts(column: np.ndarray) -> list[str]:
    """A column's texts: reals with 12 significant digits, flags as ``true``/``false``, integers as they are."""
    if column.dtype.kind == "f":
        return ["%.12g" % x for x in column.tolist()]
    if column.dtype == bool:
        return _BOOL_WORDS[column.view(np.uint8)].tolist()
    return list(map(str, column.tolist()))


# The smallest normal float: below it, fewer digits than "%.12g" writes can
# read back as the same float, so repr's text can be shorter.
_MIN_NORMAL = 2.2250738585072014e-308


def _json_texts(column: np.ndarray) -> list[str]:
    """A column's json texts: its CSV texts, with the reals json writes otherwise replaced.

    ``"%.12g"`` reads like repr of the float it rounds to, the shortest text
    that reads back as that float, on a normal finite real unless it lacks
    both ``.`` and ``e``, which takes a real within half a unit of its 12th
    digit, at most 5e-12 of itself, of an integer.  Only the reals that are
    not normal and finite, or are within 1e-11 of themselves of an integer,
    get ``json.dumps`` of the float their text reads as, so ``0.0`` and
    ``-0.0`` keep their own texts.  The near-integer test takes every
    finite real of magnitude 5e10 or more, where |v - rint(v)| <= 0.5 <=
    1e-11 |v|, and so every text in exponent form, which ``"%.12g"`` writes
    from a rounded 1e12 and repr only from 1e16.
    """
    texts = _csv_texts(column)
    if column.dtype.kind != "f":
        return texts
    magnitude = np.abs(column)
    with np.errstate(invalid="ignore"):  # inf - rint(inf)
        near_integer = np.abs(column - np.rint(column)) <= 1e-11 * magnitude
    odd = np.flatnonzero(~(np.isfinite(column) & (_MIN_NORMAL <= magnitude)) | near_integer)
    for i in odd.tolist():
        texts[i] = json.dumps(float(texts[i]))
    return texts


def _join(records: Table, texts: Callable, literals: list[str], end: str, between: str, head: str, tail: str) -> str:
    """``head``, the text of every record, ``between`` records, and ``tail``, by one join.

    A record is ``literals[0]``, the text of its first column,
    ``literals[1]``, ..., and ``end``; ``texts(column)`` gives a column's
    texts.  One row template, repeated once per record, holds the literals
    and a slot per column, and each column's texts fill their slots by one
    slice assignment.  In a table of more than one record, a column whose
    values are bit-identical on every record, so ``0.0`` and ``-0.0``
    differ, is folded into the literal before it and converted once.
    ``head`` and ``tail`` go into the first and last parts, so the joined
    text is never copied to add them.
    """
    row, slots, literal = [], [], ""
    for prefix, column in zip(literals, records.columns.values()):
        literal += prefix
        if len(records) > 1 and _is_fixed(column):
            literal += texts(column[:1])[0]
        else:
            slots.append((len(row) + 1, column))
            row += [literal, None]
            literal = ""
    row.append(literal + end + between)
    parts = row * len(records)
    for slot, column in slots:
        parts[slot :: len(row)] = texts(column)
    if not parts:
        return head + tail
    parts[0] = head + parts[0]
    parts[-1] = literal + end + tail
    return "".join(parts)


def _is_fixed(column: np.ndarray) -> bool:
    """Whether every record holds the first one's value, a real's by its bits."""
    key = column.view(np.int64) if column.dtype.kind == "f" else column
    return bool((key == key[0]).all())
