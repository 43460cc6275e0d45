"""Closed-form parameter scans, threshold verification and gap reports.

Everything here evaluates closed forms only, so scans stay cheap at any
dimension.  Output is deterministic: records are ordered by (N, F) and reals
are printed with 12 significant digits, which is diff-stable and hides the
last-bit float noise of grid generation.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .behavior import _freeze
from .chsh import chsh_closed_form, violation_threshold
from .sequential import success_probability
from .states import check_family, is_separable_family

BISECT_TOL = 1e-12  # bisect_threshold stops once its bracket is this narrow

# Largest number of records one scan may produce, the int64 range its record
# indices live in; grids are sized against it before anything is allocated.
MAX_SCAN_RECORDS = 2**63 - 1

# Most records per block when a scan is written out a block at a time, so
# the memory a scan takes does not grow with its grid.
BLOCK = 2**14

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
    return f"{value:.12g}"


def _grid_points(f_min: float, f_max: float, f_step: float) -> int:
    """Point count of the noise grid of :func:`scan_grid`, checked before anything is allocated."""
    if not (math.isfinite(f_min) and math.isfinite(f_max) and math.isfinite(f_step)):
        raise ValueError(f"grid bounds and step must be finite, got [{f_min}, {f_max}] step {f_step}")
    if f_step <= 0.0:
        raise ValueError(f"grid step must be positive, got {f_step}")
    if not (0.0 <= f_min <= f_max <= 1.0):
        raise ValueError(f"noise range [{f_min}, {f_max}] must lie inside [0, 1]")
    steps = (f_max - f_min) / f_step + 1e-9
    if steps >= MAX_SCAN_RECORDS:
        raise ValueError(f"grid step {f_step} gives more than {MAX_SCAN_RECORDS} noise points")
    return int(steps) + 1


def _record_count(dims: list[int], points: int) -> int:
    records = len(dims) * points
    if records > MAX_SCAN_RECORDS:
        raise ValueError(f"scan of {records} records exceeds the limit of {MAX_SCAN_RECORDS}")
    return records


def _closed_forms(n: int, grid: np.ndarray) -> tuple:
    """S, threshold, separability and success probability of dimension n along grid."""
    return (
        chsh_closed_form(n, grid),
        violation_threshold(n),
        is_separable_family(n, grid),
        success_probability(n, grid),
    )


def _dim_column(ordered: list[int]) -> np.ndarray:
    """A table's N column from its checked dimensions in ascending order.

    Dimensions past int64 are valid; an object column of Python ints keeps
    them exact, numpy unsigned ones included.
    """
    if ordered and ordered[-1] > np.iinfo(np.int64).max:
        return np.array([int(n) for n in ordered], dtype=object)
    return np.array(ordered, dtype=np.int64)


def scan_size(dims: list[int], f_min: float, f_max: float, f_step: float) -> int:
    """Record count of :func:`scan_grid`, after every check any block of it makes.

    Raises ``ValueError`` for a bad grid or a count past
    :data:`MAX_SCAN_RECORDS`, and ``OverflowError`` for a dimension past the
    float range, which depends on N alone; nothing grid-sized is allocated.
    """
    records = _record_count(dims, _grid_points(f_min, f_max, f_step))
    for n in dims:
        _closed_forms(n, np.array([f_min]))
    return records


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
    _record_count(dims, points)
    stop = points if stop is None else stop
    if not 0 <= start <= stop <= points:
        raise ValueError(f"point range [{start}, {stop}) is not inside the {points} points of the grid")
    ordered = sorted(dims)
    grid = f_min + np.arange(start, stop) * f_step
    # min(f, f_max), which keeps f on a tie: np.minimum would turn 0.0 into -0.0.
    grid = np.where(f_max < grid, f_max, grid)
    size = len(ordered) * len(grid)
    s_value = np.empty(size)
    threshold = np.empty(size)
    separable = np.empty(size, dtype=bool)
    success_prob = np.empty(size)
    for i, n in enumerate(ordered):
        rows = slice(i * len(grid), (i + 1) * len(grid))
        s_value[rows], threshold[rows], separable[rows], success_prob[rows] = _closed_forms(n, grid)
    noise = np.tile(grid, len(ordered))
    # violates and gap meet at the closed-form threshold, not at S = 2: S can
    # print as 2 at 12 digits on either side of it.  With separable, exactly
    # one of the three flags holds at every point.
    return Table(
        {
            "N": np.repeat(_dim_column(ordered), len(grid)),
            "F": noise,
            "S": s_value,
            "violates": noise < threshold,
            "threshold": threshold,
            "separable": separable,
            "gap": (noise >= threshold) & ~separable,
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
    ordered = [check_family(n, 0.0) for n in sorted(dims)]  # Python ints: n + 1 cannot wrap around
    lo = np.array([violation_threshold(n) for n in ordered], dtype=float)
    hi = np.array([n / (n + 1) for n in ordered], dtype=float)
    return Table({"N": _dim_column(ordered), "gap_lo": lo, "gap_hi": hi, "width": hi - lo})


def records_to_csv(records: Table, header: bool = True) -> str:
    """One line per record, after the header line unless ``header`` is false.

    Reals are written with 12 significant digits.  The header quotes the
    column names as ``csv.writer`` does.  The texts of consecutive blocks,
    only the first with its header, join into the text of the whole grid.
    """
    body = "".join(_rows(records, _csv_reals, format_real, _csv_template))
    return _csv_header(records.columns) + body if header else body


def _csv_header(names) -> str:
    """The header line as csv.writer writes it, but ended by "\n".

    A name with a comma, quote, CR or LF is quoted, its quotes doubled, and a
    lone empty name is written as "", which csv.reader reads back as one field.
    """
    quoted = ['"' + name.replace('"', '""') + '"' if set(name) & set(',"\r\n') else name for name in names]
    return (",".join(quoted) or '""') + "\n"


def records_to_json(records: Table, first: bool = True, last: bool = True) -> str:
    """What ``json.dumps(objects, indent=2)`` plus a newline writes, or a part of it.

    Each record is one object with the columns' names as keys and reals
    rounded to 12 significant digits.  ``first`` opens the list and ``last``
    closes it; the texts of consecutive non-empty blocks, flagged so, join
    into the text of the whole grid.
    """
    keys = [json.dumps(name).replace("%", "%%") for name in records.columns]

    def template(fields: list[str]) -> str:
        return "  {\n" + ",\n".join([f"    {key}: {field}" for key, field in zip(keys, fields)]) + "\n  }"

    body = ",\n".join(_rows(records, _json_reals, _json_text, template))
    if first and last and not body:
        return "[]\n"
    return ("[\n" if first else ",\n") + body + ("\n]\n" if last else "")


# threshold and gap output goes through these names too: the benchmark's
# tracer (perfbench/tracing.py) times them as call sites in noisybell.cli.
rows_to_csv = records_to_csv
rows_to_json = records_to_json


# json.dumps writes the floats whose repr is on the left as on the right.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value: float) -> str:
    """json's text of a real rounded to 12 significant digits, NaN and infinities too."""
    text = repr(float(format_real(value)))
    return _JSON_NON_FINITE.get(text, text)


def _is_real(column: np.ndarray) -> bool:
    return column.dtype.kind == "f"


def _csv_reals(column: np.ndarray) -> tuple[list, str]:
    return column.tolist(), "%.12g"


# "%.12g" already reads like repr of the float it rounds to on normal floats
# below 999999999999.5: repr also gives the shortest text that reads back as
# that float, and switches to exponent form only from 1e16, where "%.12g"
# does from a rounded 1e12.  Below the smallest normal float, fewer digits
# can read back as the same float.
_MIN_NORMAL = 2.2250738585072014e-308
_ROUNDS_TO_1E12 = 999999999999.5


def _json_reals(column: np.ndarray) -> tuple[list, str]:
    """A real column's values for a ``%.12g`` field, or its json texts for a ``%s`` field.

    ``"%.12g"`` is json's text for a normal real below 999999999999.5 unless
    it lacks both ``.`` and ``e``, which takes a real within half a unit of
    its 12th digit, at most 5e-12 of itself, of an integer.  Only the values
    outside that range or within 1e-11 of themselves of an integer go through
    :func:`_json_text`, once per float bit pattern, so ``0.0`` and ``-0.0``
    keep their own texts.  A column with any such value is written as texts.
    """
    values = column.tolist()
    magnitude = np.abs(column)
    with np.errstate(invalid="ignore"):  # inf - rint(inf)
        near_integer = np.abs(column - np.rint(column)) <= 1e-11 * magnitude
    odd = ~((_MIN_NORMAL <= magnitude) & (magnitude < _ROUNDS_TO_1E12)) | near_integer
    if not odd.any():
        return values, "%.12g"
    texts = ["%.12g" % x for x in values]
    memo: dict[int, str] = {}
    where = np.flatnonzero(odd)
    for i, bits in zip(where.tolist(), column.view(np.int64)[where].tolist()):
        if bits not in memo:
            memo[bits] = _json_text(values[i])
        texts[i] = memo[bits]
    return texts, "%s"


def _csv_template(fields: list[str]) -> str:
    return ",".join(fields) + "\n"


_BOOL_WORDS = np.array(["false", "true"], dtype=object)


def _cells(column: np.ndarray) -> list:
    """A column's values for a ``%s`` field: flags as JSON words, integers as they are."""
    return (_BOOL_WORDS[column.view(np.uint8)] if column.dtype == bool else column).tolist()


def _rows(records: Table, reals: Callable, real_text: Callable, template: Callable) -> list[str]:
    """The text of each record, from one row template of ``template(fields)``.

    ``reals(column)`` gives a real column's cells and its field, and
    ``real_text(x)`` the text of one real.  In a table of more than one
    record, a column whose values are bit-identical on every record, so
    ``0.0`` and ``-0.0`` differ, is written into the template once and never
    converted.
    """
    cells, fields = [], []
    for column in records.columns.values():
        if len(records) > 1 and _is_fixed(column):
            fields.append(_text(column, real_text).replace("%", "%%"))
        else:
            values, field = reals(column) if _is_real(column) else (_cells(column), "%s")
            cells.append(values)
            fields.append(field)
    row = template(fields)
    return [row % values for values in zip(*cells)] if cells else [row % ()] * len(records)


def _is_fixed(column: np.ndarray) -> bool:
    """Whether every record holds the first one's value, a real's by its bits."""
    key = column.view(np.int64) if _is_real(column) else column
    return bool((key == key[0]).all())


def _text(column: np.ndarray, real_text: Callable) -> str:
    """The text of a column's first record."""
    value = column[:1]
    return real_text(value.item()) if _is_real(column) else str(_cells(value)[0])
