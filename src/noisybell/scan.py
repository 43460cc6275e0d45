"""Closed-form parameter scans, threshold verification and gap reports.

Everything here evaluates closed forms only, so scans stay cheap at any
dimension.  Output is deterministic: records are ordered by (N, F) and reals
are printed with 12 significant digits, which is diff-stable and hides the
last-bit float noise of grid generation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .behavior import _freeze
from .chsh import chsh_closed_form, violation_threshold
from .sequential import success_probability
from .states import is_separable_family

CSV_HEADER = "N,F,S,violates,threshold,separable,gap,success_prob"

# Strict-violation margin: S must clear 2 by more than accumulated round-off.
VIOLATION_MARGIN = 1e-12
BISECT_TOL = 1e-12  # bisect_threshold stops once its bracket is this narrow

# Largest number of records one scan may produce, the int64 range its record
# indices live in; grids are sized against it before anything is allocated.
MAX_SCAN_RECORDS = 2**63 - 1

# Records per block when a scan is written out block by block, so the memory
# a scan takes does not grow with its grid.
BLOCK = 2**14


@dataclass(frozen=True)
class ScanRecord:
    """Classification of one (N, F) grid point."""

    dim: int
    noise: float
    s_value: float
    violates: bool
    threshold: float
    separable: bool
    gap: bool
    success_prob: float


@dataclass(frozen=True)
class ScanGrid:
    """All records of an (N, F) scan as read-only columns, in (N, F) order.

    Column ``i`` of every field belongs to record ``i``; iterating yields the
    records as :class:`ScanRecord` values.
    """

    dim: np.ndarray
    noise: np.ndarray
    s_value: np.ndarray
    violates: np.ndarray
    threshold: np.ndarray
    separable: np.ndarray
    gap: np.ndarray
    success_prob: np.ndarray

    def __post_init__(self) -> None:
        for column in self._columns():
            _freeze(column)

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.dim)

    def __iter__(self) -> Iterator[ScanRecord]:
        for row in zip(*(column.tolist() for column in self._columns())):
            yield ScanRecord(*row)


def format_real(value: float) -> str:
    return f"{value:.12g}"


def scan_record(n: int, noise: float) -> ScanRecord:
    """Evaluate the closed forms at one point and derive the consistency flags."""
    return next(iter(scan_grid([n], noise, noise, 1.0)))


def _grid_points(f_min: float, f_max: float, f_step: float) -> int:
    """Point count of :func:`noise_grid`, checked before anything is allocated."""
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


def noise_grid(f_min: float, f_max: float, f_step: float, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Inclusive grid f_min, f_min + step, ... clamped into [f_min, f_max].

    ``start`` and ``stop`` select the points k = start .. stop - 1 of that
    grid, each still f_min + k * step.
    """
    points = _grid_points(f_min, f_max, f_step)
    grid = f_min + np.arange(start, points if stop is None else stop) * f_step
    # min(f, f_max), which keeps f on a tie: np.minimum would turn 0.0 into -0.0.
    return np.where(f_max < grid, f_max, grid)


def _closed_forms(n: int, grid: np.ndarray) -> tuple:
    """S, threshold, separability and success probability of dimension n along grid."""
    return (
        chsh_closed_form(n, grid),
        violation_threshold(n),
        is_separable_family(n, grid),
        success_probability(n, grid),
    )


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
) -> ScanGrid:
    """Records of every (N, F) pair, N ascending, F along :func:`noise_grid`.

    ``start`` and ``stop`` select records start .. stop - 1 of that order, so
    a caller can take a grid in blocks of bounded size; each block equals the
    same slice of the whole grid.
    """
    points = _grid_points(f_min, f_max, f_step)
    records = _record_count(dims, points)
    stop = records if stop is None else stop
    if not 0 <= start <= stop <= records:
        raise ValueError(f"record range [{start}, {stop}) is not inside the {records} records of the scan")
    ordered = sorted(dims)
    size = stop - start
    noise = np.empty(size)
    s_value = np.empty(size)
    threshold = np.empty(size)
    separable = np.empty(size, dtype=bool)
    success_prob = np.empty(size)
    first, counts = start // points, []
    for i in range(first, -(-stop // points)):  # the dimensions this range touches
        lo, hi = max(start, i * points), min(stop, (i + 1) * points)
        grid = noise_grid(f_min, f_max, f_step, lo - i * points, hi - i * points)
        rows = slice(lo - start, hi - start)
        noise[rows] = grid
        s_value[rows], threshold[rows], separable[rows], success_prob[rows] = _closed_forms(ordered[i], grid)
        counts.append(hi - lo)
    # Dimensions past int64 are valid; an object column keeps them exact.
    dim_type = object if ordered and ordered[-1] > np.iinfo(np.int64).max else np.int64
    return ScanGrid(
        dim=np.repeat(np.array(ordered[first : first + len(counts)], dtype=dim_type), counts),
        noise=noise,
        s_value=s_value,
        violates=s_value > 2.0 + VIOLATION_MARGIN,
        threshold=threshold,
        separable=separable,
        gap=(noise >= threshold) & ~separable,
        success_prob=success_prob,
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


def threshold_rows(dims: list[int]) -> list[dict]:
    rows = []
    for n in sorted(dims):
        closed = violation_threshold(n)
        root = bisect_threshold(n)
        rows.append(
            {
                "N": n,
                "threshold_closed_form": closed,
                "bisection_root": root,
                "abs_diff": abs(closed - root),
            }
        )
    return rows


def gap_rows(dims: list[int]) -> list[dict]:
    """Noise intervals where the state is entangled but does not violate CHSH."""
    rows = []
    for n in sorted(dims):
        lo = violation_threshold(n)
        hi = n / (n + 1)
        rows.append({"N": n, "gap_lo": lo, "gap_hi": hi, "width": hi - lo})
    return rows


_CSV_ROW = "%d,%.12g,%.12g,%s,%.12g,%s,%s,%.12g\n"
_SCAN_KEYS = tuple(CSV_HEADER.split(","))


def records_to_csv(records: ScanGrid, header: bool = True) -> str:
    """One line per record, after the header line unless ``header`` is false.

    The texts of consecutive blocks, only the first with its header, join
    into the text of the whole grid.
    """
    r = records
    rows = zip(
        r.dim.tolist(),
        r.noise.tolist(),
        r.s_value.tolist(),
        _flags(r.violates),
        r.threshold.tolist(),
        _flags(r.separable),
        _flags(r.gap),
        r.success_prob.tolist(),
    )
    body = "".join([_CSV_ROW % row for row in rows])
    return f"{CSV_HEADER}\n{body}" if header else body


def records_to_json(records: ScanGrid, first: bool = True, last: bool = True) -> str:
    """The records as a JSON list, or the part of one that a block holds.

    ``first`` opens the list and ``last`` closes it; the texts of
    consecutive non-empty blocks, flagged so, join into the text of the
    whole grid.
    """
    r = records
    rows = zip(
        r.dim.tolist(),
        _reals(r.noise),
        _reals(r.s_value),
        _flags(r.violates),
        _reals(r.threshold),
        _flags(r.separable),
        _flags(r.gap),
        _reals(r.success_prob),
    )
    return _json_list(_SCAN_KEYS, rows, first, last)


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(row[key]) for key in header))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict]) -> str:
    keys = tuple(rows[0].keys()) if rows else ()
    return _json_list(keys, (tuple(_json_value(row[key]) for key in keys) for row in rows))


def _json_list(keys: tuple[str, ...], rows: Iterable[tuple], first: bool = True, last: bool = True) -> str:
    """What ``json.dumps(objects, indent=2)`` plus a newline writes, or a part of it.

    Each row holds the values of one object, in ``keys`` order, already
    written as JSON.  ``first`` and ``last`` say whether the rows open and
    close the list.
    """
    template = "  {\n" + ",\n".join(f'    "{key}": %s' for key in keys) + "\n  }"
    body = ",\n".join([template % row for row in rows])
    if first and last and not body:
        return "[]\n"
    return ("[\n" if first else ",\n") + body + ("\n]\n" if last else "")


def _json_value(value: object) -> object:
    if isinstance(value, bool):
        return _bool_str(value)
    if isinstance(value, float):
        return _json_real(value)
    return value


# "%.12g" already reads like repr of the float it rounds to on normal floats
# below 999999999999.5: repr also gives the shortest text that reads back as
# that float, and switches to exponent form only from 1e16, where "%.12g"
# does from a rounded 1e12.  Below the smallest normal float, fewer digits
# can read back as the same float.
_MIN_NORMAL = 2.2250738585072014e-308
_ROUNDS_TO_1E12 = 999999999999.5


def _json_real(value: float) -> str:
    """A real rounded to 12 significant digits, as json writes that float."""
    if _MIN_NORMAL <= abs(value) < _ROUNDS_TO_1E12:
        text = "%.12g" % value
        return text if "." in text or "e" in text else text + ".0"
    return repr(float(format_real(value)))


def _reals(column: np.ndarray) -> list[str]:
    return [_json_real(x) for x in column.tolist()]


def _flags(column: np.ndarray) -> list[str]:
    return list(map(_BOOL_WORDS.__getitem__, column.tolist()))


_BOOL_WORDS = ("false", "true")


def _bool_str(flag: bool) -> str:
    return _BOOL_WORDS[flag]


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return _bool_str(value)
    if isinstance(value, float):
        return format_real(value)
    return str(value)
