"""Spans around the calls into each noisybell layer, recorded from outside.

The traced run rebinds module attributes at the call sites listed in
``TARGETS`` to timing wrappers.  Nothing in the package changes; spans stay
in memory and are written out when the run ends.  A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, layer metric the span's self time counts towards).
# Rebinding ``noisybell.cli.X`` catches the calls the CLI makes; the sampling
# and polytope entries catch the calls those modules make into lower layers.
TARGETS = (
    ("noisybell.cli", "build_parser", "cli.self_s"),
    ("noisybell.cli", "sample_experiment", "sampling.self_s"),
    ("noisybell.sampling", "noisy_state", "states.noisy_state_s"),
    ("noisybell.sampling", "sequential_joint_distribution", "sequential.joint_s"),
    ("noisybell.cli", "load_table", "behavior.load_s"),
    ("noisybell.cli", "save_table", "behavior.save_s"),
    ("noisybell.cli", "is_local_lp", "polytope.lp_s"),
    ("noisybell.cli", "is_local_facets", "polytope.facets_s"),
    ("noisybell.polytope", "l1_feasibility", "simplex.l1_s"),
    ("noisybell.cli", "scan_grid", "scan.grid_s"),
    ("noisybell.cli", "records_to_csv", "scan.csv_s"),
    ("noisybell.cli", "records_to_json", "scan.json_s"),
    ("noisybell.cli", "threshold_rows", "scan.rows_s"),
    ("noisybell.cli", "gap_rows", "scan.rows_s"),
    ("noisybell.cli", "rows_to_csv", "scan.rows_s"),
    ("noisybell.cli", "rows_to_json", "scan.rows_s"),
)
ROOT_LAYER = "cli.self_s"  # the op span: argparse, dispatch, formatting, write
SELF_TIMES = tuple(dict.fromkeys([ROOT_LAYER] + [layer for _, _, layer in TARGETS]))


class MissingTarget(RuntimeError):
    """A call site the traced run wraps no longer exists."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: int
    layer: str
    error: str | None = None  # exception class name, if the call raised
    value: float | None = None  # a count observed at the boundary


def _observe(attr: str, result) -> float | None:
    """The count recorded at a boundary: LP residual, or records produced."""
    if attr == "l1_feasibility":
        return float(result[1])
    if attr == "scan_grid":
        return float(len(result))
    return None


class Tracer:
    """Records spans while installed; ``uninstall`` restores the original functions."""

    def __init__(self, targets=TARGETS) -> None:
        modules = {name: importlib.import_module(name) for name, _, _ in targets}
        missing = [f"{m}.{a}" for m, a, _ in targets if not callable(getattr(modules[m], a, None))]
        if missing:
            raise MissingTarget(f"traced call sites not found: {', '.join(missing)}")
        self._sites = [
            (modules[m], a, getattr(modules[m], a), self._wrap(a, layer, getattr(modules[m], a)))
            for m, a, layer in targets
        ]
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def install(self) -> None:
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def _wrap(self, attr: str, layer: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(attr, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, layer)
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.value = _observe(attr, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append(Span("op", 0.0, 0.0, None, op, ROOT_LAYER))

    def end_op(self, start: float, end: float) -> None:
        root = self.spans[self._stack[0]]
        root.start, root.end = start, end
        self._stack = []


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans: list[Span], facts: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics over the timed ops (op >= 0), and invariant breaches.

    Time metrics are means per op, so the layer self times add up to the mean
    op wall time.  ``facts`` carries counts read from the timed ops' outputs
    (in_in, draws, out_bytes) and the sample dimension.
    """
    own = self_times(spans)
    per_op: dict[int, dict[str, float]] = {}
    wall: dict[int, float] = {}
    for s, t in zip(spans, own):
        if s.op < 0:
            continue
        layers = per_op.setdefault(s.op, dict.fromkeys(SELF_TIMES, 0.0))
        layers[s.layer] += t
        if s.parent is None:
            wall[s.op] = s.end - s.start
    errors = [
        f"op {op}: self times sum to {sum(layers.values())} s, more than its wall time {wall[op]} s"
        for op, layers in per_op.items()
        if sum(layers.values()) > wall[op] * (1 + 1e-9) + 1e-9
    ]
    ops = max(len(per_op), 1)
    metrics = {name: sum(layers[name] for layers in per_op.values()) / ops for name in SELF_TIMES}
    timed = [s for s in spans if s.op >= 0]
    total_wall = sum(wall.values())

    def total(layer):
        return sum(layers[layer] for layers in per_op.values())

    facets = [s for s in timed if s.name == "is_local_facets"]
    residuals = [s.value for s in timed if s.name == "l1_feasibility" and s.value is not None and s.value <= 1e-9]
    records = sum(s.value for s in timed if s.name == "scan_grid")
    dim = facts.get("dim") or 0
    draws = facts.get("draws", 0)
    metrics.update(
        {
            "states.dense_mb": dim**4 * 16 / 2**20,
            "sequential.joint_share": total("sequential.joint_s") / total_wall if total_wall else 0.0,
            "sequential.joint_gflop": 576 * dim**6 / 1e9,
            "sampling.draws_per_s": draws / total("sampling.self_s") if draws else 0.0,
            "sampling.in_in_ratio": facts.get("in_in", 0) / draws if draws else 0.0,
            "polytope.fallback_ratio": sum(s.error == "SignalingTable" for s in facets) / len(facets) if facets else 0.0,
            "simplex.residual_max": max(residuals, default=0.0),
            "scan.records_per_s": records / total("scan.grid_s") if records else 0.0,
            "scan.out_mb": facts.get("out_bytes", 0) / ops / 2**20,
        }
    )
    return metrics, errors


UNITS = {name: "s" for name in SELF_TIMES} | {
    "states.dense_mb": "MB-computed",
    "sequential.joint_share": "1",
    "sequential.joint_gflop": "GFLOP-computed",
    "sampling.draws_per_s": "1/s",
    "sampling.in_in_ratio": "1",
    "polytope.fallback_ratio": "1",
    "simplex.residual_max": "1",
    "scan.records_per_s": "1/s",
    "scan.out_mb": "MB-computed",
    "trace.overhead_s": "s",
}
