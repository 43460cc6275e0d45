"""Command-line front end.

Subcommands: ``scan`` (grid of closed-form records), ``threshold``
(closed form vs. bisection root), ``gap`` (entangled-but-not-violating
intervals), ``lhv-check`` (polytope membership of a table file) and
``sample`` (seeded Monte Carlo of the two-stage experiment).

Exit codes: 0 success / local verdict, 1 usage or parse error, 2 I/O error,
3 nonlocal verdict, so shell pipelines can branch on locality.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .behavior import load_table, save_table
from .polytope import FACET_LABELS, LOCALITY_TOL, SignalingTable, chsh_facets, is_local_facets, is_local_lp
from .sampling import GENERATOR_NAME, sample_experiment
from .scan import (
    format_real,
    gap_rows,
    records_to_csv,
    records_to_json,
    rows_to_csv,
    rows_to_json,
    scan_grid,
    threshold_rows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NONLOCAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; remap to the documented code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc
    if not dims:
        raise argparse.ArgumentTypeError("dimension list is empty")
    if any(n < 2 for n in dims):
        raise argparse.ArgumentTypeError("dimensions must be at least 2")
    return sorted(set(dims))


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from exc
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and non-negative, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisybell", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", type=Path, default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p_scan = sub.add_parser("scan", help="classify an (N, F) grid")
    add_common(p_scan)
    p_scan.add_argument("--dims", type=_parse_dims, default=[2, 4, 8], help="comma-separated dimensions, e.g. 2,4,8")
    p_scan.add_argument("--f-min", type=float, default=0.0)
    p_scan.add_argument("--f-max", type=float, default=1.0)
    p_scan.add_argument("--f-step", type=float, default=0.1)
    p_scan.set_defaults(func=cmd_scan)

    p_threshold = sub.add_parser("threshold", help="violation threshold per dimension")
    add_common(p_threshold)
    p_threshold.add_argument("--dims", type=_parse_dims, default=[2, 3, 4, 8, 16, 100])
    p_threshold.set_defaults(func=cmd_threshold)

    p_gap = sub.add_parser("gap", help="entangled-but-not-violating noise interval per dimension")
    add_common(p_gap)
    p_gap.add_argument("--dims", type=_parse_dims, default=[2, 3, 4, 8, 16, 100])
    p_gap.set_defaults(func=cmd_gap)

    p_check = sub.add_parser("lhv-check", help="decide whether a table file admits an LHV model")
    add_common(p_check)
    p_check.add_argument("table", type=Path, help="behavior table JSON file")
    p_check.add_argument(
        "--method",
        choices=("lp", "facets"),
        default="lp",
        help="lp: weight certificate; facets: CHSH criterion (no-signaling tables only)",
    )
    p_check.add_argument("--tol", type=_parse_tol, default=LOCALITY_TOL, help="numerical tolerance (finite, >= 0)")
    p_check.set_defaults(func=cmd_lhv_check)

    p_sample = sub.add_parser("sample", help="Monte Carlo runs of the two-stage experiment")
    add_common(p_sample)
    p_sample.add_argument("--dim", type=int, default=2, help="local dimension N")
    p_sample.add_argument("--noise", type=float, default=0.0, help="noise fraction F")
    p_sample.add_argument("--count", type=int, default=10000, help="number of runs")
    p_sample.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p_sample.set_defaults(func=cmd_sample)

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def cmd_scan(args: argparse.Namespace) -> int:
    records = scan_grid(args.dims, args.f_min, args.f_max, args.f_step)
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    _emit(text, args.out)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    rows = threshold_rows(args.dims)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    _emit(text, args.out)
    return EXIT_OK


def cmd_gap(args: argparse.Namespace) -> int:
    rows = gap_rows(args.dims)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    _emit(text, args.out)
    return EXIT_OK


def cmd_lhv_check(args: argparse.Namespace) -> int:
    table = load_table(args.table)

    method, weights = args.method, None
    if method == "facets":
        try:
            local = is_local_facets(table, tol=args.tol)
        except SignalingTable:
            method = "lp"
    if method == "lp":
        verdict = is_local_lp(table, tol=args.tol)
        local, weights = verdict.is_local, verdict.weights

    facets = chsh_facets(table)
    max_idx = int(facets.argmax())
    max_facet = float(facets[max_idx])
    # A nonlocal verdict with no violated facet means the table sits outside
    # the no-signaling subspace (e.g. finite-sample noise), not that it
    # violates CHSH; the signaling defect makes that readable.
    report = {
        "verdict": "local" if local else "nonlocal",
        "method": method,
        "max_facet": max_facet,
        "violated_facet": None if local or max_facet <= 2.0 + args.tol else FACET_LABELS[max_idx],
        "signaling_defect": table.signaling_defect(),
        "weights": weights,
    }
    _emit(_format_verdict(report, args.format), args.out)
    if method != args.method:  # after the write, so an I/O error stays the only stderr line
        print("notice: facet criterion not applicable to a signaling table; falling back to LP", file=sys.stderr)
    return EXIT_OK if local else EXIT_NONLOCAL


def _format_verdict(report: dict, fmt: str) -> str:
    if fmt == "json":
        cleaned = dict(report)
        if cleaned["weights"] is not None:
            cleaned["weights"] = [float(format_real(w)) for w in cleaned["weights"]]
        for key in ("max_facet", "signaling_defect"):
            cleaned[key] = float(format_real(cleaned[key]))
        return json.dumps(cleaned, indent=2) + "\n"
    lines = [
        f"verdict: {report['verdict']}",
        f"method: {report['method']}",
        f"max_facet: {format_real(report['max_facet'])}",
    ]
    if report["violated_facet"]:
        lines.append(f"violated_facet: {report['violated_facet']}")
    lines.append(f"signaling_defect: {format_real(report['signaling_defect'])}")
    if report["weights"] is not None:
        lines.append("weights: " + ",".join(format_real(w) for w in report["weights"]))
    return "\n".join(lines) + "\n"


def cmd_sample(args: argparse.Namespace) -> int:
    sample = sample_experiment(args.dim, args.noise, args.count, args.seed)

    if sample.insufficient_data:
        print(
            "notice: insufficient data - some setting pair has no (in, in) samples; "
            "S is undefined and no table is written",
            file=sys.stderr,
        )
    elif args.out is not None:
        save_table(
            sample.empirical_table,
            args.out,
            meta={"generator": GENERATOR_NAME, "seed": args.seed, "count": args.count},
        )

    in_in = int(sample.branch_counts[0, 0])
    if args.format == "json":
        payload = {
            "generator": GENERATOR_NAME,
            "seed": args.seed,
            "dim": args.dim,
            "noise": args.noise,
            "count": args.count,
            "in_in_count": in_in,
            "s_empirical": _maybe_rounded(sample.s_empirical),
            "s_stderr": _maybe_rounded(sample.s_stderr),
            "s_analytic": _maybe_rounded(sample.s_analytic),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        header = "generator,seed,dim,noise,count,in_in_count,s_empirical,s_stderr,s_analytic"
        row = ",".join(
            [
                GENERATOR_NAME,
                str(args.seed),
                str(args.dim),
                format_real(args.noise),
                str(args.count),
                str(in_in),
                _maybe_real(sample.s_empirical),
                _maybe_real(sample.s_stderr),
                format_real(sample.s_analytic),
            ]
        )
        sys.stdout.write(header + "\n" + row + "\n")
    return EXIT_OK


def _maybe_real(value: float | None) -> str:
    return "nan" if value is None else format_real(value)


def _maybe_rounded(value: float | None) -> float | None:
    return None if value is None else float(format_real(value))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # TableFormatError is a ValueError: parse and config failures share exit 1.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        # A dimension past the float range, e.g. scan --dims 10**160 (N^2) or threshold --dims 10**400.
        print(f"error: value out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
