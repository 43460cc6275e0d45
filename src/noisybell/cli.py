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
import contextlib
import functools
import json
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

from .behavior import load_table, save_table
from .polytope import (
    FACET_LABELS,
    LOCALITY_TOL,
    SignalingTable,
    check_tolerance,
    chsh_facets,
    is_local_facets,
    is_local_lp,
)
from .sampling import GENERATOR_NAME, sample_experiment
from .scan import (
    BLOCK,
    format_real,
    gap_rows,
    records_to_csv,
    records_to_json,
    rows_to_csv,
    rows_to_json,
    scan_grid,
    scan_size,
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
    try:
        return check_tolerance(tol)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call of the process."""
    return _parser()


@functools.cache  # parse_args leaves the parser as it found it, so one serves every main() call
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisybell", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, out_help: str = "write output to this path instead of stdout") -> None:
        p.add_argument("--out", type=Path, default=None, help=out_help)
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p_scan = sub.add_parser("scan", help="classify an (N, F) grid")
    add_common(p_scan)
    p_scan.add_argument("--dims", type=_parse_dims, default="2,4,8", help="comma-separated dimensions, e.g. 2,4,8")
    p_scan.add_argument("--f-min", type=float, default=0.0)
    p_scan.add_argument("--f-max", type=float, default=1.0)
    p_scan.add_argument("--f-step", type=float, default=0.1)
    p_scan.set_defaults(func=cmd_scan)

    for name, help_text in (
        ("threshold", "violation threshold per dimension"),
        ("gap", "entangled-but-not-violating noise interval per dimension"),
    ):
        p_rows = sub.add_parser(name, help=help_text)
        add_common(p_rows)
        p_rows.add_argument("--dims", type=_parse_dims, default="2,3,4,8,16,100")
        p_rows.set_defaults(func=cmd_rows)

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
    add_common(
        p_sample, "write the empirical (in, in) behavior table to this JSON file; the report still goes to stdout"
    )
    p_sample.add_argument("--dim", type=int, default=2, help="local dimension N")
    p_sample.add_argument("--noise", type=float, default=0.0, help="noise fraction F")
    p_sample.add_argument("--count", type=int, default=10000, help="number of runs")
    p_sample.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p_sample.set_defaults(func=cmd_sample)

    return parser


@contextlib.contextmanager
def _sink(out: Path | None) -> Iterator[Callable[[str], object]]:
    """The write function of stdout or of the ``--out`` file, opened here.

    Commands open it only once their request is known to be valid, so a
    usage error writes nothing, not even an empty file.
    """
    if out is None:
        yield sys.stdout.write
    else:
        with out.open("w", encoding="utf-8") as f:
            yield f.write


def cmd_scan(args: argparse.Namespace) -> int:
    grid = (args.f_min, args.f_max, args.f_step)
    points = scan_size(args.dims, *grid) // len(args.dims)
    # Blocks of at most BLOCK records, so memory stays flat in the size of the grid:
    # whole dimensions while they fit in one, else one dimension at a time.
    per_block = max(1, BLOCK // points)
    with _sink(args.out) as write:
        for i in range(0, len(args.dims), per_block):
            for start in range(0, points, BLOCK):
                stop = min(start + BLOCK, points)
                records = scan_grid(args.dims[i : i + per_block], *grid, start, stop)
                first = i == 0 and start == 0
                last = i + per_block >= len(args.dims) and stop == points
                if args.format == "csv":
                    write(records_to_csv(records, header=first))
                else:
                    write(records_to_json(records, first=first, last=last))
    return EXIT_OK


def cmd_rows(args: argparse.Namespace) -> int:
    """``threshold`` and ``gap``: one record per dimension, written whole."""
    # The functions are looked up here, on every call, so rebinding them in this module takes effect.
    rows = (threshold_rows if args.command == "threshold" else gap_rows)(args.dims)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    with _sink(args.out) as write:
        write(text)
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
        "signaling_defect": table.signaling_defect,
        "weights": weights,
    }
    if args.format == "json":
        text = json.dumps({key: _rounded(value) for key, value in report.items()}, indent=2) + "\n"
    else:
        text = "".join(f"{key}: {_text(value)}\n" for key, value in report.items() if value is not None)
    with _sink(args.out) as write:
        write(text)
    if method != args.method:  # after the write, so an I/O error stays the only stderr line
        print("notice: facet criterion not applicable to a signaling table; falling back to LP", file=sys.stderr)
    return EXIT_OK if local else EXIT_NONLOCAL


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

    fields = {"generator": GENERATOR_NAME, "seed": args.seed, "dim": args.dim, "noise": args.noise, "count": args.count}
    fields["in_in_count"] = int(sample.branch_counts[0, 0])
    estimates = {"s_empirical": sample.s_empirical, "s_stderr": sample.s_stderr, "s_analytic": sample.s_analytic}
    if args.format == "json":
        payload = fields | {key: _rounded(value) for key, value in estimates.items()}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        row = fields | estimates
        sys.stdout.write(",".join(row) + "\n" + ",".join(map(_text, row.values())) + "\n")
    return EXIT_OK


def _text(value) -> str:
    """A report value as text: None as nan, reals with 12 significant digits, weights comma-joined."""
    if value is None:
        return "nan"
    if isinstance(value, float):
        return format_real(value)
    return str(value) if isinstance(value, (str, int)) else ",".join(map(_text, value))


def _rounded(value):
    """A report value for JSON: reals, alone or in a list, rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(format_real(value))
    return value if value is None or isinstance(value, str) else [_rounded(v) for v in value]


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
