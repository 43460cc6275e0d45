"""Command-line front end.

Subcommands: ``scan`` (grid of closed-form records), ``threshold``
(closed form vs. bisection root), ``gap`` (entangled-but-not-violating
intervals), ``lhv-check`` (polytope membership of a table file) and
``sample`` (seeded Monte Carlo of the two-stage experiment).

Exit codes: 0 success / local verdict, 1 usage or parse error, 2 I/O error
(a failed write to stdout included), 3 nonlocal verdict, so shell pipelines
can branch on locality.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections.abc import Callable
from typing import NoReturn

from .behavior import FACET_LABELS, _overwrite, load_table, save_table
from .polytope import (
    LOCALITY_TOL,
    SignalingTable,
    check_tolerance,
    is_local_facets,
    is_local_lp,
    violated_facet,
)
from .sampling import GENERATOR_NAME, sample_experiment
from .scan import (
    format_real,
    gap_rows,
    records_to_csv,
    records_to_json,
    rows_to_csv,
    rows_to_json,
    scan_blocks,
    scan_grid,
    threshold_rows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NONLOCAL = 3


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # set on the top-level parser: each subcommand's own parser

    # argparse exits with status 2 on bad usage; remap to the documented code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)

    # --help exits from inside parse_args; flushing here, inside main's try,
    # makes a failed write of the help text the one ``i/o error:`` line.
    def exit(self, status: int = 0, message: str | None = None) -> NoReturn:
        _flush_stdout()
        super().exit(status, message)


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc
    if not dims:
        raise argparse.ArgumentTypeError("dimension list is empty")
    return sorted(set(dims))


def build_parser() -> _Parser:
    """The CLI's parser, built on the first call of the process."""
    return _parser()


@functools.cache  # parse_args leaves the parser as it found it, so one serves every main() call
def _parser() -> _Parser:
    parser = _Parser(prog="noisybell", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add_command(
        name: str, help_text: str, out_help: str = "write output to this path instead of stdout"
    ) -> argparse.ArgumentParser:
        """The subcommand's parser, recorded in ``parser.commands``, with the options every command has."""
        parser.commands[name] = p = sub.add_parser(name, help=help_text)
        # Paths stay the strings typed: type=Path would drop a trailing slash and read or write the file before it.
        p.add_argument("--out", default=None, help=out_help)
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        return p

    p_scan = add_command("scan", "classify an (N, F) grid")
    p_scan.add_argument("--dims", type=_parse_dims, default="2,4,8", help="comma-separated dimensions, e.g. 2,4,8")
    p_scan.add_argument("--f-min", type=float, default=0.0)
    p_scan.add_argument("--f-max", type=float, default=1.0)
    p_scan.add_argument("--f-step", type=float, default=0.1)
    p_scan.set_defaults(func=cmd_scan)

    for name, help_text in (
        ("threshold", "violation threshold per dimension"),
        ("gap", "entangled-but-not-violating noise interval per dimension"),
    ):
        p_rows = add_command(name, help_text)
        p_rows.add_argument("--dims", type=_parse_dims, default="2,3,4,8,16,100")
        p_rows.set_defaults(func=cmd_rows)

    p_check = add_command("lhv-check", "decide whether a table file admits an LHV model")
    p_check.add_argument("table", help="behavior table JSON file")
    p_check.add_argument(
        "--method",
        choices=("lp", "facets"),
        default="lp",
        help="lp: weight certificate; facets: CHSH criterion (no-signaling tables only)",
    )
    p_check.add_argument("--tol", type=float, default=LOCALITY_TOL, help="numerical tolerance (finite, >= 0)")
    p_check.set_defaults(func=cmd_lhv_check)

    p_sample = add_command(
        "sample",
        "Monte Carlo runs of the two-stage experiment",
        "write the empirical (in, in) behavior table to this JSON file; the report still goes to stdout",
    )
    p_sample.add_argument("--dim", type=int, default=2, help="local dimension N")
    p_sample.add_argument("--noise", type=float, default=0.0, help="noise fraction F")
    p_sample.add_argument("--count", type=int, default=10000, help="number of runs")
    p_sample.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p_sample.set_defaults(func=cmd_sample)

    return parser


def _sink(out: str | None) -> contextlib.AbstractContextManager[Callable[[str], object]]:
    """The write function of stdout or of the ``--out`` file, opened here.

    Commands open it only once their request is known to be valid, so a
    usage error writes nothing, not even an empty file.  An existing file is
    rewritten in place and cut to the new length (``behavior._overwrite``).
    """
    return contextlib.nullcontext(sys.stdout.write) if out is None else _overwrite(out)


def cmd_scan(args: argparse.Namespace) -> int:
    grid = (args.f_min, args.f_max, args.f_step)
    blocks = scan_blocks(args.dims, *grid)
    with _sink(args.out) as write:
        for dims, start, stop, first, last in blocks:
            records = scan_grid(dims, *grid, start, stop)
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
    check_tolerance(args.tol)  # before the table is read, so a bad --tol reads and writes no file
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

    facet = None if local else violated_facet(table, args.tol)
    # A nonlocal verdict with no violated facet means the table sits outside
    # the no-signaling subspace (e.g. finite-sample noise), not that it
    # violates CHSH; the signaling defect makes that readable.
    report = {
        "verdict": "local" if local else "nonlocal",
        "method": method,
        # np.max picks -0.0 from the uniform table's tie of 0.0 and -0.0 and printed -0; + 0.0 makes any zero 0.
        "max_facet": max(table.facets.tolist()) + 0.0,
        "violated_facet": None if facet is None else FACET_LABELS[facet],
        "signaling_defect": table.signaling_defect,
        "weights": None if weights is None else weights.tolist(),
    }
    if args.format == "json":
        text = json.dumps({key: _rounded(value) for key, value in report.items()}, indent=2) + "\n"
    else:
        text = "".join(f"{key}: {_text(value)}\n" for key, value in report.items() if value is not None)
    with _sink(args.out) as write:
        write(text)
    if method != args.method:
        _notice("facet criterion not applicable to a signaling table; falling back to LP")
    return EXIT_OK if local else EXIT_NONLOCAL


def cmd_sample(args: argparse.Namespace) -> int:
    sample = sample_experiment(args.dim, args.noise, args.count, args.seed)

    if args.out is not None and not sample.insufficient_data:
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
    if sample.insufficient_data:
        _notice(
            "insufficient data - some setting pair has no (in, in) samples; S is undefined and no table is written"
        )
    return EXIT_OK


def _text(value) -> str:
    """A report value as text: None as nan, reals with 12 significant digits, weights comma-joined."""
    if value is None:
        return "nan"
    if isinstance(value, float):
        return format_real(value)
    return str(value) if isinstance(value, (str, int)) else ",".join(map(format_real, value))


def _rounded(value):
    """A report value for JSON: reals, alone or in a list, rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(format_real(value))
    return value if value is None or isinstance(value, str) else [_rounded(v) for v in value]


def _flush_stdout() -> None:
    """Flush stdout here, so that a closed pipe or a full disk ends in the one ``i/o error:`` line.

    Unflushed output would otherwise fail only in the flush at interpreter exit,
    which prints Python's own message.  After a failed flush, fd 1 points at
    ``os.devnull``, so that flush cannot fail again (see Python's "Note on SIGPIPE").
    """
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _notice(text: str) -> None:
    """Print a ``notice:`` line on stderr once the report is flushed, so an I/O error stays the only stderr line."""
    _flush_stdout()
    print(f"notice: {text}", file=sys.stderr)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with a named subcommand's arguments parsed by its own parser.

    That gives the same namespace, help text and errors at about half the
    cost of the top-level parse.  Any other argv (empty, ``-h``, an unknown
    command) goes to the top-level parser.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        _flush_stdout()
        return code
    except ValueError as exc:
        # Parser errors and TableFormatError are ValueErrors: parse and config failures share exit 1.
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
