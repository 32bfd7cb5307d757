"""Command-line front end.

Subcommands:

    flatcert run SCRIPT          execute a .fc script, exit 0/1/2/3
    flatcert repro               run the bundled verification suite
    flatcert gb SCRIPT NAME      print the reduced Groebner basis of an ideal
    flatcert tor SCRIPT I A B    print a Tor verdict with witnesses

Each subcommand accepts --order {grevlex,lex} (default grevlex) and
--quiet (suppress stdout; the exit status still reports the outcome).
"""

from __future__ import annotations

import sys

from .groebner import IdealHandle
from .homology import tor
from .parse import MAX_INDEX, ParseError
from .poly import AlgebraError, ArgumentError, GREVLEX, LEX
from .record import record
from .script import execute_text, resolve_tor_argument, run_script

# (bundled script, ((check id, expected verdict), ...)) in report order
REPRO_CHECKS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("neg2_graph.fc", (("neg2-graph", "nonzero"),)),
    ("francia.fc", (("francia-plus", "zero"), ("francia-minus", "nonzero"))),
    ("smooth_chart.fc", (("smooth-chart", "zero"),)),
    ("neg2_fiber.fc", (("neg2-fiber", "zero"),)),
    ("segre_chart.fc", (("segre-chart", "zero"),)),
)

# column widths; the trailing time column is excluded from golden output
_WIDTHS = (16, 11, 11, 8)


@record
class ReproCheck:
    identifier: str
    expected: str
    actual: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@record
class ReproReport:
    checks: tuple[ReproCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def bundled_case_text(filename: str) -> str:
    from importlib import resources  # imported here: only reading a case needs it
    return resources.files("flatcert").joinpath("cases", filename).read_text("utf-8")


def repro_suite(order: str = GREVLEX) -> ReproReport:
    """Run every bundled case script and collect one row per assertion."""
    checks: list[ReproCheck] = []
    for filename, rows in REPRO_CHECKS:
        report, _ = execute_text(bundled_case_text(filename), order)
        if report.error is not None:
            raise AlgebraError(f"{filename}: {report.error}")
        if len(report.assertions) != len(rows):
            raise AlgebraError(
                f"{filename}: expected {len(rows)} assertions, "
                f"found {len(report.assertions)}"
            )
        for (identifier, expected), record in zip(rows, report.assertions):
            checks.append(
                ReproCheck(identifier, expected, record.actual, record.seconds)
            )
    return ReproReport(tuple(checks))


def format_repro_table(report: ReproReport) -> str:
    w_id, w_exp, w_act, w_st = _WIDTHS
    lines = [
        f"{'check':<{w_id}}{'expected':<{w_exp}}{'actual':<{w_act}}"
        f"{'status':<{w_st}}time"
    ]
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"{check.identifier:<{w_id}}{check.expected:<{w_exp}}"
            f"{check.actual:<{w_act}}{status:<{w_st}}{check.seconds:.2f}s"
        )
    passed = sum(1 for check in report.checks if check.passed)
    lines.append(f"{passed}/{len(report.checks)} checks passed")
    return "\n".join(lines) + "\n"


def strip_timing_column(table: str) -> str:
    """Drop the wall-time column so two runs compare byte-for-byte."""
    width = sum(_WIDTHS)
    return "".join(
        line[:width].rstrip() + "\n" for line in table.splitlines()
    )


def _emit(text: str, quiet: bool) -> None:
    if not quiet:
        print(text)


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_script(args.script, args.order)
    for line in report.prints:
        _emit(line, args.quiet)
    for record in report.assertions:
        outcome = (
            "pass"
            if record.passed
            else f"FAIL (expected {record.expected}, got {record.actual})"
        )
        _emit(
            f"{record.label}: {record.description} ... {outcome}"
            f" ({record.seconds:.2f}s)",
            args.quiet,
        )
    if report.error is not None:
        print(report.error, file=sys.stderr)
    return report.status


def _cmd_repro(args: argparse.Namespace) -> int:
    report = repro_suite(args.order)
    if not args.quiet:
        sys.stdout.write(format_repro_table(report))
    return 0 if report.ok else 1


def _script_env(args: argparse.Namespace) -> tuple[int, dict[str, object]]:
    """Run only the script's declarations: its assertions and prints are
    skipped.  A parse or declaration error is printed, and its status (2
    or 3) returned; otherwise the status is 0."""
    with open(args.script, "r", encoding="utf-8") as handle:
        report, env = execute_text(handle.read(), args.order, declarations_only=True)
    if report.error is not None:
        print(report.error, file=sys.stderr)
    return report.status, env


def _cmd_gb(args: argparse.Namespace) -> int:
    status, env = _script_env(args)
    if status:
        return status
    obj = env.get(args.name)
    if not isinstance(obj, IdealHandle):
        raise ArgumentError(f"{args.name!r} is not an ideal in {args.script}")
    for basis_element in obj.groebner_basis():
        _emit(str(basis_element), args.quiet)
    return 0


def _cmd_tor(args: argparse.Namespace) -> int:
    if args.index < 0:
        raise ParseError("negative Tor index", 1, 1, "the index")
    if args.index > MAX_INDEX:
        raise ParseError(f"Tor index larger than {MAX_INDEX}", 1, 1, "the index")
    status, env = _script_env(args)
    if status:
        return status
    left = resolve_tor_argument(args.left, env, "argument 1")
    right = resolve_tor_argument(args.right, env, "argument 2")
    _emit(str(tor(args.index, left, right)), args.quiet)
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse  # imported here: only the command line needs it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--order",
        choices=(GREVLEX, LEX),
        default=GREVLEX,
        help="monomial order for every declared ring (default grevlex)",
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress stdout; keep exit status"
    )
    parser = argparse.ArgumentParser(
        prog="flatcert",
        description="flatness certification for ideals over affine rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[common], help="execute a .fc script")
    run_p.add_argument("script", help="path to a .fc script")
    run_p.set_defaults(handler=_cmd_run)
    repro_p = sub.add_parser(
        "repro", parents=[common], help="run the bundled verification suite"
    )
    repro_p.set_defaults(handler=_cmd_repro)
    gb_p = sub.add_parser(
        "gb", parents=[common], help="print the reduced Groebner basis of an ideal"
    )
    gb_p.add_argument("script", help="path to a .fc script")
    gb_p.add_argument("name", help="ideal name declared in the script")
    gb_p.set_defaults(handler=_cmd_gb)
    tor_p = sub.add_parser(
        "tor", parents=[common], help="print a Tor verdict with witnesses"
    )
    tor_p.add_argument("script", help="path to a .fc script")
    tor_p.add_argument("index", type=int, help="homological index i")
    tor_p.add_argument("left", help="ideal/module name or free(RING, n)")
    tor_p.add_argument("right", help="ideal/module name or free(RING, n)")
    tor_p.set_defaults(handler=_cmd_tor)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit status: a handler's own
    status, else 2 for an unreadable file or a parse error and 3 for any
    other computation error."""
    # Computed coefficients may be longer than the interpreter prints by
    # default; parse.MAX_DIGITS bounds only the input.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"cannot read {exc.filename}: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(str(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
