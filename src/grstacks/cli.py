"""Command line front end.

Four subcommands: `verify` runs a named check suite and reports pass/fail,
`eval` parses and evaluates an expression, `bspin` prints the classifying
class of a spin group in atom form, and `delta` summarizes one of the finite
blade groups.  Exit codes: 0 all checks pass, 1 at least one check failed,
2 usage or parse errors.  Every subcommand prints through `_print`, so a
reader that leaves early (`| head`) changes no exit code and shows no
traceback.
"""

import argparse
import json
import os
import sys
from functools import partial

from . import dsl, intpoly
from .delta import DeltaGroup
from .lefschetz import (
    LC_ONE,
    LefschetzClass,
    NotAUnit,
    OverBudget,
    ZeroInverse,
    lc_eval_at,
    lc_eval_digits,
    render_factors,
    work_budget,
)
from .motive import DomainError, substitute_deltas
from .suites import SUITES


def _cmd_verify(args: argparse.Namespace) -> int:
    rep = SUITES[args.suite](seed=args.seed, samples=args.samples, q=args.q)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(rep.to_json())
        except OSError as exc:
            return _cannot_write(args.json, exc)
    _print(rep.to_text())
    return 0 if rep.ok else 1


def _print(text: str) -> None:
    """Print text and a newline to stdout, flushed.  A reader that left early
    (`| head`) ends the output, not the command: devnull takes the rest, so
    no later print and no exit flush can fail again, and the command still
    returns its own exit code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _print_at(cls: LefschetzClass, q: int) -> None:
    # refuse a value the interpreter would not print before computing it
    limit = intpoly.digit_limit()
    digits = lc_eval_digits(cls, q)
    if limit and digits > limit:
        raise ValueError(
            f"the value at L={q} has about {digits} digits, above the {limit} the interpreter prints"
        )
    _print(f"at L={q}: {lc_eval_at(cls, q)}")


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        value = dsl.eval(dsl.parse(args.expr))
        if args.deltas_one:
            # adding the atoms' coefficients to the scalar is work like eval's
            with work_budget(dsl.WORK_BUDGET):
                cls = substitute_deltas(value, {m: LC_ONE for m in value.support()})
            _print(render_factors(cls))
            if args.at is not None:
                _print_at(cls, args.at)
            return 0
        _print(dsl.render(value))
        if args.at is not None:
            if not value.is_scalar():
                print("error: atoms remain, evaluate with --deltas-one", file=sys.stderr)
                return 2
            _print_at(value.scalar, args.at)
        return 0
    except (dsl.ParseError, NotAUnit, ZeroInverse, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_bspin(args: argparse.Namespace) -> int:
    try:
        # through the evaluator, which charges the tower before building it
        e = dsl.eval(dsl.Call("BSpin", (args.n,)))
    except (DomainError, OverBudget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "scalar": render_factors(e.scalar),
            "atoms": [{"m": m, "coeff": render_factors(c)} for m, c in e.atoms],
        }
        _print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print(dsl.render(e))
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= 12:
        print("error: n must be between 1 and 12", file=sys.stderr)
        return 2
    if args.table and args.n > 9:
        # 4^(n+1) cells: n = 9 writes about 15 MB, n = 12 would take ~1 GB
        print("error: --table needs n <= 9", file=sys.stderr)
        return 2
    grp = DeltaGroup(args.n)
    center = grp.center()
    comm = grp.commutator_subgroup()
    lines = [f"order {grp.order}", f"center {len(center)}", f"abelianization {grp.order // len(comm)}"]
    if len(center) == grp.order:
        lines.append("abelian")
    _print("\n".join(lines))
    if args.table:
        try:
            grp.write_table(args.table)
        except OSError as exc:
            return _cannot_write(args.table, exc)
        _print(f"table written to {args.table}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grstacks",
        description="exact verification workbench for classifying-stack classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument(
        "--samples", type=partial(_int_at_least, 1), default=100, help="samples per property (at least 1)"
    )
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.add_argument(
        "--q",
        type=int,
        default=5,
        choices=(5, 13),
        help="field size for the finite suite",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument(
        "expr",
        help="the expression; one that starts with '-' goes after '--', with options before it",
    )
    p.add_argument(
        "--deltas-one",
        action="store_true",
        help="substitute 1 for every atom before printing",
    )
    p.add_argument("--at", type=partial(_int_at_least, 2), metavar="Q", help="also specialize L to Q >= 2")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bspin", help="print a classifying class in atom form")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bspin)

    p = sub.add_parser("delta", help="summarize a finite blade group")
    p.add_argument("n", type=int)
    p.add_argument("--table", metavar="PATH", help="write the full multiplication table as CSV")
    p.set_defaults(func=_cmd_delta)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
