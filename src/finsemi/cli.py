"""Command line front end.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success (and
true verdicts), 1 false verdicts, 2 unusable input, 3 a size cap refused
the computation.  Output for a fixed input and flags is byte-identical
between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys

from .core import (
    check_associativity,
    compute_h,
    compute_psi,
    format_table,
    parse_table,
    product_set,
)
from .enumeration import (
    DEFAULT_MAX_ENUM_ORDER,
    EnumerationTask,
    check_enumeration_order,
    corpus_verify,
    enumerate_semigroups,
)
from .errors import FinsemiError, OrderTooLarge
from .inflation import (
    DEFAULT_MAX_INFLATION_ORDER,
    build_inflation,
    choose_transversal,
    induced_retraction,
    parse_fiber_spec,
    verify_inflation,
)
from .theorem import verify_theorem
from .automorphisms import DEFAULT_MAX_ORDER, enumerate_automorphisms


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _cmd_check(args) -> int:
    table = parse_table(_read_input(args.input), require_associative=False)
    witness = check_associativity(table)
    if args.format == "structured":
        doc = {"associative": witness is None}
        if witness is not None:
            doc["witness"] = list(witness)
        print(json.dumps(doc))
    elif witness is None:
        print("associative")
    else:
        a, b, c = witness
        print(f"not associative: witness {a} {b} {c}")
    return 0 if witness is None else 1


def _format_blocks(p) -> str:
    return " | ".join(" ".join(map(str, b)) for b in p.blocks)


def _cmd_analyze(args) -> int:
    table = parse_table(_read_input(args.input))
    prods = sorted(product_set(table))
    h = compute_h(table)
    psi = compute_psi(table)
    t = choose_transversal(psi, args.policy, args.seed)
    r = induced_retraction(psi, t)
    witness = verify_inflation(table, r)
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "order": table.order,
                    "product_set": prods,
                    "h_blocks": [list(b) for b in h.blocks],
                    "psi_blocks": [list(b) for b in psi.blocks],
                    "transversal": list(t.representatives),
                    "theta": list(r.theta),
                    "inflation_ok": witness is None,
                    "inflation_witness": None
                    if witness is None
                    else {"axiom": witness.axiom, "elements": list(witness.elements)},
                }
            )
        )
    else:
        print(f"order: {table.order}")
        print("product_set: " + " ".join(map(str, prods)))
        print("h: " + _format_blocks(h))
        print("psi: " + _format_blocks(psi))
        print("transversal: " + " ".join(map(str, t.representatives)))
        print("theta: " + " ".join(map(str, r.theta)))
        if witness is None:
            print("inflation: ok")
        else:
            print(f"inflation: {witness.axiom} fails at {' '.join(map(str, witness.elements))}")
    return 0


def _cmd_aut(args) -> int:
    table = parse_table(_read_input(args.input))
    group = enumerate_automorphisms(table, max_order=args.max_order)
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "degree": group.degree,
                    "order": len(group),
                    "elements": [list(p.images) for p in group],
                }
            )
        )
    else:
        print(len(group))
        for p in group:
            print("p: " + " ".join(map(str, p.images)))
    return 0


def _cmd_verify_theorem(args) -> int:
    table = parse_table(_read_input(args.input))
    report = verify_theorem(table, args.policy, args.seed, max_order=args.max_order)
    if args.format == "structured":
        print(json.dumps(report.to_json_dict()))
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.all_flags else 1


def _cmd_build_inflation(args) -> int:
    spec = parse_fiber_spec(_read_input(args.input))
    table, r = build_inflation(spec, max_order=args.max_order)
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "order": table.order,
                    "rows": [list(row) for row in table.rows],
                    "theta": list(r.theta),
                    "transversal": list(r.transversal.representatives),
                }
            )
        )
    else:
        sys.stdout.write(format_table(table))
        print("theta: " + " ".join(map(str, r.theta)))
    return 0


def _cmd_enumerate(args) -> int:
    task = EnumerationTask(args.order, args.mode.replace("-", "_"))
    count = 0
    for table in enumerate_semigroups(task, max_order=args.max_order):
        count += 1
        if args.format == "structured":
            print(json.dumps({"rows": [list(row) for row in table.rows]}))
        else:
            sys.stdout.write(format_table(table))
    print(f"{count} tables", file=sys.stderr)
    return 0


def _cmd_corpus(args) -> int:
    task = EnumerationTask(args.order, args.mode.replace("-", "_"))
    # before the report file is opened, which would empty it
    check_enumeration_order(task, args.max_order)
    summary_out = sys.stderr if args.report == "-" else sys.stdout
    if args.report == "-":
        sink = contextlib.nullcontext(sys.stdout)
    elif args.report is None:
        sink = contextlib.nullcontext(io.StringIO())  # reports discarded unless asked for
    else:
        sink = open(args.report, "w", encoding="ascii")
    with sink as out:
        summary = corpus_verify(
            task, out, policy=args.policy, seed=args.seed, max_order=args.max_order
        )
    if args.format == "structured":
        print(json.dumps(summary.to_json_dict()), file=summary_out)
    else:
        summary_out.write(summary.to_text())
    return 0 if summary.theorem_failures == 0 else 1


def _add_io_flags(sub, *, policy=False, max_order=None):
    sub.add_argument("input", nargs="?", default="-", help="input file, or - for stdin")
    sub.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output form"
    )
    if policy:
        sub.add_argument(
            "--policy", choices=("least", "greatest", "seeded"), default="least"
        )
        sub.add_argument("--seed", type=int, default=None, help="seed for --policy seeded")
    if max_order is not None:
        sub.add_argument("--max-order", type=int, default=max_order, dest="max_order")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="finsemi",
        description="Analyze the inflation structure of finite semigroups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="test a table for associativity")
    _add_io_flags(sub)
    sub.set_defaults(func=_cmd_check)

    sub = subs.add_parser("analyze", help="h, psi, products, transversal, retraction")
    _add_io_flags(sub, policy=True)
    sub.set_defaults(func=_cmd_analyze)

    sub = subs.add_parser("aut", help="enumerate all automorphisms")
    _add_io_flags(sub, max_order=DEFAULT_MAX_ORDER)
    sub.set_defaults(func=_cmd_aut)

    sub = subs.add_parser("verify-theorem", help="check the decomposition on one table")
    _add_io_flags(sub, policy=True, max_order=DEFAULT_MAX_ORDER)
    sub.set_defaults(func=_cmd_verify_theorem)

    sub = subs.add_parser("build-inflation", help="inflate a base table by fiber sizes")
    _add_io_flags(sub, max_order=DEFAULT_MAX_INFLATION_ORDER)
    sub.set_defaults(func=_cmd_build_inflation)

    for name in ("enumerate", "corpus"):
        sub = subs.add_parser(
            name,
            help="generate all tables of one order"
            if name == "enumerate"
            else "verify the theorem across a whole enumeration",
        )
        sub.add_argument("--order", type=int, required=True)
        sub.add_argument("--mode", choices=("labelled", "up-to-iso"), default="labelled")
        sub.add_argument(
            "--max-order", type=int, default=DEFAULT_MAX_ENUM_ORDER, dest="max_order"
        )
        sub.add_argument(
            "--format", choices=("text", "structured"), default="text", help="output form"
        )
        if name == "corpus":
            sub.add_argument("--policy", choices=("least", "greatest", "seeded"), default="least")
            sub.add_argument("--seed", type=int, default=None)
            sub.add_argument("--report", default=None, help="per-table report file, - for stdout")
            sub.set_defaults(func=_cmd_corpus)
        else:
            sub.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OrderTooLarge as exc:
        print(f"finsemi: {exc}", file=sys.stderr)
        return 3
    except (FinsemiError, OSError) as exc:
        print(f"finsemi: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
