"""Command-line interface.

Subcommands:

    hierarchy --family mirror|direct|heat --order N [--coords x|eta] [--format ...]
    verify strong-symmetry --family F --member N
    verify hereditary --family F [--ibp-depth K]
    verify commute --family F --m M --n N [--scenes S]
    verify cole-hopf --family F
    reduce --commutative --expr TEXT        (PHI and PSI name the operators)
    eval --scene FILE --expr TEXT --at X0
    oracle cole-hopf [--dim D] [--grid G] [--tol T]
    scene --seed S [--dim D] [--degree G] [--out FILE]

Exit codes: 0 all checks passed, 1 failed or nonzero verification,
2 usage error, 3 inconclusive (integration-by-parts bound exhausted).
The NCBURGERS_IBP_DEPTH environment variable sets the default nesting
depth for the bounded integration-by-parts strategy; a value that is not an
integer is a usage error.  ``verify commute`` also runs the exact matrix
oracle on the two halves of the Lie bracket.  ``reduce`` reduces a text
that parses as a field as a field, and any other text as an operator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .fields import NestingLimitExceeded, default_context
from .hierarchy import EquationFamily, hierarchy_member, recursion_operator, reduce_commutative
from .lang import ParseError, parse_field, parse_op, print_expr, print_field
from .oracle import (
    CHSolution,
    cole_hopf_numeric,
    default_scenes,
    eval_field,
    make_scene,
    rational_from_text,
    scene_from_text,
    scene_to_text,
)
from .verify import (
    Status,
    VerificationReport,
    flow_commutation,
    hereditary_defect,
    strong_symmetry_member,
    verify_cole_hopf,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _default_depth() -> int:
    text = os.environ.get("NCBURGERS_IBP_DEPTH", "4")
    try:
        return int(text)
    except ValueError:
        raise ValueError("NCBURGERS_IBP_DEPTH must be an integer, not %r" % text) from None


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncburgers",
        description="Operator calculus and verification for non-commutative Burgers equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hierarchy", help="print hierarchy members")
    p.set_defaults(run=_cmd_hierarchy)
    p.add_argument("--family", choices=["mirror", "direct", "heat"], required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--coords", choices=["x", "eta"], default="x")
    p.add_argument("--format", choices=["text", "latex", "structured"], default="text")

    v = sub.add_parser("verify", help="machine-check an algebraic claim")
    v.set_defaults(run=_cmd_verify)
    vsub = v.add_subparsers(dest="claim", required=True)
    claim = argparse.ArgumentParser(add_help=False)
    claim.add_argument("--family", choices=["mirror", "direct"], required=True)
    claim.add_argument("--format", choices=["text", "structured"], default="text")

    vs = vsub.add_parser("strong-symmetry", parents=[claim])
    vs.add_argument("--member", type=int, required=True)
    vs.add_argument("--ibp-depth", type=int, default=None)

    vh = vsub.add_parser("hereditary", parents=[claim])
    vh.add_argument("--ibp-depth", type=int, default=None)

    vc = vsub.add_parser("commute", parents=[claim])
    vc.add_argument("--m", type=int, required=True)
    vc.add_argument("--n", type=int, required=True)
    vc.add_argument("--scenes", type=int, default=10)

    vsub.add_parser("cole-hopf", parents=[claim])

    r = sub.add_parser("reduce", help="commutative reduction of an expression")
    r.set_defaults(run=_cmd_reduce)
    r.add_argument("--commutative", action="store_true", required=True)
    r.add_argument("--expr", required=True)
    r.add_argument("--format", choices=["text", "latex"], default="text")

    e = sub.add_parser("eval", help="evaluate an expression in a matrix scene")
    e.set_defaults(run=_cmd_eval)
    e.add_argument("--scene", required=True)
    e.add_argument("--expr", required=True)
    e.add_argument("--at", required=True)

    o = sub.add_parser("oracle", help="numeric oracles")
    o.set_defaults(run=_cmd_oracle)
    osub = o.add_subparsers(dest="oracle_kind", required=True)
    och = osub.add_parser("cole-hopf")
    och.add_argument("--dim", type=int, default=2)
    och.add_argument("--grid", type=int, default=20)
    och.add_argument("--tol", type=float, default=1e-8)

    s = sub.add_parser("scene", help="generate a matrix scene document")
    s.set_defaults(run=_cmd_scene)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--dim", type=int, default=3)
    s.add_argument("--degree", type=int, default=2)
    s.add_argument("--out", default=None)

    return parser


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _report_exit(reports: List[VerificationReport], fmt: str) -> int:
    if fmt == "structured":
        _print_json({"schema": 1, "reports": [r.to_dict() for r in reports]})
    else:
        for r in reports:
            print("%s: %s" % (r.claim, r.status.value))
            if r.status == Status.NONZERO and r.defect is not None:
                print("  defect: %s" % print_field(r.defect))
    if any(r.status == Status.INCONCLUSIVE for r in reports):
        return EXIT_INCONCLUSIVE
    if all(r.ok for r in reports):
        return EXIT_OK
    return EXIT_FAILED


def _cmd_hierarchy(args) -> int:
    if args.format == "latex" and args.coords == "eta":
        raise ValueError("--format latex prints x coordinates only, not --coords eta")
    fam = EquationFamily(args.family)
    member = hierarchy_member(fam, args.order)
    if args.format == "structured":
        _print_json(
            {
                "schema": 1,
                "family": fam.value,
                "order": args.order,
                "rhs": print_field(member.rhs, args.coords),
                "terms": len(member.rhs.terms),
            }
        )
    else:
        mode = "latex" if args.format == "latex" else args.coords
        print(print_field(member.rhs, mode))
    return EXIT_OK


def _cmd_verify(args) -> int:
    depth = args.ibp_depth if getattr(args, "ibp_depth", None) is not None else _default_depth()
    ctx = default_context(integral_depth=depth)
    fam = EquationFamily(args.family)
    if args.claim == "strong-symmetry":
        reports = [strong_symmetry_member(fam, args.member, ctx)]
    elif args.claim == "hereditary":
        reports = [hereditary_defect(fam, ctx)]
    elif args.claim == "commute":
        reports = [flow_commutation(fam, args.m, args.n, ctx, default_scenes(args.scenes))]
    else:
        reports = verify_cole_hopf(fam, depth)
    return _report_exit(reports, args.format)


_NAMED_OPERATORS = {
    "PHI": lambda: recursion_operator(EquationFamily.MIRROR, "expanded"),
    "PSI": lambda: recursion_operator(EquationFamily.DIRECT, "expanded"),
}


def _parse_field_or_op(text: str):
    """A field if ``text`` parses as one, else an operator; when neither
    grammar accepts it, the diagnostic of the one that got further (the
    field's on a tie)."""
    try:
        return parse_field(text)
    except ParseError as field_error:
        try:
            return parse_op(text)
        except ParseError as op_error:
            op_at, field_at = op_error.diagnostic, field_error.diagnostic
            further = (op_at.line, op_at.column) > (field_at.line, field_at.column)
            raise op_error if further else field_error from None


def _cmd_reduce(args) -> int:
    text = args.expr.strip()
    if text in _NAMED_OPERATORS:
        value = _NAMED_OPERATORS[text]()
    else:
        value = _parse_field_or_op(text)
    reduced = reduce_commutative(value)
    print(print_expr(reduced, "latex" if args.format == "latex" else "x"))
    return EXIT_OK


def _cmd_eval(args) -> int:
    with open(args.scene, "r", encoding="utf-8") as fh:
        scene = scene_from_text(fh.read())
    expr = parse_field(args.expr)
    value = eval_field(expr, scene, rational_from_text(args.at))
    for row in value:
        print(" ".join(str(x) for x in row))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.dim < 1:
        raise ValueError("--dim must be at least 1, not %d" % args.dim)
    if not 0 < args.tol < math.inf:
        raise ValueError("--tol must be a finite positive number, not %r" % args.tol)
    if args.grid < 1:
        raise ValueError("--grid must be at least 1 for a nonempty grid, not %d" % args.grid)
    import numpy as np

    d = args.dim
    rng = np.random.default_rng(12345)
    amp1 = np.triu(rng.uniform(0.05, 0.4, size=(d, d)))
    amp2 = np.tril(rng.uniform(0.05, 0.4, size=(d, d)))
    sol = CHSolution(d, [amp1, amp2], [Fraction(1, 2), Fraction(-1, 3)])
    xs = np.linspace(-1.0, 1.0, args.grid)
    ts = np.linspace(0.0, 0.5, args.grid)
    report = cole_hopf_numeric(sol, xs, ts)
    passed = report.max_residual < args.tol and report.heat_exact
    _print_json(
        {
            "schema": 1,
            "max_residual": report.max_residual,
            "heat_exact": report.heat_exact,
            "grid": list(report.grid),
            "tolerance": args.tol,
            "passed": passed,
        }
    )
    return EXIT_OK if passed else EXIT_FAILED


def _cmd_scene(args) -> int:
    scene = make_scene(args.seed, args.dim, args.degree)
    text = scene_to_text(scene)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except NestingLimitExceeded as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
