"""Command-line front end.

Commands:
  poly    construct a family polynomial (symmetric, or non-symmetric via --w)
  norm    closed-form squared norm of the monic family polynomial
  pair    inner product of two polynomials (canonical JSON input)
  raise   apply a raising operator to a family polynomial
  shift   apply a shift operator (level beta <-> beta+1)
  verify  run named verification suites (exit code 0 iff all cases pass)
  table   labels x norms x eigenvalues as CSV or JSON

Conventions: partitions are comma lists ("2,1"; empty string = empty
partition), permutations are one-line comma lists ("2,1,3"), rationals are
"p/q" strings.  Output is byte-deterministic for a fixed invocation and
seed.

One runner: ``main`` parses the options and builds the family spec, and
each ``cmd_*`` returns its exit code, its JSON payload and its text in the
other format (pretty, or CSV for ``table``).  Only ``main`` writes the
output and turns an exception into an exit code.

Exit codes, for every command:
  0  everything passed
  1  a counterexample: a verify case failed, or a check the command runs
     came out false (a raise or shift image not proportional to its
     target, a construction that is not triangular, a sigma_B or
     Laguerre operator image that is not even)
  2  a usage or input error: bad options, a malformed value, a grid out
     of bounds (N, weight, degree, beta or gamma, or an empty list), a
     label or parameter the construction rejects, an --output path that
     cannot be written
A counterexample outside ``verify`` and every input error end in one
``error: ...`` (or ``usage error: ...``) line on stderr; an option the
argument parser rejects also prints the usage line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from fractions import Fraction
from typing import NoReturn

from . import operators as ops_module
from .combinatorics import partitions_up_to
from .errors import (
    AmbientSizeMismatch,
    DivergentWeightError,
    HeckePolyError,
    RodriguesSingularError,
    TypeBContextError,
)
from .families import NonSymLabel, construct, realization
from .parameters import FamilySpec, LAGUERRE
from .pairings import norm_formula
from .polynomials import Polynomial
from .raising import raising_apply
from .shift import calibrate, shift_apply
from .verify import GridSpec, SUITES, reports_to_json, run_all


EXIT_PASS, EXIT_COUNTEREXAMPLE, EXIT_INPUT = 0, 1, 2

# errors that reject the input; any other HeckePolyError is a failed check
_INPUT_ERRORS = (
    ValueError,
    OSError,
    AmbientSizeMismatch,
    DivergentWeightError,
    RodriguesSingularError,
    TypeBContextError,
)


def _fail(message: str, err: Exception | None = None) -> NoReturn:
    """Write the one-line message to stderr and exit with EXIT_INPUT, or
    with EXIT_COUNTEREXAMPLE when err is a failed check."""
    sys.stderr.write(message + "\n")
    failed_check = err is not None and not isinstance(err, _INPUT_ERRORS)
    raise SystemExit(EXIT_COUNTEREXAMPLE if failed_check else EXIT_INPUT)


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        _fail(f"usage error: malformed partition {text!r}")
    return parts


def parse_permutation(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        _fail(f"usage error: malformed permutation {text!r}")


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail(f"usage error: malformed rational {text!r}")


def int_list(text: str) -> tuple[int, ...]:
    """argparse type for a comma list of integers ("0,1,2")."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {text!r}")


def rational_list(text: str) -> tuple[Fraction, ...]:
    """argparse type for a comma list of rationals ("0,1/3,1/2")."""
    try:
        return tuple(Fraction(v) for v in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed rational list {text!r}")


def _spec_from(args) -> FamilySpec:
    gamma = parse_rational(args.gamma) if args.gamma is not None else None
    if args.family == LAGUERRE and gamma is None:
        _fail("usage error: the laguerre family needs --gamma")
    try:
        return FamilySpec(args.family, args.n, args.beta, gamma)
    except ValueError as err:
        _fail(f"usage error: {err}")


def _read_poly(text: str) -> Polynomial:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    return Polynomial.from_json_dict(json.loads(text))


def cmd_poly(args, spec: FamilySpec):
    label = parse_partition(args.lam)
    if args.w is not None:
        w = parse_permutation(args.w)
        label = NonSymLabel(label + (0,) * (len(w) - len(label)), w)
    result = construct(label, spec, args.method)
    text = "\n".join([
        result.poly.pretty(realization(spec).letter),
        "eigenvalues: " + ", ".join(str(e) for e in result.eigenvalues),
        f"construction: {result.construction}",
    ])
    return EXIT_PASS, result.to_json_dict(), text


def cmd_norm(args, spec: FamilySpec):
    value = norm_formula(parse_partition(args.lam), spec, args.form)
    return EXIT_PASS, value.to_json_dict(), value.render()


def cmd_pair(args, spec: FamilySpec):
    try:
        f = _read_poly(args.f)
        g = _read_poly(args.g)
    except (HeckePolyError, OSError, ValueError, KeyError, TypeError) as err:
        _fail(f"error: cannot read polynomial: {err}")
    try:
        op_f, op_g = (
            text and ops_module.operator_from_string(text, spec)
            for text in (args.apply_f, args.apply_g)
        )
    except (HeckePolyError, ValueError) as err:
        _fail(f"usage error: {err}")
    real = realization(spec)
    # through the codec: a Laguerre operator acts on z, f and g are in u,
    # and an image that is not even raises EvennessViolation (exit 1)
    f = real.apply(op_f, f) if op_f else f
    g = real.apply(op_g, g) if op_g else g
    value = real.pair(f, g)
    return EXIT_PASS, value.to_json_dict(), value.render()


def cmd_raise(args, spec: FamilySpec):
    base = construct(parse_partition(args.lam), spec, args.method)
    constant, raised = raising_apply(args.m, base)
    payload = {"constant": str(constant), "result": raised.to_json_dict()}
    text = (
        f"constant: {constant}\nlabel: {list(raised.label)}\n"
        + raised.poly.pretty(realization(spec).letter)
    )
    return EXIT_PASS, payload, text


def cmd_shift(args, spec: FamilySpec):
    base = construct(parse_partition(args.lam), spec, args.method)
    constant, shifted = shift_apply(args.direction, base)
    source_beta = spec.beta if args.direction == "G" else spec.beta - 1
    calibration = calibrate(spec.family, spec.n, source_beta, spec.gamma).to_json_dict()
    payload = {
        "constant": str(constant),
        "calibration": calibration,
        "result": shifted.to_json_dict(),
    }
    text = (
        f"constant: {constant}\nlabel: {list(shifted.label)} at beta="
        f"{shifted.spec.beta}\ncalibration: {json.dumps(calibration, sort_keys=True)}\n"
        + shifted.poly.pretty(realization(spec).letter)
    )
    return EXIT_PASS, payload, text


def cmd_verify(args, _spec: None):
    grid = GridSpec(**{field.name: getattr(args, field.name) for field in fields(GridSpec)})
    reports = run_all(grid, [args.suite] if args.suite and not args.all else list(SUITES))
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(f"{rep.suite}: {status} ({rep.cases_passed}/{rep.cases_run})")
        for failure in rep.failures:
            lines.append(f"  counterexample: {json.dumps(failure, sort_keys=True)}")
    code = EXIT_PASS if all(r.passed for r in reports) else EXIT_COUNTEREXAMPLE
    return code, reports_to_json(reports), "\n".join(lines)


def cmd_table(args, spec: FamilySpec):
    if args.max_weight < 0:
        raise ValueError(f"max_weight must be non-negative, got {args.max_weight}")
    rows = []
    for lam in partitions_up_to(args.max_weight, spec.n):
        poly = construct(lam, spec)
        rows.append(
            {
                "family": spec.family,
                "lambda": ",".join(str(p) for p in lam),
                "n": spec.n,
                "beta": spec.beta,
                "gamma": str(spec.gamma) if spec.gamma is not None else "",
                "norm_product": norm_formula(lam, spec, "product_form").render(),
                "norm_hook": norm_formula(lam, spec, "hook_form").render(),
                "eigenvalues": ";".join(str(e) for e in poly.eigenvalues),
            }
        )
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return EXIT_PASS, rows, buffer.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckepoly",
        description="Exact operator calculus for Jack, multivariable Hermite, "
        "and multivariable Laguerre polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def family_options(p, need_lambda=True, formats=("pretty", "json")):
        p.add_argument("--family", required=True, choices=["jack", "hermite", "laguerre"])
        if need_lambda:
            p.add_argument("--lambda", dest="lam", required=True,
                           help="partition as a comma list; '' for empty")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--beta", type=int, required=True)
        p.add_argument("--gamma", help="rational p/q (laguerre only)")
        p.add_argument("--format", default=formats[0], choices=formats)
        p.add_argument("--output", help="write to a file instead of stdout")

    p_poly = sub.add_parser("poly", help="construct a family polynomial")
    family_options(p_poly)
    p_poly.add_argument("--w", help="one-line permutation for non-symmetric labels")
    p_poly.add_argument("--method", help="construction route (family-specific)")
    p_poly.set_defaults(fn=cmd_poly)

    p_norm = sub.add_parser("norm", help="closed-form squared norm")
    family_options(p_norm)
    p_norm.add_argument(
        "--form", default="product_form", choices=["product_form", "hook_form"]
    )
    p_norm.set_defaults(fn=cmd_norm)

    p_pair = sub.add_parser("pair", help="inner product of two polynomials")
    family_options(p_pair, need_lambda=False)
    p_pair.add_argument("--f", required=True, help="polynomial JSON or @file")
    p_pair.add_argument("--g", required=True, help="polynomial JSON or @file")
    p_pair.add_argument("--apply-f", help='named operator for f, e.g. "cherednikA:j=2"')
    p_pair.add_argument("--apply-g", help='named operator for g, e.g. "dunklA:j=1"')
    p_pair.set_defaults(fn=cmd_pair)

    p_raise = sub.add_parser("raise", help="apply a raising operator")
    family_options(p_raise)
    p_raise.add_argument("--m", type=int, required=True)
    p_raise.add_argument("--method", help="construction route for the input")
    p_raise.set_defaults(fn=cmd_raise)

    p_shift = sub.add_parser("shift", help="apply a shift operator")
    family_options(p_shift)
    p_shift.add_argument("--direction", required=True, choices=["G", "G_hat"])
    p_shift.add_argument("--method", help="construction route for the input")
    p_shift.set_defaults(fn=cmd_shift)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=sorted(SUITES))
    p_verify.add_argument("--all", action="store_true",
                          help="run every suite (default when --suite is absent)")
    grid = GridSpec()  # the defaults are the default grid's
    p_verify.add_argument("--n-list", dest="ns", type=int_list, default=grid.ns)
    p_verify.add_argument("--beta-list", dest="betas", type=int_list, default=grid.betas)
    p_verify.add_argument("--gamma-list", dest="gammas", type=rational_list,
                          default=grid.gammas)
    p_verify.add_argument("--max-weight", type=int, default=grid.max_weight)
    p_verify.add_argument("--degree", type=int, default=grid.degree)
    p_verify.add_argument("--seed", type=int, default=grid.seed)
    p_verify.add_argument("--pairs", type=int, default=grid.pairs)
    p_verify.add_argument("--rand-polys", type=int, default=grid.rand_polys)
    p_verify.add_argument("--format", default="pretty", choices=["pretty", "json"])
    p_verify.add_argument("--output")
    p_verify.set_defaults(fn=cmd_verify)

    p_table = sub.add_parser("table", help="labels x norms x eigenvalues")
    family_options(p_table, need_lambda=False, formats=("csv", "json"))
    p_table.add_argument("--max-weight", type=int, required=True)
    p_table.set_defaults(fn=cmd_table)

    return parser


def main(argv=None) -> int:
    """Run one command: emit its JSON payload (serialized here unless the
    command already did, as verify's report is) or its other format, and
    turn an exception into one error line and its exit code."""
    args = build_parser().parse_args(argv)
    try:
        spec = None if args.command == "verify" else _spec_from(args)
        code, payload, text = args.fn(args, spec)
        if args.format == "json":
            text = payload if isinstance(payload, str) else json.dumps(
                payload, sort_keys=True, indent=2
            )
        text = text if text.endswith("\n") else text + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (HeckePolyError, ValueError, OSError) as err:
        _fail(f"error: {err}", err)
    return code


if __name__ == "__main__":
    sys.exit(main())
