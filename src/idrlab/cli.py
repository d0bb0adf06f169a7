"""Command line front end.

One JSON object in (via --in FILE or '-' for stdin, where a command needs
bulk data), one JSON line out on stdout.  Integers cross the boundary as
decimal strings so arbitrary precision survives any JSON parser; rationals
as {"num": "...", "den": "..."}.  Exit codes: 0 success, 1 bad input or
usage, 2 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from idrlab import analysis, families, idr, newton
from idrlab.arith import lcm_table


def _enc_int(value: int) -> str:
    return str(value)


def _enc_rat(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _dec_int(node) -> int:
    if isinstance(node, bool):
        raise ValueError(f"expected an integer, got {node!r}")
    if isinstance(node, int):
        return node
    if isinstance(node, str):
        try:
            return int(node, 10)
        except ValueError:
            raise ValueError(f"not a decimal integer: {node!r}") from None
    raise ValueError(f"expected an integer, got {node!r}")


def _dec_rat(node) -> Fraction:
    if isinstance(node, dict):
        try:
            return Fraction(_dec_int(node["num"]), _dec_int(node["den"]))
        except KeyError as exc:
            raise ValueError(f"rational object is missing field {exc}") from None
    if isinstance(node, str) and "/" in node:
        num, _, den = node.partition("/")
        return Fraction(int(num, 10), int(den, 10))
    return Fraction(_dec_int(node))


def _parse_ratio_flag(text: str) -> Fraction:
    try:
        return _dec_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an integer or P/Q ratio, got {text!r}"
        ) from None


def _read_payload(source: str) -> dict:
    if source == "-":
        raw = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            raw = handle.read()
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _field(data: dict, name: str) -> object:
    if name not in data:
        raise ValueError(f"input object is missing field '{name}'")
    return data[name]


def _int_list(data: dict, name: str) -> list[int]:
    node = _field(data, name)
    if not isinstance(node, list):
        raise ValueError(f"field '{name}' must be an array")
    return [_dec_int(item) for item in node]


def _rat_list(data: dict, name: str) -> list[Fraction]:
    node = _field(data, name)
    if not isinstance(node, list):
        raise ValueError(f"field '{name}' must be an array")
    return [_dec_rat(item) for item in node]


# --------------------------------------------------------------------------
# Handlers.  Each returns the result payload as a plain dict.
# --------------------------------------------------------------------------


def _cmd_newton_to_coeffs(args) -> dict:
    values = _int_list(_read_payload(args.infile), "values")
    coeffs = newton.coeffs_from_values(values)
    return {"coeffs": [_enc_int(c) for c in coeffs]}


def _cmd_newton_to_values(args) -> dict:
    coeffs = _int_list(_read_payload(args.infile), "coeffs")
    values = newton.values_from_coeffs(coeffs, args.x_max)
    return {"values": [_enc_int(v) for v in values]}


def _violation_doc(report: idr.ViolationReport) -> dict:
    doc = {"pairs_checked": _enc_int(report.pairs_checked)}
    if report.violation is None:
        doc["violation"] = None
    else:
        doc["violation"] = {
            "a": _enc_int(report.violation[0]),
            "b": _enc_int(report.violation[1]),
        }
    return doc


def _cmd_idr_check(args) -> dict:
    values = _int_list(_read_payload(args.infile), "values")
    out: dict = {}
    if args.method in ("brute", "both"):
        out["bruteforce"] = _violation_doc(idr.check_idr_bruteforce(values))
    if args.method in ("newton", "both"):
        report = idr.check_idr_newton(values)
        out["newton"] = {
            "failing_indices": [_enc_int(k) for k in report.failing_indices]
        }
    if args.method == "both":
        out["agree"] = (out["bruteforce"]["violation"] is not None) == bool(
            out["newton"]["failing_indices"]
        )
    return out


def _cmd_idr_project(args) -> dict:
    values = _int_list(_read_payload(args.infile), "values")
    projected = idr.project_idr(values)
    return {"values": [_enc_int(v) for v in projected]}


def _cmd_idr_lemmas(args) -> dict:
    report = idr.verify_divisibility_lemmas(args.n)
    lemmas = []
    for entry in report.lemmas:
        lemmas.append(
            {
                "name": entry.name,
                "checks": _enc_int(entry.checks),
                "counterexample": None
                if entry.counterexample is None
                else [_enc_int(v) for v in entry.counterexample],
            }
        )
    return {"passed": report.passed, "lemmas": lemmas}


def _family_spec_from_args(args) -> families.FamilySpec:
    if args.family == "factorial-e":
        if args.a is None:
            raise ValueError("family factorial-e requires --a")
        return families.FactorialESpec(args.a, args.rounding, args.scale)
    if args.family == "hyper":
        if args.a is None or args.k is None or args.r is None:
            raise ValueError("family hyper requires --a, --k and --r")
        return families.HyperSpec(args.a, args.k, args.r, args.rounding)
    if args.family == "polynomial":
        if args.infile is None:
            raise ValueError("family polynomial requires --in with a coeffs object")
        coeffs = _rat_list(_read_payload(args.infile), "coeffs")
        return families.PolynomialSpec(tuple(coeffs))
    if args.alpha is None or args.base is None:
        raise ValueError("family exponential requires --alpha and --base")
    return families.ExponentialSpec(args.alpha, args.base)


def _cmd_family_eval(args) -> dict:
    spec = _family_spec_from_args(args)
    values = spec.tabulate(args.x_max)
    return {"values": [_enc_int(v) for v in values]}


def _cmd_family_verify(args) -> dict:
    if args.a is None:
        raise ValueError("family verify requires --a")
    if args.family == "factorial-e":
        report = families.verify_factorial_e(args.a, args.rounding, args.x_max)
    elif args.family == "hyper":
        if args.k is None or args.r is None:
            raise ValueError("family hyper requires --k and --r")
        report = families.verify_hyper(args.a, args.k, args.r, args.rounding, args.x_max)
    else:
        raise ValueError("family verify supports factorial-e and hyper")
    rows = []
    for row in report.rows:
        rows.append(
            {
                "x": _enc_int(row.x),
                "closed": _enc_int(row.closed),
                "oracle": None if row.oracle is None else _enc_int(row.oracle),
                "status": row.status,
            }
        )
    return {
        "rows": rows,
        "undecided": _enc_int(report.undecided_count),
        "consistent": report.consistent,
    }


def _cmd_family_scaled(args) -> dict:
    values = families.FactorialESpec(args.a, "none", args.scale).tabulate(args.x_max)
    return {"values": [_enc_int(v) for v in values]}


def _cmd_analyze_gap(args) -> dict:
    data = _read_payload(args.infile)
    report = analysis.fractional_gap(_rat_list(data, "values"), args.modulus)
    return {
        "modulus": _enc_int(report.modulus),
        "samples": _enc_int(report.samples),
        "max_gap": _enc_rat(report.max_gap),
        "fractional_parts": [_enc_rat(p) for p in report.fractional_parts],
    }


def _cmd_analyze_witness(args) -> dict:
    if args.kind == "power-factorial":
        if args.a is None:
            raise ValueError("witness power-factorial requires --a")
        witness = analysis.power_factorial_witness(args.a)
        return {
            "x": _enc_int(witness.x),
            "y": _enc_int(witness.y),
            "divisor": _enc_int(witness.divisor),
        }
    if args.p is None or args.q is None:
        raise ValueError("witness scaled-factorial requires --p and --q")
    witness = analysis.floored_scaled_factorial_witness(args.p, args.q)
    return {
        "a": _enc_int(witness.a),
        "b": _enc_int(witness.b),
        "divisor": _enc_int(witness.divisor),
    }


def _cmd_analyze_polynomial(args) -> dict:
    coeffs = _rat_list(_read_payload(args.infile), "coeffs")
    verdict = analysis.polynomial_idr_check(coeffs, args.prefix)
    doc: dict = {"integral_high_coeffs": verdict.integral_high_coeffs}
    if verdict.violation is None:
        doc["violation"] = None
    else:
        doc["violation"] = {
            "a": _enc_int(verdict.violation[0]),
            "b": _enc_int(verdict.violation[1]),
        }
    return doc


def _cmd_lcm_table(args) -> dict:
    return {"entries": [_enc_int(v) for v in lcm_table(args.n)]}


def _cmd_cf_convergents(args) -> dict:
    result = families.euler_cf_convergents(args.a, args.n)
    return {
        "terms": [_enc_int(t) for t in result.terms],
        "convergents": [
            {"p": _enc_int(p), "q": _enc_int(q)} for p, q in result.convergents
        ],
    }


# --------------------------------------------------------------------------
# Parser assembly.
# --------------------------------------------------------------------------


def _add_infile(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--in",
        dest="infile",
        required=required,
        default=None,
        metavar="FILE",
        help="JSON input file, or - for stdin",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idr-lab",
        description="Exact tools for integer functions with integral difference ratios.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    group = top.add_parser("newton", help="value table and coefficient conversions")
    sub = group.add_subparsers(dest="subcommand", required=True)
    leaf = sub.add_parser("to-coeffs", help="values -> Newton coefficients")
    _add_infile(leaf)
    leaf.set_defaults(handler=_cmd_newton_to_coeffs)
    leaf = sub.add_parser("to-values", help="Newton coefficients -> values")
    _add_infile(leaf)
    leaf.add_argument("--x-max", type=int, required=True)
    leaf.set_defaults(handler=_cmd_newton_to_values)

    group = top.add_parser("idr", help="divisibility checks and projection")
    sub = group.add_subparsers(dest="subcommand", required=True)
    leaf = sub.add_parser("check", help="scan a table for violations")
    _add_infile(leaf)
    leaf.add_argument("--method", choices=["brute", "newton", "both"], default="both")
    leaf.set_defaults(handler=_cmd_idr_check)
    leaf = sub.add_parser("project", help="nearest-below table with the property")
    _add_infile(leaf)
    leaf.set_defaults(handler=_cmd_idr_project)
    leaf = sub.add_parser("lemmas", help="exhaustive small-range divisibility facts")
    leaf.add_argument("--n", type=int, required=True)
    leaf.set_defaults(handler=_cmd_idr_lemmas)

    group = top.add_parser("family", help="closed-form family tables")
    sub = group.add_subparsers(dest="subcommand", required=True)
    leaf = sub.add_parser("eval", help="tabulate a family")
    leaf.add_argument(
        "--family",
        choices=["factorial-e", "hyper", "polynomial", "exponential"],
        required=True,
    )
    leaf.add_argument("--a", type=int)
    leaf.add_argument("--k", type=int)
    leaf.add_argument("--r", type=int)
    leaf.add_argument("--rounding", choices=["none", "floor", "ceil"], default="none")
    leaf.add_argument("--scale", type=int, default=1)
    leaf.add_argument("--alpha", type=_parse_ratio_flag, metavar="P/Q")
    leaf.add_argument("--base", type=int)
    leaf.add_argument("--x-max", type=int, required=True)
    _add_infile(leaf, required=False)
    leaf.set_defaults(handler=_cmd_family_eval)
    leaf = sub.add_parser("verify", help="closed form against the interval oracle")
    leaf.add_argument("--family", choices=["factorial-e", "hyper"], required=True)
    leaf.add_argument("--a", type=int, required=True)
    leaf.add_argument("--k", type=int)
    leaf.add_argument("--r", type=int)
    leaf.add_argument("--rounding", choices=["floor", "ceil"], default="floor")
    leaf.add_argument("--x-max", type=int, required=True)
    leaf.set_defaults(handler=_cmd_family_verify)
    leaf = sub.add_parser("scaled", help="integer multiples of the full family")
    leaf.add_argument("--scale", type=int, required=True)
    leaf.add_argument("--a", type=int, required=True)
    leaf.add_argument("--x-max", type=int, required=True)
    leaf.set_defaults(handler=_cmd_family_scaled)

    group = top.add_parser("analyze", help="falsifiers and spectra")
    sub = group.add_subparsers(dest="subcommand", required=True)
    leaf = sub.add_parser("gap", help="fractional parts modulo A and largest arc")
    _add_infile(leaf)
    leaf.add_argument("--modulus", type=int, required=True)
    leaf.set_defaults(handler=_cmd_analyze_gap)
    leaf = sub.add_parser("witness", help="certified counterexample pairs")
    leaf.add_argument(
        "--kind", choices=["power-factorial", "scaled-factorial"], required=True
    )
    leaf.add_argument("--a", type=int)
    leaf.add_argument("--p", type=int)
    leaf.add_argument("--q", type=int)
    leaf.set_defaults(handler=_cmd_analyze_witness)
    leaf = sub.add_parser("polynomial", help="floored polynomial check")
    _add_infile(leaf)
    leaf.add_argument("--prefix", type=int, required=True)
    leaf.set_defaults(handler=_cmd_analyze_polynomial)

    group = top.add_parser("lcm", help="cumulative lcm tables")
    sub = group.add_subparsers(dest="subcommand", required=True)
    leaf = sub.add_parser("table", help="lcm(1..k) for k = 0..n")
    leaf.add_argument("--n", type=int, required=True)
    leaf.set_defaults(handler=_cmd_lcm_table)

    group = top.add_parser("cf", help="continued fraction of e**(1/a)")
    sub = group.add_subparsers(dest="subcommand", required=True)
    leaf = sub.add_parser("convergents", help="terms and convergents")
    leaf.add_argument("--a", type=int, required=True)
    leaf.add_argument("--n", type=int, required=True)
    leaf.set_defaults(handler=_cmd_cf_convergents)

    return parser


def run(argv: list[str] | None) -> tuple[dict | None, int]:
    """Parse and execute; returns (output document, exit code)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return None, 0 if exc.code in (0, None) else 1
    try:
        return {"status": "ok", "result": args.handler(args)}, 0
    except (ValueError, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
        return {"status": "error", "error": str(exc)}, 1
    except Exception as exc:  # pragma: no cover - guarded invariants
        return {"status": "error", "error": f"internal: {exc}"}, 2


def main(argv: list[str] | None = None) -> int:
    doc, code = run(argv)
    if doc is not None:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        if code != 0:
            print(doc["error"], file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
