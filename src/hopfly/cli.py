"""Command-line front end.

Subcommands: hopf, unknot, series, minor, sln, verify.  Output is text or
JSON; exit status is 0 on success, 1 on verification failure or a failed
internal identity, 2 on usage errors (bad flags, malformed partitions,
out-of-range N, insufficient degree).
"""

from __future__ import annotations

import argparse
import json
import sys

from .ring import ConsistencyError, RingElem, format_poly, format_ring_elem, ring_elem_to_json
from .partitions import Partition
from .hopf import (
    complete_series,
    elementary_series,
    eval_unknot,
    framing_factor,
    hopf_invariant,
)
from .sln import hopf_sln_minor, hopf_sln_substitution, vandermonde_minor
from .verify import run_all


def _partition_flag(text: str) -> Partition:
    try:
        return Partition.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return value
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfly",
        description=(
            "Exact framed Homfly invariants of the Hopf link decorated by "
            "Young-diagram idempotents, with sl(N) specialisations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, need_mu=False, need_n=False):
        p.add_argument("--lambda", dest="lam", type=_partition_flag, required=True,
                       help="first decoration, comma-separated parts ('0' for empty)")
        if need_mu:
            p.add_argument("--mu", dest="mu", type=_partition_flag, required=True,
                           help="second decoration")
        if need_n:
            p.add_argument("--N", dest="n", type=_int_at_least(1), required=True,
                           help="rank of the specialisation v -> s^-N")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_hopf = sub.add_parser("hopf", help="two-variable invariant of the decorated Hopf link")
    add_common(p_hopf, need_mu=True)

    p_unknot = sub.add_parser("unknot", help="decorated unknot evaluation and framing factor")
    add_common(p_unknot)

    p_series = sub.add_parser("series", help="column and row generating series of a decoration")
    add_common(p_series)
    p_series.add_argument("--degree", type=_int_at_least(0), default=10,
                          help="truncation degree")

    p_minor = sub.add_parser("minor", help="Vandermonde minor P^N_(lambda,mu)")
    add_common(p_minor, need_mu=True, need_n=True)

    p_sln = sub.add_parser("sln", help="sl(N) specialisation by both routes")
    add_common(p_sln, need_mu=True, need_n=True)

    p_verify = sub.add_parser("verify", help="run the identity-verification suite")
    p_verify.add_argument("--max-size", type=_int_at_least(1), default=5,
                          help="largest partition size in the sweeps")
    p_verify.add_argument("--max-n", type=_int_at_least(2), default=4,
                          help="largest specialisation rank")
    p_verify.add_argument("--degree", type=_int_at_least(1), default=10,
                          help="series truncation degree for the series checks")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _q_form(value: RingElem) -> str | None:
    if value.num.nvars == 1 and not value.den and value.num.all_even():
        return format_poly(value.num, variable="q")
    return None


def _print_value(label: str, value: RingElem):
    print(f"{label}: {format_ring_elem(value)}")
    q = _q_form(value)
    if q is not None:
        print(f"{label} (q = s^2): {q}")


def run(args: argparse.Namespace) -> int:
    if args.command == "hopf":
        value = hopf_invariant(args.lam, args.mu)
        if args.format == "json":
            out = {"lambda": list(args.lam.parts), "mu": list(args.mu.parts)}
            out["value"] = ring_elem_to_json(value)
            print(json.dumps(out))
        else:
            print(f"lambda: {args.lam}")
            print(f"mu: {args.mu}")
            _print_value("value", value)
        return 0

    if args.command == "unknot":
        value = eval_unknot(args.lam)
        framing = framing_factor(args.lam)
        if args.format == "json":
            out = {"lambda": list(args.lam.parts)}
            out["value"] = ring_elem_to_json(value)
            out["framing"] = ring_elem_to_json(framing)
            print(json.dumps(out))
        else:
            print(f"lambda: {args.lam}")
            _print_value("value", value)
            _print_value("framing", framing)
        return 0

    if args.command == "series":
        e = elementary_series(args.lam, args.degree)
        h = complete_series(args.lam, args.degree)
        if args.format == "json":
            out = {
                "lambda": list(args.lam.parts),
                "degree": args.degree,
                "elementary": [ring_elem_to_json(c) for c in e.coeffs],
                "complete": [ring_elem_to_json(c) for c in h.coeffs],
            }
            print(json.dumps(out))
        else:
            print(f"lambda: {args.lam}")
            print(f"elementary series: {e}")
            print(f"complete series: {h}")
        return 0

    if args.command == "minor":
        minor = vandermonde_minor(args.lam, args.mu, args.n)
        value = RingElem(minor)
        if args.format == "json":
            out = {"lambda": list(args.lam.parts), "mu": list(args.mu.parts), "N": args.n}
            out["value"] = ring_elem_to_json(value)
            print(json.dumps(out))
        else:
            print(f"lambda: {args.lam}")
            print(f"mu: {args.mu}")
            print(f"N: {args.n}")
            _print_value("value", value)
        return 0

    if args.command == "sln":
        sub = hopf_sln_substitution(args.lam, args.mu, args.n)
        minor = hopf_sln_minor(args.lam, args.mu, args.n)
        agree = sub.value == minor.value
        if args.format == "json":
            out = {
                "lambda": list(args.lam.parts),
                "mu": list(args.mu.parts),
                "N": args.n,
                "routes_agree": agree,
                "correction_exponent": {
                    "numerator": sub.correction_exponent.numerator,
                    "denominator": sub.correction_exponent.denominator,
                },
            }
            out["value"] = ring_elem_to_json(sub.value)
            out["minor_value"] = ring_elem_to_json(minor.value)
            print(json.dumps(out))
        else:
            print(f"lambda: {args.lam}")
            print(f"mu: {args.mu}")
            print(f"N: {args.n}")
            _print_value("substitution route", sub.value)
            _print_value("minor route", minor.value)
            print(f"routes agree: {str(agree).lower()}")
            print(f"note: {sub.corrected_note}")
        return 0 if agree else 1

    if args.command == "verify":
        results = run_all(max_size=args.max_size, max_n=args.max_n, degree=args.degree)
        failed = sum(1 for r in results if not r.passed)
        if args.format == "json":
            out = {
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                "passed": len(results) - failed,
                "failed": failed,
            }
            print(json.dumps(out))
        else:
            for r in results:
                print(r.line())
            print(f"{len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 1

    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ValueError, OverflowError) as exc:
        # OverflowError: a part too large to index a list, e.g. in conjugate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: internal identity failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
