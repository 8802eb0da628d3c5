"""Command line front end.

Subcommands: ``s2k`` (representation numbers), ``tau`` (Ramanujan tau),
``lsum`` (catalog finite sums), and ``verify`` (run the identity checks).
Values print bare when integral and as p/q otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import identities, lattice
from .identities import (
    FORMULA_KS,
    IDENTITY_NAMES,
    PrecisionTooLow,
    UnknownIdentity,
    encode_value,
    verification_passed,
    verify_all,
)
from .lattice import UnknownSum
from .series import DEFAULT_PRECISION


class UnsupportedK(ValueError):
    """Requested k outside the valid set for the chosen method."""


BRUTEFORCE_KS = tuple(range(1, 15))


def _parse_n_spec(text: str) -> list[int]:
    """Parse '7' or an inclusive range '1..50' into a list of positive ints."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if lo < 0 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        return list(range(lo, hi + 1))
    n = int(text)
    if n < 0:
        raise ValueError("n must be >= 0")
    return [n]


def _working_precision(args, n_values) -> int:
    """Explicit --precision must cover the request; otherwise size to fit."""
    needed = max(n_values) if n_values else 0
    if args.precision is not None:
        if args.precision < needed:
            raise PrecisionTooLow(
                f"--precision {args.precision} is below the requested n={needed}"
            )
        return args.precision
    return max(DEFAULT_PRECISION, needed)


def _print_values(rows, fmt, out):
    if fmt == "json":
        print(
            json.dumps([{"n": n, "value": encode_value(v)} for n, v in rows]),
            file=out,
        )
    elif fmt == "csv":
        print("n,value", file=out)
        for n, v in rows:
            print(f"{n},{encode_value(v)}", file=out)
    else:
        width = max((len(str(n)) for n, _ in rows), default=1)
        for n, v in rows:
            print(f"{n:>{width}}  {encode_value(v)}", file=out)


def _cmd_s2k(args, out) -> int:
    n_values = _parse_n_spec(args.n)
    if args.method == "bruteforce":
        if args.k not in BRUTEFORCE_KS:
            raise UnsupportedK(
                f"k={args.k} not supported for bruteforce; valid: 1..14"
            )
    elif args.k not in FORMULA_KS:
        raise UnsupportedK(
            f"k={args.k} not supported for {args.method}; valid: {FORMULA_KS}"
        )
    precision = _working_precision(args, n_values)
    if args.method == "bruteforce":
        table = lattice.s2k_bruteforce(args.k, precision)
        rows = [(n, table[n]) for n in n_values]
    elif args.method == "decomposition":
        series = identities.decomposition(args.k, precision)
        rows = [(n, series.coefficient(n)) for n in n_values]
    else:
        rows = [
            (n, identities.s2k_from_divisor_sums(args.k, n, precision))
            for n in n_values
        ]
    _print_values(rows, args.format, out)
    return 0


def _cmd_tau(args, out) -> int:
    n_values = _parse_n_spec(args.n)
    if any(n < 1 for n in n_values):
        raise ValueError("tau is defined for n >= 1")
    precision = _working_precision(args, n_values)
    if args.method == "eta":
        from .forms import named_form

        coeffs = named_form("delta", precision).series.coeffs
        rows = [(n, coeffs[n]) for n in n_values]
    else:
        rows = [
            (n, identities.tau_from_lattice_sums(n, precision)) for n in n_values
        ]
    _print_values(rows, args.format, out)
    return 0


def _cmd_lsum(args, out) -> int:
    lattice.lomadze_spec(args.name)  # an unknown name fails before --n is read
    n_values = _parse_n_spec(args.n)
    values = lattice.lomadze_values(args.name, _working_precision(args, n_values))
    _print_values([(n, values[n]) for n in n_values], args.format, out)
    return 0


def _print_verify_table(reports, passed, strict, out):
    for r in reports:
        tag = " [documented]" if r.name in identities.DOCUMENTED_DISCREPANCIES else ""
        if r.all_match:
            print(f"{r.name}: ok (n=1..{r.n_max}){tag}", file=out)
        else:
            n, lhs, rhs = r.first_mismatch
            more = len(r.mismatches) - 1
            extra = f" (+{more} more)" if more else ""
            print(
                f"{r.name}: MISMATCH at n={n}: lhs={encode_value(lhs)} "
                f"rhs={encode_value(rhs)}{extra}{tag}",
                file=out,
            )
        if r.constant_term is not None and not r.constant_term_matches:
            lhs0, rhs0 = r.constant_term
            print(
                f"  constant term: {encode_value(lhs0)} vs {encode_value(rhs0)}"
                " (informational; the identity covers n >= 1)",
                file=out,
            )
        if r.note:
            print(f"  note: {r.note}", file=out)
    verdict = "PASS" if passed else "FAIL"
    print(f"verification: {verdict} ({len(reports)} identities, strict={strict})", file=out)


def _print_verify_csv(reports, out):
    for r in reports:
        print(f"# identity: {r.name}", file=out)
        print("n,lhs,rhs,match", file=out)
        for n, lhs, rhs in r.entries:
            print(
                f"{n},{encode_value(lhs)},{encode_value(rhs)},{lhs == rhs}",
                file=out,
            )


def _cmd_verify(args, out) -> int:
    if args.all or not args.identity:
        selection = "all"
    else:
        selection = args.identity
    precision = args.precision if args.precision is not None else DEFAULT_PRECISION
    reports = verify_all(args.nmax, selection, precision)
    passed = verification_passed(reports, strict=args.strict)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2), file=out)
    elif args.format == "csv":
        _print_verify_csv(reports, out)
    else:
        _print_verify_table(reports, passed, args.strict, out)
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexrep",
        description=(
            "Exact representation numbers of the block forms "
            "x1^2 + x1 x2 + x2^2 + ... and verification of their closed-form "
            "identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("json", "csv", "table"),
            default="table",
            help="output format (default: table)",
        )
        p.add_argument(
            "--precision",
            type=int,
            default=None,
            help=f"working series precision (default: {DEFAULT_PRECISION}, or enough to cover --n)",
        )

    p_s2k = sub.add_parser("s2k", help="representation numbers s_2k(n)")
    p_s2k.add_argument("--k", type=int, required=True, help="number of two-variable blocks")
    p_s2k.add_argument("--n", required=True, help="index n or inclusive range a..b")
    p_s2k.add_argument(
        "--method",
        choices=("bruteforce", "formula", "decomposition"),
        default="bruteforce",
        help="bruteforce: theta power; formula: per-n divisor-sum formula; "
        "decomposition: basis-combination series",
    )
    add_common(p_s2k)
    p_s2k.set_defaults(func=_cmd_s2k)

    p_tau = sub.add_parser("tau", help="Ramanujan tau values")
    p_tau.add_argument("--n", required=True, help="index n or inclusive range a..b")
    p_tau.add_argument(
        "--method",
        choices=("eta", "paper-formula"),
        default="eta",
        help="eta: 24th power of the eta series; paper-formula: the "
        "closed-form lattice-sum expression",
    )
    add_common(p_tau)
    p_tau.set_defaults(func=_cmd_tau)

    p_lsum = sub.add_parser("lsum", help="finite lattice sums from the catalog")
    p_lsum.add_argument("name", help="catalog name, e.g. L_6_2")
    p_lsum.add_argument("--n", required=True, help="index n or inclusive range a..b")
    add_common(p_lsum)
    p_lsum.set_defaults(func=_cmd_lsum)

    p_verify = sub.add_parser("verify", help="run the identity checks")
    p_verify.add_argument("--all", action="store_true", help="check every identity")
    p_verify.add_argument(
        "--identity",
        action="append",
        metavar="NAME",
        help=f"check one identity (repeatable); known: {', '.join(IDENTITY_NAMES)}",
    )
    p_verify.add_argument("--nmax", type=int, required=True, help="check n = 1..nmax")
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="fail on documented discrepancies too",
    )
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (
        PrecisionTooLow,
        UnknownIdentity,
        UnknownSum,
        UnsupportedK,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
