"""Command line front end.

Subcommands: ``s2k`` (representation numbers), ``tau`` (Ramanujan tau),
``lsum`` (catalog finite sums), and ``verify`` (run the identity checks).
Values print bare when integral and as p/q otherwise.  The ``COMMANDS``
table is the grammar: a line with every flag spelled in full is read
straight from it, and argparse, built from it on demand, reads the rest
and owns the help and the usage errors.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import forms, identities, lattice
from .identities import (
    FORMULA_KS,
    IDENTITY_NAMES,
    PrecisionTooLow,
    verification_passed,
    verify_stream,
)
from .series import DEFAULT_PRECISION


class UnsupportedK(ValueError):
    """Requested k outside the valid set for the chosen method."""


BRUTEFORCE_KS = tuple(range(1, 15))


def _parse_n_spec(text: str) -> range:
    """Parse '7' or an inclusive range '1..50' into a range of non-negative ints."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        raise ValueError(f"--n {text!r} is not of the form N or A..B") from None
    if dots:
        if lo < 0 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        return range(lo, hi + 1)
    if lo < 0:
        raise ValueError("n must be >= 0")
    return range(lo, lo + 1)


def _working_precision(args, n_values) -> int:
    """Explicit --precision must cover the request; otherwise size to fit."""
    needed = n_values[-1]
    if args.precision is not None:
        if args.precision < needed:
            raise PrecisionTooLow(f"--precision {args.precision} is below the requested n={needed}")
        return args.precision
    return max(DEFAULT_PRECISION, needed)


def _json_number(v):
    """v for %s in JSON: an int as it is, a non-integral Fraction as the quoted string "p/q"."""
    return f'"{v}"' if type(v) is Fraction and v.denominator != 1 else v


def _json_string(text):
    """text quoted as json.dumps quotes it; only text that needs escapes loads the json module."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json
    return json.dumps(text)


def _print_values(rows, fmt, out):
    """Write all rows in one call; %s prints an int as it is and a non-integral Fraction as p/q."""
    if fmt == "json":
        out.write("[%s]\n" % ", ".join(['{"n": %d, "value": %s}' % (n, _json_number(v)) for n, v in rows]))
    elif fmt == "csv":
        out.write("n,value\n" + "".join(map("%d,%s\n".__mod__, rows)))
    else:
        width = len(str(rows[-1][0])) if rows else 1  # the rows run up in n
        out.write("".join(["%*d  %s\n" % (width, n, v) for n, v in rows]))


def _cmd_s2k(args, out) -> int:
    n_values = _parse_n_spec(args.n)
    if args.method == "bruteforce":
        if args.k not in BRUTEFORCE_KS:
            raise UnsupportedK(f"k={args.k} not supported for bruteforce; valid: 1..14")
    elif args.k not in FORMULA_KS:
        raise UnsupportedK(f"k={args.k} not supported for {args.method}; valid: {FORMULA_KS}")
    precision = _working_precision(args, n_values)
    if args.method == "bruteforce":
        table = lattice.s2k_bruteforce(args.k, precision)
    else:
        if args.method == "formula" and n_values[0] < 1:
            raise ValueError("n must be >= 1")
        table = identities.decomposition(args.k, precision).coeffs  # the formula's table too
    _print_values([(n, table[n]) for n in n_values], args.format, out)
    return 0


def _cmd_tau(args, out) -> int:
    n_values = _parse_n_spec(args.n)
    if n_values[0] < 1:
        raise ValueError("tau is defined for n >= 1")
    precision = _working_precision(args, n_values)
    if args.method == "eta":
        table = forms.named_form("delta", precision).series.coeffs
    else:
        table = identities.formula_table("tau-eq", precision)
    _print_values([(n, table[n]) for n in n_values], args.format, out)
    return 0


def _cmd_lsum(args, out) -> int:
    lattice.lomadze_spec(args.name)  # an unknown name fails before --n is read
    n_values = _parse_n_spec(args.n)
    values = lattice.lomadze_values(args.name, _working_precision(args, n_values))
    _print_values([(n, values[n]) for n in n_values], args.format, out)
    return 0


def _print_verify_table(reports, out):
    """Write each report's lines as soon as it comes; the verdict line is the caller's."""
    for r in reports:
        tag = " [documented]" if r.name in identities.DOCUMENTED_DISCREPANCIES else ""
        if r.all_match:
            lines = [f"{r.name}: ok (n=1..{r.n_max}){tag}\n"]
        else:
            n, lhs, rhs = r.first_mismatch
            more = sum(map(operator.ne, r.lhs, r.rhs)) - 1
            extra = f" (+{more} more)" if more else ""
            lines = [f"{r.name}: MISMATCH at n={n}: lhs={lhs} rhs={rhs}{extra}{tag}\n"]
        if r.constant_term is not None and not r.constant_term_matches:
            lhs0, rhs0 = r.constant_term
            lines.append(f"  constant term: {lhs0} vs {rhs0} (informational; the identity covers n >= 1)\n")
        if r.note:
            lines.append(f"  note: {r.note}\n")
        out.write("".join(lines))


def _print_verify_csv(reports, out):
    """Write each report's rows in one call, as soon as it comes; a matching report's values are formatted once."""
    for r in reports:
        if r.all_match:
            rows = [f"{n},{v},{v},True\n" for n, v in enumerate(map(str, r.lhs), 1)]
        else:
            rows = map("%d,%s,%s,%s\n".__mod__, zip(range(1, r.n_max + 1), r.lhs, r.rhs, map(operator.eq, r.lhs, r.rhs)))
        out.write(f"# identity: {r.name}\nn,lhs,rhs,match\n" + "".join(rows))


def _print_verify_json(reports, out):
    """Write the reports as json.dumps(..., indent=2) writes a list of {name, n_max, status, mismatches, ...} objects.

    Each object is written in one call as soon as its report comes, after
    the opening bracket and before the closing one.
    """
    separator = "["
    for r in reports:
        rows = [(n, _json_number(lhs), _json_number(rhs)) for n, lhs, rhs in r.mismatches]
        listed = ",".join(map('\n      {\n        "n": %d,\n        "lhs": %s,\n        "rhs": %s\n      }'.__mod__, rows))
        item = '\n  {\n    "name": %s,\n    "n_max": %d,\n    "status": "%s",\n    "mismatches": [%s]' % (
            _json_string(r.name), r.n_max, r.status, listed and listed + "\n    ")
        if r.constant_term is not None:
            match = "true" if r.constant_term_matches else "false"
            item += ',\n    "constant_term": {\n      "lhs": %s,\n      "rhs": %s,\n      "match": %s\n    }' % (
                *map(_json_number, r.constant_term), match)
        if r.note:
            item += ',\n    "note": ' + _json_string(r.note)
        out.write(separator + item + "\n  }")
        separator = ","
    out.write("[]\n" if separator == "[" else "\n]\n")


VERIFY_WRITERS = {"json": _print_verify_json, "csv": _print_verify_csv, "table": _print_verify_table}


def _cmd_verify(args, out) -> int:
    if args.all or not args.identity:
        selection = "all"
    else:
        selection = args.identity
    reports = verify_stream(args.nmax, selection, args.precision)  # a bad request raises here, before any output
    passed, count = True, 0

    def judged():  # the reports as they come, with the verdict and the count kept on the way
        nonlocal passed, count
        for r in reports:
            passed = passed and verification_passed((r,), strict=args.strict)
            count += 1
            yield r

    VERIFY_WRITERS[args.format](judged(), out)
    if args.format == "table":
        out.write(f"verification: {'PASS' if passed else 'FAIL'} ({count} identities, strict={args.strict})\n")
    return 0 if passed else 1


PROG = "hexrep"
DESCRIPTION = (
    "Exact representation numbers of the block forms x1^2 + x1 x2 + x2^2 + ... "
    "and verification of their closed-form identities."
)
REQUIRED = "required"  # the default of an option that must be given
FLAG = "flag"  # an option without a value: True when given
REPEAT = "repeatable"  # an option whose values collect in a list

N_OPTION = ("n", str, REQUIRED, "index n or inclusive range a..b")
COMMON_OPTIONS = (
    ("format", ("json", "csv", "table"), "table", "output format (default: table)"),
    ("precision", int, None, f"working series precision (default: {DEFAULT_PRECISION}, or enough to cover --n)"),
)

#: The command line: each subcommand's handler, summary, positionals as
#: (name, help), and options as (name, kind, default, help), where the kind
#: is int, str, a tuple of choices, FLAG or REPEAT.
COMMANDS = {
    "s2k": (_cmd_s2k, "representation numbers s_2k(n)", (), (
        ("k", int, REQUIRED, "number of two-variable blocks"),
        N_OPTION,
        ("method", ("bruteforce", "formula", "decomposition"), "bruteforce",
         "bruteforce: theta power; formula: per-n divisor-sum formula; decomposition: basis-combination series"),
        *COMMON_OPTIONS,
    )),
    "tau": (_cmd_tau, "Ramanujan tau values", (), (
        N_OPTION,
        ("method", ("eta", "paper-formula"), "eta",
         "eta: 24th power of the eta series; paper-formula: the closed-form lattice-sum expression"),
        *COMMON_OPTIONS,
    )),
    "lsum": (_cmd_lsum, "finite lattice sums from the catalog", (("name", "catalog name, e.g. L_6_2"),), (
        N_OPTION,
        *COMMON_OPTIONS,
    )),
    "verify": (_cmd_verify, "run the identity checks", (), (
        ("all", FLAG, False, "check every identity"),
        ("identity", REPEAT, None, f"check one identity (repeatable); known: {', '.join(IDENTITY_NAMES)}"),
        ("nmax", int, REQUIRED, "check n = 1..nmax"),
        ("strict", FLAG, False, "fail on documented discrepancies too"),
        COMMON_OPTIONS[0],
        ("precision", int, None, "working series precision (default: nmax)"),
    )),
}


def _argparser():
    """The argparse parser of the COMMANDS table: it reads every line the fast lane leaves, help and errors included."""
    import argparse

    def formatter(prog):  # one line per item, whatever the terminal width
        return argparse.RawTextHelpFormatter(prog, width=sys.maxsize)

    parser = argparse.ArgumentParser(prog=PROG, description=DESCRIPTION, formatter_class=formatter)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, positionals, options) in COMMANDS.items():
        sub = subparsers.add_parser(command, help=summary, description=summary, formatter_class=formatter)
        for name, text in positionals:
            sub.add_argument(name, help=text)
        for name, kind, default, text in options:
            if kind in (FLAG, REPEAT):
                spec = {"action": "store_true" if kind == FLAG else "append"}
            else:
                spec = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            required = default == REQUIRED
            sub.add_argument(f"--{name}", help=text, required=required, default=None if required else default, **spec)
    return parser


#: Per subcommand, built once: options by flag, values before any word is
#: read, required options, positional names.
PARSERS = {
    command: (
        {f"--{o[0]}": o for o in options},
        {"command": command, **{o[0]: None if o[2] == REQUIRED else o[2] for o in options}},
        tuple(o[0] for o in options if o[2] == REQUIRED),
        tuple(name for name, _ in positionals),
    )
    for command, (_, _, positionals, options) in COMMANDS.items()
}


def _parse_command(command, words):
    """The values of a complete line with every flag spelled in full, else None.

    One lookup per flag; any other word that starts with '-', a value that
    starts with '-' or is missing, a bad int or choice, an extra word or a
    missing argument gives None, and argparse reads the line instead.
    """
    by_flag, defaults, required, positional_names = PARSERS[command]
    values = dict(defaults)
    waiting = list(positional_names)
    words = iter(words)
    for word in words:
        option = by_flag.get(word)
        if option is None:
            if word[:1] == "-" or not waiting:
                return None
            values[waiting.pop(0)] = word
            continue
        name, kind, _, _ = option
        if kind is FLAG:
            values[name] = True
            continue
        text = next(words, "-")  # a missing value goes to argparse as a dashed one does
        if text[:1] == "-":
            return None
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and text not in kind:
            return None
        values[name] = (values[name] or []) + [text] if kind is REPEAT else text
    if waiting or None in map(values.get, required):
        return None
    return SimpleNamespace(**values)


def parse_args(argv=None):
    """Read a command line by the COMMANDS table, as argparse reads it.

    A line that starts with a command and spells every flag in full is read
    by the fast lane, one dict lookup per flag, and builds no parser; every
    other line (a prefix, --opt=value, '--', a value that starts with '-',
    -h/--help or a usage error) goes to argparse, which prints help and
    exits 0, or prints the usage and the error to stderr and exits 2.
    """
    words = sys.argv[1:] if argv is None else list(argv)
    values = _parse_command(words[0], words[1:]) if words and words[0] in COMMANDS else None
    return _argparser().parse_args(words) if values is None else values


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return COMMANDS[args.command][0](args, sys.stdout)
    except ValueError as exc:  # UnknownSum, UnknownIdentity, UnsupportedK and PrecisionTooLow are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
