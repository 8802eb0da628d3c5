"""The one-call output writers against the per-row ``print`` writers they replaced."""

import io
from fractions import Fraction

import pytest
from oracles import print_values_per_row, print_verify_csv_per_row, print_verify_table_per_line

from hexrep.cli import _print_values, _print_verify_csv, _print_verify_table
from hexrep.identities import IdentityReport, verify_all

ROWS = {
    "ints": [(1, 42), (2, -756), (3, 0), (4, 12345678901234567890123)],
    "fractions": [(1, Fraction(1, 2)), (2, Fraction(-7, 3)), (3, Fraction(6, 1)), (4, Fraction(-5, 1)), (5, Fraction(0))],
    "mixed": [(5, 3), (6, Fraction(11, 4)), (7, Fraction(8, 2))],
    "n = 0": [(0, 1), (1, 42), (2, 756)],
    "one row": [(17, -3)],
    "widths 9 -> 10": [(n, n * n) for n in range(7, 13)],
    "widths 99 -> 100": [(n, -n) for n in range(97, 103)],
    "widths 9 -> 100": [(9, 1), (10, Fraction(1, 3)), (100, -2)],
    "no rows": [],
}


def written(writer, *args):
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("case", ROWS)
def test_values_match_per_row_writer(case, fmt):
    rows = ROWS[case]
    assert written(_print_values, rows, fmt) == written(print_values_per_row, rows, fmt)


def test_verify_csv_matches_per_row_writer():
    reports = verify_all(30)
    assert any(type(v) is Fraction and v.denominator != 1 for r in reports for v in r.lhs + r.rhs)
    assert any(r.mismatches for r in reports)  # so "False" rows are written too
    assert written(_print_verify_csv, reports) == written(print_verify_csv_per_row, reports)


def test_verify_table_matches_per_line_writer():
    reports = verify_all(30) + [
        IdentityReport("s14-theorem", 2, (Fraction(1, 3), 2), (1, 2), (Fraction(2, 5), 1), "a note"),
        IdentityReport("made-up", 1, (4,), (Fraction(8, 2),), (Fraction(-1, 2), 1)),
    ]
    for passed in (True, False):
        for strict in (True, False):
            assert written(_print_verify_table, reports, passed, strict) == written(
                print_verify_table_per_line, reports, passed, strict
            )
    assert "  constant term: 2/5 vs 1 " in written(_print_verify_table, reports, True, False)
