"""The output writers against the per-row ``print`` and ``json.dumps`` writers they replaced."""

import io
from fractions import Fraction

import pytest
from oracles import print_values_per_row, print_verify_csv_per_row, print_verify_json_dumps, print_verify_table_per_line

from hexrep import cli
from hexrep.cli import _print_values, _print_verify_csv, _print_verify_json, _print_verify_table
from hexrep.identities import IDENTITY_NAMES, IdentityReport, verification_passed, verify_all

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


def test_json_values_quote_only_a_non_integral_fraction():
    rows = [(1, Fraction(1, 2)), (2, Fraction(-7, 3)), (3, Fraction(6, 1)), (4, 5)]
    expected = '[{"n": 1, "value": "1/2"}, {"n": 2, "value": "-7/3"}, {"n": 3, "value": 6}, {"n": 4, "value": 5}]\n'
    assert written(_print_values, rows, "json") == expected


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
    # the per-line writer ends with the verdict line, which cli._cmd_verify writes after the last report
    report_lines, verdict, _ = written(print_verify_table_per_line, reports, True, False).rpartition("verification: ")
    assert verdict
    assert written(_print_verify_table, reports) == report_lines
    assert "  constant term: 2/5 vs 1 " in report_lines


def test_verify_table_counts_mismatches_without_listing_them(monkeypatch):
    reports = verify_all(30)
    assert any(len(r.mismatches) > 1 for r in reports)
    report_lines = written(print_verify_table_per_line, reports, True, False).rpartition("verification: ")[0]
    monkeypatch.setattr(IdentityReport, "mismatches", property(lambda self: pytest.fail("built the mismatch tuple")))
    assert written(_print_verify_table, reports) == report_lines


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("names", [IDENTITY_NAMES, ("tau-eq", "s14-theorem", "tau-eq"), ("tau-eq",), ()])
def test_cli_verify_table_matches_per_line_writer(names, strict, capsys):
    argv = ["verify", "--nmax", "30"] + [word for name in names for word in ("--identity", name)]
    code = cli.main(argv + ["--strict"] * strict)
    reports = verify_all(30, names or "all")
    passed = verification_passed(reports, strict)
    assert code == (0 if passed else 1)
    assert capsys.readouterr().out == written(print_verify_table_per_line, reports, passed, strict)


MADE_UP_REPORTS = [
    IdentityReport('quote " in the name', 2, (1, Fraction(-7, 3)), (1, Fraction(7, 3)), (Fraction(2, 5), 1), "a note"),
    IdentityReport("backslash \\ name", 1, (-4,), (Fraction(-8, 2),), (-3, -3), 'note with "quotes" and \\'),
    IdentityReport("newline\nname", 3, (0, -1, 2), (0, 1, 2), None, "note over\ntwo lines"),
    IdentityReport("rho \u03c1", 1, (Fraction(1, 2),), (Fraction(1, 2),), (0, Fraction(-1, 2)), "\u03c1* with \x7f and \t"),
    IdentityReport("plain", 2, (Fraction(6, 1), -5), (6, -6), (Fraction(-9, 3), -3)),
]


JSON_REPORTS = {
    **{f"verify_all({n})": lambda n=n: verify_all(n) for n in (0, 1, 2, 30, 200)},
    **{name: lambda name=name: verify_all(30, [name]) for name in IDENTITY_NAMES},
    "no reports": lambda: [],
    "made up": lambda: MADE_UP_REPORTS,
    **{f"made up {i}": lambda i=i: MADE_UP_REPORTS[i : i + 1] for i in range(len(MADE_UP_REPORTS))},
}


@pytest.mark.parametrize("case", JSON_REPORTS)
def test_verify_json_matches_json_dumps(case):
    reports = JSON_REPORTS[case]()
    assert written(_print_verify_json, reports) == written(print_verify_json_dumps, reports)


def test_made_up_reports_need_escapes():
    text = written(print_verify_json_dumps, MADE_UP_REPORTS)
    for escaped in ('\\"', "\\\\", "\\n", "\\u03c1", "\\u007f", "\\t", '"-7/3"', '"match": false', '"match": true'):
        assert escaped in text, escaped
