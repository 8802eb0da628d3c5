"""Byte-for-byte command line outputs against the recorded golden files.

Each case runs ``hexrep.cli.main`` in-process and compares its exit code,
stdout and stderr with ``golden/cases.json`` and ``golden/<case>.out.gz``.
When an output change is intended, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import gzip
import io
import json
from pathlib import Path

import pytest
from memos import clear_all

from hexrep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify-table": ["verify", "--all", "--nmax", "200"],
    "verify-json": ["verify", "--all", "--nmax", "200", "--format", "json"],
    "verify-csv": ["verify", "--all", "--nmax", "200", "--format", "csv"],
    **{
        f"s2k-{k}-{method}": ["s2k", "--k", str(k), "--n", "1..250", "--method", method]
        for k in (7, 9, 11, 12, 14)
        for method in ("formula", "decomposition")
    },
    "tau-paper-formula": ["tau", "--method", "paper-formula", "--n", "1..30"],
    "lsum-L_12_4-csv": ["lsum", "L_12_4", "--n", "1..300", "--format", "csv"],
    "lsum-bad": ["lsum", "BAD", "--n", "-1"],
    "tau-json": ["tau", "--n", "1..30", "--format", "json"],
    "lsum-L_6_2-widths": ["lsum", "L_6_2", "--n", "95..105"],
    "s2k-7-decomposition-csv-n0": ["s2k", "--k", "7", "--n", "0..12", "--method", "decomposition", "--format", "csv"],
    # n up to 400: delta_7_3 and the weight-11 forms, delta_8_3, and the x1^2 moments of 10 and 3 blocks
    "s2k-11-decomposition-n400": ["s2k", "--k", "11", "--n", "390..400", "--method", "decomposition"],
    "s2k-14-decomposition-json-n400": [
        "s2k", "--k", "14", "--n", "390..400", "--method", "decomposition", "--format", "json",
    ],
    "lsum-L_14_10-n400": ["lsum", "L_14_10", "--n", "390..400"],
    "lsum-L_7_3-csv-n400": ["lsum", "L_7_3", "--n", "1..400", "--format", "csv"],
    # empty reports in JSON, and the widest polynomial of the catalog (degree 4 in n)
    "verify-json-n0": ["verify", "--all", "--nmax", "0", "--format", "json"],
    "lsum-Lcal_4-csv-n400": ["lsum", "Lcal_4", "--n", "1..400", "--format", "csv"],
    # the weight-12 formula near 400, and the two errors of --method formula
    "s2k-12-formula-csv-n400": ["s2k", "--k", "12", "--n", "390..400", "--method", "formula", "--format", "csv"],
    "s2k-14-formula-n0": ["s2k", "--k", "14", "--n", "0", "--method", "formula"],
    "s2k-13-formula-bad": ["s2k", "--k", "13", "--n", "5", "--method", "formula"],
    # one case per method and format the warm queries use, and the option spellings they may take
    "s2k-3-bruteforce-json": ["s2k", "--k", "3", "--n", "17..36", "--method", "bruteforce", "--format", "json"],
    "s2k-14-bruteforce-csv": ["s2k", "--k", "14", "--n", "1..20", "--format", "csv"],
    "tau-eta-csv": ["tau", "--n", "1..20", "--method", "eta", "--format", "csv"],
    "tau-paper-formula-json": ["tau", "--n", "5..25", "--method", "paper-formula", "--format", "json"],
    "lsum-L_12_4-json-n7": ["lsum", "L_12_4", "--n", "7", "--format", "json"],
    "s2k-9-formula-prefixes": ["s2k", "--k=9", "--n=3..7", "--meth", "formula", "--form", "csv"],
    "lsum-Lcal_4-after-dashes": ["lsum", "--n", "1..3", "--format=json", "--", "Lcal_4"],
    "verify-two-identities-strict": ["verify", "--identity", "tau-eq", "--ident=s14-theorem", "--nmax", "5", "--str"],
    "s2k-7-formula-n0-range": ["s2k", "--k", "7", "--n", "0..3", "--method", "formula"],
    "tau-paper-formula-n0": ["tau", "--n", "0..3", "--method", "paper-formula"],
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_case(case):
    expected = json.loads((GOLDEN / "cases.json").read_text())[case]
    assert expected["argv"] == CASES[case]
    code, out, err = run_case(CASES[case])
    assert code == expected["code"], case
    assert err == expected["stderr"], case
    with gzip.open(GOLDEN / f"{case}.out.gz", "rt", newline="") as fh:
        assert out == fh.read(), case


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case):
    check_case(case)


def test_golden_outputs_after_a_larger_precision():
    # every table the cases read is then a cut of one computed at 400 or more
    clear_all()
    assert run_case(["s2k", "--k", "14", "--n", "1..400", "--method", "decomposition"])[0] == 0
    for case in CASES:
        check_case(case)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    recorded = {}
    for case, argv in CASES.items():
        code, out, err = run_case(argv)
        recorded[case] = {"argv": argv, "code": code, "stderr": err}
        # mtime=0 keeps the gzip bytes reproducible
        with open(GOLDEN / f"{case}.out.gz", "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", mtime=0
        ) as fh:
            fh.write(out.encode())
    (GOLDEN / "cases.json").write_text(json.dumps(recorded, indent=1) + "\n")
