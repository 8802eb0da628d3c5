"""What one warm query costs hexrep's command line, counted from outside.

A query that hits the caches is the command line's own work: read
the words, write the answer.  A line with every flag spelled in full, as
the benchmark and the README write them, builds no argparse parser, each
answer reads one table and goes out in one write; the usage line of a
usage error is argparse's own.
"""

import contextlib
import importlib.util
import io
import random
from pathlib import Path

import pytest
from oracles import build_parser

from hexrep import cli, identities

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = PERFBENCH.parent / "README.md"

QUERIES = [
    ["s2k", "--k", "7", "--n", "1..40"],
    ["s2k", "--k", "11", "--n", "3..9", "--method", "formula", "--format", "json"],
    ["s2k", "--k", "9", "--n", "0..12", "--method", "decomposition", "--format", "csv"],
    ["tau", "--n", "5..25", "--method", "paper-formula"],
    ["tau", "--n", "88", "--format", "csv"],
    ["lsum", "L_6_2", "--n", "95..105", "--format", "table"],
    ["lsum", "--n=1..3", "--format=json", "--", "Lcal_4"],
    *(["verify", "--identity", "s14-theorem", "--ident=tau-eq", "--nmax", "5", "--format", fmt] for fmt in ("table", "json", "csv")),
]


class CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", QUERIES, ids=" ".join)
def test_a_warm_query_writes_once(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # fills the caches
    out = CountingOut()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.writes == 1 and out.getvalue().endswith("\n")


def no_argparser():
    raise AssertionError("a line with every flag spelled in full built the argparse parser")


def assert_parsed_without_argparse(lines, monkeypatch):
    expected = [vars(build_parser().parse_args(argv)) for argv in lines]
    monkeypatch.setattr(cli, "_argparser", no_argparser)
    for argv, values in zip(lines, expected):
        del values["func"]
        assert vars(cli.parse_args(argv)) == values, argv


def test_a_valid_command_line_builds_no_usage(monkeypatch):
    examples = [line.partition("#")[0].split()[1:] for line in README.read_text().splitlines() if line.startswith("hexrep ")]
    full = [argv for argv in examples if all(w in cli.PARSERS[argv[0]][0] for w in argv if w.startswith("-"))]
    assert len(full) >= 10
    assert_parsed_without_argparse(full, monkeypatch)


def test_the_benchmark_lines_take_one_lookup_per_flag(monkeypatch):
    pytest.importorskip("sympy")  # the benchmark's checks import it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    rng = random.Random(1)
    lines = run.verify_commands(rng) + run.value_commands(rng) + run.serve_stream(random.Random(1))
    assert_parsed_without_argparse(lines, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["s2k", "--k", "12", "--n", "1..20", "--method", "formula"],
    ["tau", "--n", "1..20", "--method", "paper-formula"],
])
def test_a_warm_formula_query_reads_one_table(argv, monkeypatch):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # fills the caches
    calls = []
    formula_table = identities.formula_table
    monkeypatch.setattr(identities, "formula_table", lambda *args: calls.append(args) or formula_table(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(calls) == 1


USAGE = {
    "": "usage: hexrep [-h] {s2k,tau,lsum,verify} ...",
    "s2k --k x": "usage: hexrep s2k [-h] --k K --n N [--method {bruteforce,formula,decomposition}]"
    " [--format {json,csv,table}] [--precision PRECISION]",
    "tau --n 1 --bogus": "usage: hexrep [-h] {s2k,tau,lsum,verify} ...",  # argparse reports a word no subcommand reads at the top
    "lsum --n 1": "usage: hexrep lsum [-h] --n N [--format {json,csv,table}] [--precision PRECISION] name",
    "verify --all --nmax 5 --strict=yes": "usage: hexrep verify [-h] [--all] [--identity IDENTITY] --nmax NMAX [--strict]"
    " [--format {json,csv,table}] [--precision PRECISION]",
}


@pytest.mark.parametrize("line", USAGE)
def test_an_invalid_command_line_prints_the_usage_line(line, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.parse_args(line.split())
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert err.splitlines()[0] == USAGE[line]
