"""hexrep's command line against the argparse parser it once was.

``oracles.build_parser`` is the argparse parser hexrep's command line used
to have, written out by hand.  ``cli.parse_args`` reads a line whose flags
are all spelled in full in its own fast lane and hands every other line to
an argparse parser built from ``COMMANDS``.  On valid command lines both
must give the same values; on invalid ones both must exit with code 2 and
print the same ``error:`` line.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from oracles import build_parser

from hexrep.cli import COMMANDS, parse_args

GOLDEN = Path(__file__).resolve().parent / "golden"

README_EXAMPLES = [
    "s2k --k 7 --n 1",
    "s2k --k 12 --n 1..10 --method formula",
    "s2k --k 14 --n 5 --method decomposition",
    "tau --n 1..10",
    "tau --n 5 --method paper-formula",
    "lsum L_6_2 --n 1..20",
    "lsum L_14_10 --n 7",
    "verify --all --nmax 50",
    "verify --identity tau-eq --nmax 50 --format json",
    "verify --all --nmax 50 --strict",
]

# the command shapes of perfbench/run.py: cold verify and value commands, warm queries
BENCHMARK_SHAPES = [
    *(f"verify --all --nmax 200 --format {fmt}" for fmt in ("table", "json", "csv")),
    "s2k --k 9 --n 37..400 --method decomposition",
    "s2k --k 14 --n 5..400",
    "tau --n 88..400 --method eta",
    "lsum Lcal_4 --n 12..400",
    "s2k --k 3 --n 17 --method bruteforce --format csv",
    "s2k --k 11 --n 40..49 --method formula --format json",
    "tau --n 150..169 --method paper-formula --format table",
    "lsum L_12_4 --n 301 --format json",
]

GRAMMAR = [
    "s2k --k=7 --n=1..5 --method=formula --format=csv --precision=300",
    "s2k --k 7 --n 1 --meth formula --form json --prec 300",
    "s2k --k 7 --n 1 --m=decomposition --f=csv",
    "verify --n 50 --all",
    "verify --nm=5 --ident tau-eq --str",
    "verify --identity tau-eq --identity rho-star-6 --identity=s24-formula --nmax 5",
    "verify --all --all --nmax 5 --nmax 7",
    "lsum --n 1..3 L_6_2",
    "lsum --format csv L_6_2 --n 1",
    "lsum --n 1 -- L_6_2",
    "lsum --n 1 -- --",
    "lsum --n 1 L_6_2 --",
    "lsum L_6_2 --n 1 --format json --format table",
    "lsum BAD --n -1",
    "lsum -1 --n -2",
    "lsum - --n 1",
    "s2k --k -3 --n 1 --precision -5",
    "s2k --k 7 --n=-1..5",
    "s2k --k 7 --n=",
    "tau --n -.5",
    "tau --n x --precision +7",
]

VALID = [
    *README_EXAMPLES,
    *(" ".join(case["argv"]) for case in json.loads((GOLDEN / "cases.json").read_text()).values()),
    *BENCHMARK_SHAPES,
    *GRAMMAR,
]


def oracle_values(argv):
    values = vars(build_parser().parse_args(argv))
    del values["func"]
    return values


@pytest.mark.parametrize("line", VALID)
def test_valid_command_lines_parse_as_argparse_did(line):
    argv = line.split()
    assert vars(parse_args(argv)) == oracle_values(argv)


def test_a_value_with_a_space_or_a_leading_dash():
    for argv in (["tau", "--n", "-1 5"], ["lsum", "--n", "1", "--", "-x"], ["lsum", "a b", "--n", "1"]):
        assert vars(parse_args(argv)) == oracle_values(argv)


def test_repeated_identity_is_a_fresh_list_on_every_call():
    argv = ["verify", "--identity", "tau-eq", "--nmax", "3"]
    first, second = parse_args(argv), parse_args(argv)
    assert first.identity == second.identity == ["tau-eq"]
    assert first.identity is not second.identity


#: (command line, text the error must name)
INVALID = [
    ("", "command"),
    ("bogus --n 1", "bogus"),
    ("--k 7 s2k --n 1", "'7'"),
    ("s2k --k 7 --n 1 --method fast", "--method"),
    ("tau --n 1 --format xml", "--format"),
    ("s2k --k seven --n 1", "--k"),
    ("s2k --k 7.0 --n 1", "--k"),
    ("verify --all --nmax 1e3", "--nmax"),
    ("tau --n 1 --precision big", "--precision"),
    ("s2k --n 1", "--k"),
    ("s2k --k 7", "--n"),
    ("lsum --n 1", "name"),
    ("verify --all", "--nmax"),
    ("s2k --k 7 --n 1 --bogus", "--bogus"),
    ("s2k --k 7 --n 1 -x", "-x"),
    ("s2k --k 7 --n", "--n"),
    ("s2k --k --n 1", "--k"),
    ("s2k --k 7 --n -1..5", "--n"),
    ("verify --identity --nmax 5", "--identity"),
    ("lsum L_6_2 L_8_4 --n 1", "L_8_4"),
    ("s2k --k 7 --n 1 extra", "extra"),
    ("lsum -- L_6_2 --n 1", "--n"),
    ("verify --all=yes --nmax 5", "--all"),
    ("tau --n 5 --", "--"),
    ("lsum L_6_2 --n 1 --", "--"),
    ("verify --all --nmax 3 --", "--"),
    ("--help=x", "--help"),
    ("--=", "--help"),
]


@pytest.mark.parametrize("line,named", INVALID)
def test_invalid_command_lines_exit_2(line, named, capsys):
    argv = line.split()
    with pytest.raises(SystemExit) as oracle_exit:
        build_parser().parse_args(argv)
    _, oracle_err = capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        parse_args(argv)
    out, err = capsys.readouterr()
    assert oracle_exit.value.code == exit_.value.code == 2
    assert out == ""
    usage, message = err.splitlines()
    assert usage.startswith("usage: hexrep ")
    assert message == oracle_err.splitlines()[-1]
    assert message.startswith("hexrep") and ": error: " in message and named in message


@pytest.mark.parametrize("argv", [["s2k", "-h"], ["s2k", "--k", "x"]])
def test_output_does_not_depend_on_the_terminal_width(argv, monkeypatch, capsys):
    def run():
        with pytest.raises(SystemExit):
            parse_args(argv)
        return capsys.readouterr()

    monkeypatch.delenv("COLUMNS", raising=False)
    wide = run()
    monkeypatch.setenv("COLUMNS", "40")
    assert run() == wide
    if argv[1] == "--k":
        assert len(wide.err.splitlines()) == 2


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], *([name, "-h"] for name in COMMANDS)])
def test_help_lists_every_option_and_choice(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        parse_args(argv + ["--bogus"])  # the help exits before a later bad word is read
    out, err = capsys.readouterr()
    assert exit_.value.code == 0 and err == ""
    assert out.startswith("usage: hexrep")
    if argv[0] in COMMANDS:
        _, _, positionals, options = COMMANDS[argv[0]]
        words = [name for name, _ in positionals]
        for name, kind, _, text in options:
            words += [f"--{name}", text, *(kind if isinstance(kind, tuple) else ())]
    else:
        words = [*COMMANDS, *(summary for _, summary, _, _ in COMMANDS.values())]
    for word in words:
        assert word in out, word


#: How a differential command line starts: a command with its required
#: options, a bare command, or a word that is no command.
STARTS = [
    "s2k --k 7 --n 1..5", "tau --n 3", "lsum --n 2", "lsum L_6_2 --n 2", "verify --nmax 3",
    *COMMANDS, "--k", "--", "-", "x", "--=",
]

#: Words and short runs of words drawn to follow the start: every flag,
#: prefixes, --opt=value, '--', '-', negative numbers, words with a space,
#: values, bad choices and unknown options.  No -h/--help: help comes
#: before any error, and test_help_lists_every_option_and_choice pins that.
CHUNKS = [
    *([f"--{name}"] for name in ("k", "n", "method", "format", "precision", "all", "identity", "nmax", "strict")),
    ["--k", "12"], ["--n", "1..5"], ["--nm", "4"], ["--all"],
    ["--meth", "formula"], ["--m", "eta"], ["--form", "csv"], ["--f", "json"], ["--prec", "300"], ["--p", "-5"],
    ["--al"], ["--str"], ["--ident", "tau-eq"], ["--identity", "s14-theorem"],
    "--k=9", "--n=1..3", "--n=-1", "--format=json", "--method=decomposition", "--all=yes", "--nmax=2",
    "--identity=rho-star-6", "--i=tau-eq", "--=", "--=csv",
    "--", "-", "-1", "-.5", "+3", "-1 5", "a b", "--x y",
    "L_6_2", "Lcal_4", "x", "7", "1..4", "formula", "paper-formula", "eta", "table",
    ["--method", "fast"], ["--format", "xml"], ["--k", "seven"], ["--nmax", "1e3"],
    "--bogus", "-x", "--bogus=1",
]


def outcome(parse, argv):
    """The parsed values without the handler, or the exit code and the last line on stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            values = vars(parse(argv))
    except SystemExit as exit_:
        return exit_.code, err.getvalue().splitlines()[-1]
    values.pop("func", None)
    return values


def test_drawn_command_lines_parse_as_argparse_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chunk = st.sampled_from(CHUNKS).map(lambda c: [c] if isinstance(c, str) else c)

    @hypothesis.settings(deadline=None, max_examples=1500)
    @hypothesis.given(st.sampled_from(STARTS), st.lists(chunk, max_size=5))
    def check(start, chunks):
        argv = start.split() + [word for c in chunks for word in c]
        expected = outcome(build_parser().parse_args, argv)
        assert isinstance(expected, dict) or expected[0] == 2 and ": error: " in expected[1]
        assert outcome(parse_args, argv) == expected, argv

    check()
