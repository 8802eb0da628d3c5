"""The streamed verify: verify_all's reports one at a time, each table released after its last reader.

``verify_all`` is the oracle: the stream must give its reports, and a cold
command-line verify must leave nothing in the identity memos that it built.
"""

import contextlib
import io

import pytest
from memos import clear_all

from hexrep import cli, identities
from hexrep.identities import PrecisionTooLow, UnknownIdentity, verify_all, verify_stream
from hexrep.series import grow_only, prefix

IDENTITY_MEMOS = (identities.table, identities._lhs_table)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_discard_drops_one_entry():
    builds = []

    @grow_only(prefix)
    def table(k, precision):
        builds.append((k, precision))
        return tuple(k * n for n in range(precision + 1))

    table(2, 10)
    table(3, 10)
    table.discard(2)
    assert table.stored() == {(3,): 10}
    table.discard(2)  # a key not stored is no error
    assert table(2, 5) == (0, 2, 4, 6, 8, 10)  # built afresh, at the asked precision
    assert builds == [(2, 10), (3, 10), (2, 5)]
    assert table.stored() == {(2,): 5, (3,): 10}


@pytest.mark.parametrize(
    "n_max, selection",
    [
        (60, "all"),
        (60, ("tau-eq", "s24-formula", "f12-decomposition", "tau-eq")),
        (60, ("s28-formula", "e2-delta-convolution", "s28-formula")),
        (0, "all"),
        (0, "newform-w10"),
    ],
)
def test_stream_gives_the_reports_of_verify_all(n_max, selection):
    clear_all()
    streamed = list(verify_stream(n_max, selection))
    assert identities.table.stored() == identities._lhs_table.stored() == {}
    clear_all()
    assert streamed == verify_all(n_max, selection)


def test_stream_refuses_a_bad_request_at_the_call():
    with pytest.raises(UnknownIdentity, match=r"unknown identities \['nope'\]"):
        verify_stream(5, ("tau-eq", "nope"))
    with pytest.raises(PrecisionTooLow):
        verify_stream(20, "all", 10)
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        verify_stream(-1)


def test_every_read_table_is_released_after_its_last_reader():
    names = identities.IDENTITY_NAMES
    released = identities._last_readers(names)
    flat = [entry for entries in released for entry in entries]
    assert len(flat) == len(set(flat))  # each entry once, at its last reader
    position = {entry: i for i, entries in enumerate(released) for entry in entries}
    conv = (identities.table, (("conv", 7, "delta_6_3", 1),))  # read by f14-decomposition and e2-delta-convolution
    assert position[conv] == names.index("e2-delta-convolution")
    # the f12 lhs is built by f12-decomposition and read again, from its entry, by s24-formula
    assert position[(identities._lhs_table, ("f12-decomposition",))] == names.index("s24-formula")
    assert position[(identities.table, (("conv", 3, "delta_8_3", 1),))] == names.index("f12-decomposition")


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_cold_cli_verify_keeps_nothing_it_built(fmt):
    clear_all()
    code, text = run_cli(["verify", "--all", "--nmax", "100", "--format", fmt])
    assert code == 0 and text
    assert identities.table.stored() == {}
    assert identities._lhs_table.stored() == {}


@pytest.mark.parametrize("nmax", ["100", "200", "300"])
def test_tables_of_an_earlier_value_query_stay(nmax):
    clear_all()
    query = ["s2k", "--k", "12", "--n", "5", "--method", "formula"]
    code, answer = run_cli(query)
    assert code == 0
    before = {memo: memo.stored() for memo in IDENTITY_MEMOS}
    assert before[identities._lhs_table] == {("f12-decomposition",): 200}
    code, _ = run_cli(["verify", "--all", "--nmax", nmax])
    assert code == 0
    for memo, stored in before.items():
        after = memo.stored()
        assert set(after) == set(stored), memo.__name__
        if int(nmax) <= 200:  # served by cuts: every entry stays at the precision the query stored
            assert after == stored, memo.__name__
    assert run_cli(query) == (0, answer)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--identity", "nope", "--format", "json"],
        ["verify", "--all", "--nmax", "20", "--precision", "10", "--format", "json"],
        ["verify", "--all", "--nmax", "20", "--precision", "10"],
        ["verify", "--identity", "tau-eq", "--identity", "nope", "--nmax", "5", "--format", "csv"],
    ],
)
def test_nothing_is_written_before_the_request_is_checked(argv, capsys):
    if "--nmax" not in argv:
        argv = argv + ["--nmax", "5"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_two_identities_strict_still_fails():
    code, text = run_cli(["verify", "--identity", "tau-eq", "--identity", "s14-theorem", "--nmax", "5", "--strict"])
    assert code == 1
    assert text.endswith("verification: FAIL (2 identities, strict=True)\n")


class EventOut(io.StringIO):
    def __init__(self, events):
        super().__init__()
        self.events = events

    def write(self, text):
        self.events.append("write")
        return super().write(text)


@pytest.mark.parametrize("fmt, closing", [("table", ["write"]), ("json", ["write"]), ("csv", [])])
def test_each_report_is_written_before_the_next_is_built(fmt, closing, monkeypatch):
    events = []
    for name, builder in identities.IDENTITY_BUILDERS.items():
        monkeypatch.setitem(
            identities.IDENTITY_BUILDERS, name, lambda *args, name=name, builder=builder: events.append(name) or builder(*args)
        )
    out = EventOut(events)
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--all", "--nmax", "20", "--format", fmt]) == 0
    assert events == [e for name in identities.IDENTITY_NAMES for e in (name, "write")] + closing
