"""The six record types: immutable values that compare, hash, print and pickle by their fields."""

import pickle
from fractions import Fraction

import pytest

from hexrep.arith import CHI3, CHI_TRIVIAL, DirichletCharacter
from hexrep.forms import EtaQuotientSpec, NamedForm, named_form
from hexrep.identities import IdentityReport
from hexrep.lattice import LomadzeSumSpec, MomentTable, lomadze_spec, moment_table
from hexrep.series import QSeries

#: (a record made by the package, the same record built by hand, a different one, its fields, its repr)
RECORDS = {
    "DirichletCharacter": (
        lambda: CHI3,
        lambda: DirichletCharacter(3, (0, 1, -1)),
        CHI_TRIVIAL,
        ("conductor", "values"),
        "DirichletCharacter(conductor=3)",
    ),
    "EtaQuotientSpec": (
        lambda: EtaQuotientSpec(((1, 9), (3, -3))),
        lambda: EtaQuotientSpec(factors=((1, 9), (3, -3))),
        EtaQuotientSpec(((1, 24),)),
        ("factors",),
        "EtaQuotientSpec(factors=((1, 9), (3, -3)))",
    ),
    "NamedForm": (
        lambda: named_form("delta", 3),
        lambda: NamedForm("delta", 12, 1, DirichletCharacter(1, (1,)), QSeries([0, 1, -24, 252])),
        NamedForm("delta", 12, 1, CHI_TRIVIAL, QSeries([0, 1, -24])),
        ("name", "weight", "level", "character", "series"),
        "NamedForm(name='delta', weight=12, level=1, character=DirichletCharacter(conductor=1), "
        "series=QSeries([0, 1, -24, 252], precision=3))",
    ),
    "MomentTable": (
        lambda: moment_table(2, 4, 3),
        lambda: MomentTable(2, 4, (0, 4, 24, 36)),
        MomentTable(2, 2, (0, 4, 24, 36)),
        ("k", "t", "values"),
        "MomentTable(k=2, t=4, values=(0, 4, 24, 36))",
    ),
    "LomadzeSumSpec": (
        lambda: lomadze_spec("L_6_2"),
        lambda: LomadzeSumSpec("L_6_2", 6, 2, ((4, (9,)), (2, (0, -9)), (0, (0, 0, 1)))),
        lomadze_spec("L_8_4"),
        ("name", "weight", "blocks", "terms"),
        "LomadzeSumSpec(name='L_6_2', weight=6, blocks=2, terms=((4, (9,)), (2, (0, -9)), (0, (0, 0, 1))))",
    ),
    "IdentityReport": (
        lambda: IdentityReport("x", 2, (1, Fraction(1, 2)), (1, 2)),
        lambda: IdentityReport("x", 2, (1, Fraction(1, 2)), (1, 2), constant_term=None, note=""),
        IdentityReport("x", 2, (1, Fraction(1, 2)), (1, 2), note="n"),
        ("name", "n_max", "lhs", "rhs", "constant_term", "note"),
        "IdentityReport(name='x', n_max=2, lhs=(1, Fraction(1, 2)), rhs=(1, 2), constant_term=None, note='')",
    ),
}


@pytest.fixture(params=list(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_records_compare_and_hash_by_value(record):
    made, by_hand, other, _, _ = record
    a, b = made(), by_hand()
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != other


def test_records_are_frozen(record):
    made, _, _, fields, _ = record
    a = made()
    assert a._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        a.extra = 1


def test_record_reprs(record):
    made, _, _, _, text = record
    assert repr(made()) == text


def test_records_pickle(record):
    made, _, _, _, _ = record
    a = made()
    b = pickle.loads(pickle.dumps(a))
    assert b == a and type(b) is type(a)


def test_truncate_keeps_the_record_type():
    form = named_form("delta", 5).truncate(2)
    assert type(form) is NamedForm and form.series == QSeries([0, 1, -24])
    table = moment_table(2, 4, 5).truncate(3)
    assert type(table) is MomentTable and table == MomentTable(2, 4, (0, 4, 24, 36))
    assert table[1] == 4 and table.precision == 3


def test_checked_records_check_every_construction():
    spec = EtaQuotientSpec(((1, 24),))
    report = IdentityReport("x", 1, (1,), (1,))
    for build in (
        lambda: EtaQuotientSpec(((0, 24),)),
        lambda: spec._replace(factors=((1, 12), (-3, 4))),
        lambda: EtaQuotientSpec._make([((0, 1),)]),
        lambda: IdentityReport("x", 2, (1,), (1, 1)),
        lambda: report._replace(n_max=2),
        lambda: report._replace(rhs=()),
        lambda: IdentityReport._make(["x", 1, (1,), (1, 2), None, ""]),
    ):
        with pytest.raises(ValueError):
            build()
    assert report._replace(note="n").note == "n"
    assert pickle.loads(pickle.dumps(report)) == report
