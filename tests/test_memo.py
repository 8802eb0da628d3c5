"""The grow-only memo: one entry per key, served by cuts, grown by doubling.

Every memoized quantity is a table whose entry at n must not depend on
the precision it was computed at; these tests check that, and that the
memo stays bounded while precisions are swept.
"""

import inspect

import pytest
from memos import all_memos, clear_all

from hexrep import arith, cli, forms, identities, lattice, series
from hexrep.arith import CHI3, CHI_TRIVIAL
from hexrep.lattice import MomentTable
from hexrep.series import QSeries, grow_only, prefix

MEMOIZED = {
    "hexrep.arith.sigma_table",
    "hexrep.forms.eisenstein_classical",
    "hexrep.forms.named_form",
    "hexrep.lattice._f1_moment_rows",
    "hexrep.lattice.theta_series",
    "hexrep.lattice.moment_table",
    "hexrep.lattice.lomadze_values",
    "hexrep.identities.table",
    "hexrep.identities._lhs_table",
}

#: One call of each memoized quantity, as (memo, key arguments).
QUANTITIES = (
    (arith.sigma_table, (6, CHI_TRIVIAL, CHI3)),
    (forms.eisenstein_classical, (4,)),
    (forms.named_form, ("delta_7_3",)),
    (lattice._f1_moment_rows, ()),
    (lattice.theta_series, (3,)),
    (lattice.moment_table, (2, 4)),
    (lattice.lomadze_values, ("L_6_2",)),
    (identities.table, (("conv", 1, "delta", 3),)),
    (identities._lhs_table, ("f14-decomposition",)),
)


def _precision(value) -> int:
    if isinstance(value, forms.NamedForm):
        value = value.series
    if isinstance(value, dict):  # the one-block moment rows, one per order
        (precision,) = {len(row) - 1 for row in value.values()}
        return precision
    return value.precision if isinstance(value, (QSeries, MomentTable)) else len(value) - 1


def test_every_memo_is_listed():
    assert set(all_memos()) == MEMOIZED
    assert {f"{fn.__module__}.{fn.__name__}" for fn, _ in QUANTITIES} == MEMOIZED


def test_no_lru_cache_is_keyed_by_precision():
    cached = {
        name: fn
        for module in (arith, cli, forms, identities, lattice, series)
        for name, fn in vars(module).items()
        if hasattr(fn, "cache_info")
    }
    # the one functools cache left takes no precision
    assert set(cached) == {"bernoulli_generalized"}
    for fn in cached.values():
        assert "precision" not in inspect.signature(fn.__wrapped__).parameters


def test_grow_only_contract():
    builds = []

    @grow_only(prefix)
    def table(k, precision):
        builds.append(precision)
        return tuple(k * n for n in range(precision + 1))

    assert table(2, 10) == tuple(2 * n for n in range(11))
    assert table(2, 10) is table(2, 10)  # a hit at the stored precision is the stored value
    assert table(2, 4) == (0, 2, 4, 6, 8)
    assert table(2, 4) is table(2, 4)  # the last cut is kept
    assert table(2, 11) == tuple(2 * n for n in range(12))  # computed at 2 * 10
    assert table(2, 20) == tuple(2 * n for n in range(21))
    assert table(2, precision=50)[-1] == 100  # the precision may come by keyword
    assert table(3, 5) == (0, 3, 6, 9, 12, 15)
    assert builds == [10, 20, 50, 5]
    assert table.stored() == {(2,): 50, (3,): 5}
    with pytest.raises(ValueError, match="precision must be >= 0"):
        table(2, -1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'scale'"):
        table(2, 50, scale=3)  # refused on a hit too
    with pytest.raises(TypeError, match="missing argument 'precision'"):
        table(2)
    assert builds == [10, 20, 50, 5]
    table.clear()
    assert table.stored() == {}


def test_grow_only_needs_the_precision_last():
    with pytest.raises(TypeError):

        @grow_only(prefix)
        def table(precision, k):
            return ()

    with pytest.raises(TypeError):  # a keyword-only option would be left out of the key

        @grow_only(prefix)
        def scaled(k, precision, *, scale=1):
            return ()


def test_results_have_the_requested_precision_in_any_order():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, max_examples=12)
    @hypothesis.given(st.lists(st.integers(0, 300), min_size=1, max_size=4))
    def check(precisions):
        clear_all()
        for precision in precisions:
            for memo, args in QUANTITIES:
                value = memo(*args, precision)
                assert value == memo.__wrapped__(*args, precision), memo.__name__
                assert _precision(value) == precision, memo.__name__

    check()


def test_verify_all_does_not_depend_on_the_precision():
    clear_all()
    low_first = [identities.verify_all(50, precision=p) for p in (50, 200)]
    clear_all()
    high_first = [identities.verify_all(50, precision=p) for p in (200, 50)]
    assert low_first[0] == low_first[1] == high_first[0] == high_first[1]


def test_a_precision_sweep_keeps_one_entry_per_key():
    clear_all()
    identities.verify_all(10, precision=25)
    keys = {name: set(memo.stored()) for name, memo in all_memos().items()}
    assert all(keys.values())  # verify_all reaches every memo
    for precision in range(50, 401, 25):
        identities.verify_all(10, precision=precision)
    for name, memo in all_memos().items():
        stored = memo.stored()
        assert set(stored) == keys[name], name
        assert all(400 <= p < 800 for p in stored.values()), name

