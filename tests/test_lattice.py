"""Enumeration, moment tables, and the finite-sum catalog."""

from math import isqrt

import pytest

from memos import clear_all
from oracles import (
    f1_moments_direct,
    f1_moments_discriminant,
    f1_shell_invariant,
    f2_moments_direct,
    lomadze_term,
    lomadze_values_per_coefficient,
    moment_product,
    s2k_direct_recursive,
    theta_powers_chained,
)

from hexrep import lattice
from hexrep.lattice import (
    LOMADZE_BY_NAME,
    LOMADZE_CATALOG,
    MOMENT_ORDERS,
    UnknownSum,
    enumerate_f1,
    lomadze_spec,
    lomadze_sum,
    lomadze_values,
    moment_table,
    s2k_bruteforce,
    theta_series,
)


def test_f1_small_values():
    series, tables = enumerate_f1(10)
    assert series.coeffs[:5] == (1, 6, 0, 6, 6)
    assert tables[0].values[1] == 6 and tables[2].values[1] == 4 and tables[4].values[1] == 4
    assert all(tables[t].values[2] == 0 for t in MOMENT_ORDERS)
    assert tables[0].values[0] == 1 and tables[2].values[0] == 0


def test_f1_against_box_enumeration():
    _, tables = enumerate_f1(100)
    direct = f1_moments_direct(100)
    for t in MOMENT_ORDERS:
        assert list(tables[t].values) == direct[t]


def test_f1_enumeration_against_discriminant_oracle():
    # one point per orbit against the per-n discriminant test, past the first mirror shells x^2 and 3x^2
    # and at the edges of the x ranges
    for precision in (*range(61), 200, 401, 2000):
        rows = lattice._f1_moment_rows.__wrapped__(precision)
        assert rows == {t: tuple(row) for t, row in f1_moments_discriminant(precision).items()}, precision


def test_f1_orders_6_and_8_carry_the_degree_6_invariant():
    # over a shell, row6 = n row4 + H and row8 = n row6 + 5n H / 3, H the sum of (xy(x + y))^2
    rows, h = lattice._f1_moment_rows.__wrapped__(300), f1_shell_invariant(300)
    assert any(h)
    for n in range(301):
        assert rows[6][n] == n * rows[4][n] + h[n], n
        assert 3 * rows[8][n] == 3 * n * rows[6][n] + 5 * n * h[n], n


def test_theta_powers_against_chained_products():
    chained = theta_powers_chained(14, 61)
    clear_all()
    for precision in (40, 0, 61, 7):  # served fresh, by cuts and after growth
        for k in range(15):
            assert theta_series(k, precision).coeffs == tuple(chained[k][: precision + 1]), (k, precision)


def test_f1_odd_moments_vanish():
    # box enumeration with odd powers; the involution x -> -x forces zero
    n_max = 60
    bound = isqrt(4 * n_max // 3) + 1
    odd = {1: [0] * (n_max + 1), 3: [0] * (n_max + 1), 5: [0] * (n_max + 1)}
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            n = x * x + x * y + y * y
            if n <= n_max:
                for t in odd:
                    odd[t][n] += x**t
    assert all(all(v == 0 for v in row) for row in odd.values())


def test_s2k_small_values():
    assert s2k_bruteforce(1, 5)[3] == 6
    assert s2k_bruteforce(7, 2)[1] == 42
    for k in range(1, 15):
        assert s2k_bruteforce(k, 0)[0] == 1


def test_s2k_against_recursive_coordinate_enumeration():
    for k, n_max in ((1, 8), (2, 6), (3, 4), (7, 2)):
        table = s2k_bruteforce(k, n_max)
        for n in range(n_max + 1):
            assert table[n] == s2k_direct_recursive(k, n)


def test_moment_tables_k2_against_four_variable_loop():
    direct = f2_moments_direct(30)
    for t in MOMENT_ORDERS:
        assert list(moment_table(2, t, 30).values) == direct[t]


def test_second_moments_against_block_product():
    # M_2 is read off theta^k; the product of the one-block row with theta^(k-1)
    # is its oracle (the k = 2 four-variable loop above covers every order)
    clear_all()
    for k in range(1, 15):
        assert moment_table(k, 2, 400).values == moment_product(k, 2, 400), k


def test_moment_examples():
    assert moment_table(2, 4, 5).values[1] == 4
    assert moment_table(3, 2, 5).values[1] == 4
    # a plain namedtuple: indexing, len and iteration all go over (k, t, values)
    t = moment_table(2, 4, 3)
    assert list(t)[0] == t[0] == 2
    assert len(t) == 3 and t[2] == t.values


def test_moment_zero_order_is_count():
    chained = theta_powers_chained(14, 40)
    for k in range(1, 15):
        assert moment_table(k, 0, 40).values == tuple(chained[k])


def test_moment_convolution_associativity():
    # build M_t(k) from the two-block table instead of the one-block table
    N = 40
    for k in (3, 5, 8):
        rest = theta_series(k - 2, N).coeffs
        for t in MOMENT_ORDERS:
            two = moment_table(2, t, N).values
            expected = [
                sum(two[a] * rest[n - a] for a in range(n + 1)) for n in range(N + 1)
            ]
            assert list(moment_table(k, t, N).values) == expected


def test_moments_nonnegative_and_supported():
    N = 60
    counts = s2k_bruteforce(3, N)
    for t in MOMENT_ORDERS:
        table = moment_table(3, t, N).values
        for n in range(N + 1):
            assert table[n] >= 0
            if counts[n] == 0:
                assert table[n] == 0


def test_catalog_contents():
    assert len(LOMADZE_CATALOG) == 13
    l106 = LOMADZE_BY_NAME["L_10_6"]
    assert lomadze_term(l106, 2, 5) == -21 * 5  # the corrected x1^2 coefficient
    l1410 = LOMADZE_BY_NAME["L_14_10"]
    assert [lomadze_term(l1410, t, 1) for t in (4, 2, 0)] == [99, -33, 1]
    assert l1410.blocks == 10


def test_lomadze_spec_lookup():
    assert lomadze_spec("L_6_2").blocks == 2
    with pytest.raises(UnknownSum):
        lomadze_spec("bogus")


def test_lomadze_values_spot_checks():
    assert lomadze_sum(lomadze_spec("L_6_2"), 1) == 12
    assert lomadze_sum(lomadze_spec("L_7_3"), 1) == 30
    assert lomadze_sum(lomadze_spec("L_8_4"), 1) == 108
    assert lomadze_sum(lomadze_spec("L_10_6"), 1) == 120
    assert lomadze_sum(lomadze_spec("L_12_8"), 1) == 420
    assert lomadze_sum(lomadze_spec("Lcal_4"), 1) == -430488


def test_lomadze_against_explicit_solution_sum():
    # evaluate a two-block sum by looping over actual solutions of F_2 = n
    spec = lomadze_spec("L_6_2")
    n_max = 20
    bound = isqrt(4 * n_max // 3) + 1
    rng = range(-bound, bound + 1)
    totals = [0] * (n_max + 1)
    for x1 in rng:
        for x2 in rng:
            b1 = x1 * x1 + x1 * x2 + x2 * x2
            if b1 > n_max:
                continue
            for x3 in rng:
                for x4 in rng:
                    n = b1 + x3 * x3 + x3 * x4 + x4 * x4
                    if n <= n_max:
                        totals[n] += 9 * x1**4 - 9 * n * x1**2 + n * n
    assert list(lomadze_values("L_6_2", n_max)) == totals


def test_lomadze_values_against_per_coefficient_passes():
    # orders 0 and 2 folded into one s_2k pass, Horner weights and one exact division, against one list
    # pass per coefficient of every term over its own moment row
    for precision in (*range(41), 200, 401):
        for spec in LOMADZE_CATALOG:
            values = lattice.lomadze_values.__wrapped__(spec.name, precision)
            assert type(values) is tuple and len(values) == precision + 1
            assert values == lomadze_values_per_coefficient(spec.name, precision), (spec.name, precision)


def test_lomadze_cal4_is_the_stated_combination():
    # the combined four-block sum folds two catalog sums with fixed weights
    n_max = 40
    cal4 = lomadze_values("Lcal_4", n_max)
    l124 = lomadze_values("L_12_4", n_max)
    l84 = lomadze_values("L_8_4", n_max)
    for n in range(n_max + 1):
        assert cal4[n] == 135 * l124[n] - 4121 * l84[n]


def test_lomadze_precision_contract():
    spec = lomadze_spec("L_6_2")
    with pytest.raises(ValueError):
        lomadze_sum(spec, 10, precision=5)


def test_negative_precision_is_a_value_error():
    # the memo holds both keys first, so the guard must hold on a hit too
    moment_table(1, 0, 5)
    lomadze_values("L_6_2", 5)
    with pytest.raises(ValueError, match="precision must be >= 0"):
        moment_table(1, 0, -1)
    with pytest.raises(ValueError, match="precision must be >= 0"):
        lomadze_values("L_6_2", -1)


def test_lomadze_sum_rejects_a_spec_outside_the_catalog():
    spec = lomadze_spec("L_6_2")._replace(terms=((4, (1,)),))
    with pytest.raises(UnknownSum):
        lomadze_sum(spec, 3)


def _sweep_lomadze_sum(name, n_max):
    """lomadze_sum over n = 1..n_max from cleared memos, with every precision each memo stored."""
    spec = lomadze_spec(name)
    clear_all()
    values, stored = [], {}
    for n in range(1, n_max + 1):
        values.append(lomadze_sum(spec, n))
        for memo in (lattice.lomadze_values, lattice.moment_table):
            for key, precision in memo.stored().items():
                stored.setdefault((memo.__name__, key), set()).add(precision)
    return values, stored


def test_lomadze_sum_loop_builds_one_table():
    # one table at the default precision serves every n up to it
    values, stored = _sweep_lomadze_sum("L_12_4", 200)
    tables = [key for key in stored if key[0] == "moment_table"]
    assert len(tables) <= 5
    assert all(precisions == {200} for precisions in stored.values())
    assert values == list(lomadze_values("L_12_4", 200)[1:])


def test_lomadze_sum_sweep_to_1000_builds_at_most_four_tables():
    values, stored = _sweep_lomadze_sum("L_12_4", 1000)
    assert all(len(precisions) <= 4 for precisions in stored.values())
    assert stored[("lomadze_values", ("L_12_4",))] == {200, 400, 800, 1600}
    assert values == list(lattice.lomadze_values.__wrapped__("L_12_4", 1000)[1:])
