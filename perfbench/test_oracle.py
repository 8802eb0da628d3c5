"""The benchmark's oracle against direct enumeration and known values.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

from math import isqrt

from sympy import divisor_sigma

from oracle import LATTICE_SUMS, Oracle, sieve_sigma

N = 24


def four_variable_moments(n_max):
    """sum of x1^t over the solutions of F_2(x) = n, by enumerating all four coordinates."""
    bound = isqrt(4 * n_max // 3) + 1
    rows = {t: [0] * (n_max + 1) for t in (0, 2, 4)}
    coords = range(-bound, bound + 1)
    for x1 in coords:
        for x2 in coords:
            first = x1 * x1 + x1 * x2 + x2 * x2
            if first > n_max:
                continue
            for x3 in coords:
                for x4 in coords:
                    n = first + x3 * x3 + x3 * x4 + x4 * x4
                    if n <= n_max:
                        for t in rows:
                            rows[t][n] += x1**t
    return rows


def test_two_block_tables_match_four_variable_enumeration():
    oracle = Oracle(N)
    direct = four_variable_moments(N)
    assert oracle.s2k[2] == direct[0]
    for t in (0, 2, 4):
        assert oracle.block_moments[(2, t)] == direct[t]
    blocks, terms = LATTICE_SUMS["L_6_2"]
    assert blocks == 2
    expected = [
        sum(sum(c * n**i for i, c in enumerate(poly)) * direct[t][n] for t, poly in terms.items())
        for n in range(N + 1)
    ]
    assert oracle.lattice["L_6_2"] == expected


def test_representation_counts_at_one():
    oracle = Oracle(N)
    assert all(oracle.s2k[k][1] == 6 * k for k in range(1, 15))
    assert oracle.s2k[1][:8] == [1, 6, 0, 6, 6, 0, 0, 12]


def test_tau_known_values_and_congruence():
    oracle = Oracle(100)
    assert oracle.tau[1:11] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    assert all((oracle.tau[n] - divisor_sigma(n, 11)) % 691 == 0 for n in range(1, 101))


def test_divisor_sums_and_rho_star():
    for r in (1, 3, 5, 7, 11, 13):
        assert sieve_sigma(r, 60)[1:] == [int(divisor_sigma(n, r)) for n in range(1, 61)]
    oracle = Oracle(N)
    assert oracle.rho_star(6, 1) == 0
    assert oracle.rho_star(8, 1) == 2 * 81
