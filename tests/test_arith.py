"""Characters, divisor sums and Bernoulli numbers against direct oracles."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from memos import clear_all
from oracles import bernoulli_generalized_at_fractions, bernoulli_polynomial, sigma_table_sieve

from hexrep import arith, identities
from hexrep.arith import (
    CHI3,
    CHI_TRIVIAL,
    DirichletCharacter,
    bernoulli,
    bernoulli_generalized,
    divisors,
    rho_star,
    rho_star_table,
    sigma,
    sigma_star,
    sigma_star_table,
    sigma_table,
    sigma_twisted,
)
from hexrep.series import QSeries


def test_chi3_values():
    assert CHI3(1) == 1
    assert CHI3(2) == -1
    assert CHI3(6) == 0
    assert CHI3(-1) == -1  # odd character
    assert CHI3(0) == 0


def test_chi3_completely_multiplicative():
    for m in range(1, 501):
        for n in range(1, 501 // m + 1):
            assert CHI3(m * n) == CHI3(m) * CHI3(n)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        divisors(0)


def test_sigma_values():
    assert sigma(1, 6) == 12
    assert sigma(0, 12) == 6
    assert sigma(11, 2) == 2049


def test_sigma_multiplicative():
    # all coprime factorizations m * n <= 10**4 with 2 <= m <= n
    limit = 10**4
    for r in (1, 3):
        table = {n: sigma(r, n) for n in range(1, limit + 1)}
        for m in range(2, math.isqrt(limit) + 1):
            for n in range(m + 1, limit // m + 1):
                if math.gcd(m, n) == 1:
                    assert table[m * n] == table[m] * table[n]


def _sigma_twisted_direct(r, chi, psi, n):
    return sum(psi(d) * chi(n // d) * d**r for d in range(1, n + 1) if n % d == 0)


def test_sigma_twisted_examples():
    assert sigma_twisted(6, CHI3, CHI_TRIVIAL, 1) == 1
    assert sigma_twisted(6, CHI_TRIVIAL, CHI3, 2) == -63  # 1 - 64
    assert sigma_twisted(6, CHI3, CHI_TRIVIAL, 3) == 729  # 0 * 1 + 1 * 729


def test_sigma_twisted_against_direct_sum():
    for chi in (CHI_TRIVIAL, CHI3):
        for psi in (CHI_TRIVIAL, CHI3):
            for n in range(1, 200):
                assert sigma_twisted(6, chi, psi, n) == _sigma_twisted_direct(
                    6, chi, psi, n
                )


def test_sigma_twisted_multiplicative():
    for chi in (CHI_TRIVIAL, CHI3):
        for psi in (CHI_TRIVIAL, CHI3):
            for m in range(2, 30):
                for n in range(m + 1, 900 // m + 1):
                    if math.gcd(m, n) == 1:
                        assert sigma_twisted(8, chi, psi, m * n) == sigma_twisted(
                            8, chi, psi, m
                        ) * sigma_twisted(8, chi, psi, n)


def test_rho_star_printed_values():
    # single-divisor evaluations of the printed formula
    assert rho_star(6, 1) == 0
    assert rho_star(8, 1) == 162
    assert rho_star(6, 3) == 27 * ((0 - 1) * 1 + (1 - 0) * 729)
    with pytest.raises(ValueError):
        rho_star(5, 1)


def test_sigma_star_values():
    assert sigma_star(11, 1) == 1
    assert sigma_star(11, 3) == 177148 + 729
    assert sigma_star(13, 2) == 8193
    with pytest.raises(ValueError):
        sigma_star(4, 1)


def test_sigma_table_against_sympy():
    sympy = pytest.importorskip("sympy")
    for r in (0, 1, 3, 5, 7, 11, 13):
        table = sigma_table(r, CHI_TRIVIAL, CHI_TRIVIAL, 600)
        assert table[0] == 0
        assert list(table[1:]) == [sympy.divisor_sigma(n, r) for n in range(1, 601)], r


def test_sieved_tables_against_trial_division():
    for r in (6, 8, 10):
        for chi in (CHI_TRIVIAL, CHI3):
            for psi in (CHI_TRIVIAL, CHI3):
                table = sigma_table(r, chi, psi, 1000)
                assert table == (0,) + tuple(sigma_twisted(r, chi, psi, n) for n in range(1, 1001))
        assert rho_star_table(r, 1000) == (0,) + tuple(rho_star(r, n) for n in range(1, 1001))
    for ell in (11, 13):
        assert sigma_star_table(ell, 1000) == (0,) + tuple(sigma_star(ell, n) for n in range(1, 1001))


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)
    for k in range(3, 30, 2):
        assert bernoulli(k) == 0


def test_bernoulli_against_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(61):
        expected = sympy.bernoulli(k)
        if k == 1:  # sympy takes B_1 = +1/2 (the x / (1 - e^-x) convention)
            expected = -expected
        assert bernoulli(k) == Fraction(int(expected.p), int(expected.q)), k


def test_bernoulli_table_grows_once_under_threads(monkeypatch):
    top, workers = 120, 8
    expected = [bernoulli(k) for k in range(top + 1)]
    table = [Fraction(1)]
    monkeypatch.setattr(arith, "_BERNOULLI", table)
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(i):
        start.wait()
        results[i] = [bernoulli(top - i)] + [bernoulli(k) for k in range(top + 1)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so an unguarded append would interleave
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for i, values in enumerate(results):
        assert values == [expected[top - i]] + expected
    assert table == expected  # each number appended once, in order


def _bernoulli_series_oracle(n_terms):
    # x / (e^x - 1) generating function, expanded with the series kernel
    exp_tail = QSeries(
        [Fraction(1, math.factorial(m + 1)) for m in range(n_terms + 1)]
    )  # (e^x - 1) / x
    series = exp_tail.invert()
    return [series.coefficient(k) * math.factorial(k) for k in range(n_terms + 1)]


def test_bernoulli_against_generating_function():
    oracle = _bernoulli_series_oracle(16)
    for k in range(17):
        assert bernoulli(k) == oracle[k]


def _generalized_bernoulli_oracle(k, psi):
    # sum over a of psi(a) * t * e^(a t) / (e^(f t) - 1), coefficient of t^k times k!
    f = psi.conductor
    n_terms = k + 2
    denom = QSeries(
        [Fraction(f ** (m + 1), math.factorial(m + 1)) for m in range(n_terms + 1)]
    )  # (e^(f t) - 1) / t
    inv = denom.invert()
    total = QSeries.zero(n_terms)
    for a in range(1, f + 1):
        numer = QSeries(
            [Fraction(a**m, math.factorial(m)) for m in range(n_terms + 1)]
        )  # e^(a t)
        total = total + psi(a) * (numer * inv)
    return total.coefficient(k) * math.factorial(k)


def test_bernoulli_generalized_examples():
    assert bernoulli_generalized(1, CHI3) == Fraction(-1, 3)
    assert bernoulli_generalized(2, CHI3) == 0
    for k in range(2, 13):
        assert bernoulli_generalized(k, CHI_TRIVIAL) == bernoulli(k)


def test_bernoulli_generalized_parity():
    for k in range(2, 14, 2):
        assert bernoulli_generalized(k, CHI3) == 0


def test_bernoulli_generalized_against_generating_function():
    for psi in (CHI_TRIVIAL, CHI3):
        for k in range(1, 12):
            assert bernoulli_generalized(k, psi) == _generalized_bernoulli_oracle(k, psi)


def test_bernoulli_generalized_against_polynomial_at_fractions():
    for psi in (CHI_TRIVIAL, CHI3):
        for k in range(1, 25):
            value = bernoulli_generalized.__wrapped__(k, psi)
            assert type(value) is Fraction
            assert value == bernoulli_generalized_at_fractions(k, psi), (k, psi)


def test_bernoulli_generalized_frozen_values():
    # these feed the Eisenstein constant terms of the decompositions
    assert bernoulli_generalized(7, CHI3) == Fraction(98, 3)
    assert bernoulli_generalized(9, CHI3) == Fraction(-1618, 3)
    assert bernoulli_generalized(11, CHI3) == Fraction(40634, 3)


def test_bernoulli_polynomial():
    assert bernoulli_polynomial(1, Fraction(1, 3)) == Fraction(-1, 6)
    assert bernoulli_polynomial(7, Fraction(1, 3)) == Fraction(49, 2187)


def test_multiplicative_tables_against_sieve_and_trial_division():
    # N = 2000 takes prime powers up to 2^10 and products of four distinct primes (2 * 3 * 5 * 7 = 210)
    pairs = [(chi, psi) for chi in (CHI_TRIVIAL, CHI3) for psi in (CHI_TRIVIAL, CHI3)]
    for r in range(14):
        for chi, psi in pairs:
            scalar = [0] + [sigma_twisted(r, chi, psi, n) for n in range(1, 2001)]
            for precision in (0, 1, 2, 3, 4, 9, 400, 2000):
                table = sigma_table.__wrapped__(r, chi, psi, precision)  # built at this precision, not cut
                assert table == sigma_table_sieve(r, chi, psi, precision) == tuple(scalar[: precision + 1]), (r, precision)


def test_every_table_verify_reads_against_the_sieve_built_and_cut():
    # the (r, chi, psi) of every divisor-sum table the catalog and SIDES read, from a cold verify
    clear_all()
    identities.verify_all(200)
    keys = set(sigma_table.stored())
    clear_all()
    assert len(keys) == 14
    precisions = (*range(41), 200, 401)
    fresh = {CHI3: lambda: DirichletCharacter(3, (0, 1, -1)), CHI_TRIVIAL: lambda: DirichletCharacter(1, (1,))}
    for r, chi, psi in sorted(keys, key=repr):
        chi, psi = fresh[chi](), fresh[psi]()  # equal to the module's characters, never the same objects
        sieved = sigma_table_sieve(r, chi, psi, 401)
        for precision in precisions:
            assert sigma_table.__wrapped__(r, chi, psi, precision) == sieved[: precision + 1], (r, precision)
        for order in (precisions, precisions[::-1]):  # grown by doubling and cut, or built once and cut
            sigma_table.clear()
            for precision in order:
                assert sigma_table(r, chi, psi, precision) == sieved[: precision + 1], (r, precision)
    sigma_table.clear()


def test_starred_tables_at_small_precisions():
    for precision in range(41):
        for ell in (11, 13):
            assert sigma_star_table(ell, precision) == (0,) + tuple(sigma_star(ell, n) for n in range(1, precision + 1))
        for ell in (6, 8, 10):
            assert rho_star_table(ell, precision) == (0,) + tuple(rho_star(ell, n) for n in range(1, precision + 1))
