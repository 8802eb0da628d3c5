"""Eta quotients, Eisenstein series, and the named-form catalog."""

import math
from fractions import Fraction

import pytest
from memos import clear_all
from oracles import (
    delta_7_3_eisenstein_eta,
    delta_8_3_eta_sum,
    eta_spec,
    euler_product_direct,
    invert_dense,
    mul_schoolbook,
    quasimodular_combination,
)

from hexrep.arith import CHI3, CHI_TRIVIAL, DirichletCharacter, sigma_twisted
from hexrep.forms import (
    CATALOG_NAMES,
    NEWFORM_NAMES,
    EtaQuotientSpec,
    NonIntegralExponent,
    ParityMismatch,
    UnknownForm,
    _b_cube,
    _c_prime,
    _euler_core,
    _jacobi_cube,
    eisenstein_classical,
    eisenstein_twisted,
    eta_quotient,
    named_form,
)
from hexrep.lattice import s2k_bruteforce, theta_series
from hexrep.series import QSeries

TAU_FIRST_TEN = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def naive_core_power(scale, exponent, precision):
    # prod((1 - q^(scale*n))^exponent), by plain repeated polynomial products;
    # written independently of the package internals
    poly = [0] * (precision + 1)
    poly[0] = 1
    for _ in range(exponent):
        for j in range(scale, precision + 1, scale):
            new = poly[:]
            for i in range(j, precision + 1):
                new[i] -= poly[i - j]
            poly = new
    return poly


def naive_eta_power(factors, precision):
    poly = [0] * (precision + 1)
    poly[0] = 1
    lead = 0
    for scale, exponent in factors:
        assert exponent >= 0
        lead += scale * exponent
        core = naive_core_power(scale, exponent, precision)
        poly = [
            sum(poly[i] * core[n - i] for i in range(n + 1))
            for n in range(precision + 1)
        ]
    assert lead % 24 == 0
    shift = lead // 24
    return tuple(([0] * shift + poly)[: precision + 1])


def test_euler_core_against_product_oracle():
    for precision in range(61):
        assert _euler_core(precision).coeffs == tuple(euler_product_direct(1, precision))


def test_jacobi_cube_against_product_oracle():
    for precision in (*range(61), 2000):
        core = euler_product_direct(1, precision)
        assert _jacobi_cube(precision) == tuple(mul_schoolbook(core, mul_schoolbook(core, core)))


@pytest.mark.parametrize(
    "factors",
    (((1, 9), (3, -3)), ((1, 6), (3, 4), (9, 6)), ((1, 12), (9, 4)), ((1, 24), (3, 0))),
)
def test_eta_quotient_against_product_oracle(factors):
    top = 97
    lead = sum(m * e for m, e in factors) // 24
    product = [1] + [0] * top
    for scale, exponent in factors:
        core = euler_product_direct(scale, top)
        if exponent < 0:
            core = invert_dense(core)
        for _ in range(abs(exponent)):
            product = mul_schoolbook(product, core)
    expected = ([0] * lead + product)[: top + 1]
    scales = {m for m, _ in factors}
    for precision in sorted({0, 1, 40, top} | {m - 1 for m in scales} | scales):
        assert eta_quotient(eta_spec(*factors), precision).coeffs == tuple(expected[: precision + 1]), precision


def test_eta_quotient_rejects_a_negative_precision():
    with pytest.raises(ValueError, match="precision must be >= 0"):
        eta_quotient(eta_spec((1, 24)), -1)


def test_b_cube_and_c_prime_sum_to_theta_cubed():
    N = 2000
    assert _b_cube(N) + 27 * _c_prime(N) == theta_series(3, N)
    assert _b_cube(N).coeffs[:4] == (1, -9, 27, -9)
    assert _c_prime(N).coeffs[:4] == (0, 1, 3, 9)


@pytest.mark.parametrize(
    "name, factors",
    (
        ("delta", ((1, 24),)),
        ("delta_6_3", ((1, 6), (3, 6))),
        ("delta_9_3_1", ((1, 3), (3, 15))),
        ("delta_9_3_2", ((1, 15), (3, 3))),
    ),
)
def test_catalog_eta_quotients_against_their_specs(name, factors):
    assert named_form(name, 2000).series == eta_quotient(eta_spec(*factors), 2000)
    assert named_form(name, 80).series.coeffs == naive_eta_power(factors, 80)


def test_delta_against_naive_expansion():
    delta = named_form("delta", 40).series
    assert delta.coeffs == naive_eta_power(((1, 24),), 40)
    assert delta.coefficient(1) == 1
    assert delta.coefficient(2) == -24


def test_delta_known_coefficients():
    delta = named_form("delta", 10).series
    assert delta.coeffs[1:] == TAU_FIRST_TEN


def test_delta_from_eisenstein_quotient():
    N = 60
    e4 = eisenstein_classical(4, N)
    e6 = eisenstein_classical(6, N)
    assert Fraction(1, 1728) * (e4**3 - e6**2) == named_form("delta", N).series


def test_eta_quotient_examples():
    d63 = named_form("delta_6_3", 20).series
    assert d63.coefficient(0) == 0 and d63.coefficient(1) == 1
    assert d63.coeffs == naive_eta_power(((1, 6), (3, 6)), 20)
    unit = eta_quotient(EtaQuotientSpec(((1, 9), (3, -3))), 15)
    assert unit.coefficient(0) == 1


def test_eta_quotient_rejects_bad_exponents():
    with pytest.raises(NonIntegralExponent):
        eta_quotient(EtaQuotientSpec(((1, 1),)), 10)
    with pytest.raises(ValueError):
        eta_quotient(EtaQuotientSpec(((3, -8),)), 10)  # pole at q = 0
    with pytest.raises(ValueError):
        EtaQuotientSpec(((0, 24),))


def test_eta_inverse_factor_consistency():
    # the negative exponent is an honest reciprocal: multiplying back by
    # prod(1 - q^(3n))^3 leaves the plain ninth-power product
    N = 30
    quotient = eta_quotient(EtaQuotientSpec(((1, 9), (3, -3))), N)
    cube = QSeries(naive_core_power(3, 3, N))
    nine = QSeries(naive_core_power(1, 9, N))
    assert quotient * cube == nine


def test_eisenstein_classical_values():
    assert eisenstein_classical(4, 3).coeffs == (1, 240, 2160, 6720)
    assert eisenstein_classical(2, 2).coeffs == (1, -24, -72)
    assert eisenstein_classical(12, 5).coefficient(0) == 1
    with pytest.raises(ValueError):
        eisenstein_classical(3, 5)


def test_eisenstein_twisted_constant_terms():
    e_chi_first = eisenstein_twisted(7, CHI3, CHI_TRIVIAL, 10)
    assert e_chi_first.coefficient(0) == 0  # conductor of chi is 3
    assert e_chi_first.coefficient(1) == 1
    e_triv_first = eisenstein_twisted(7, CHI_TRIVIAL, CHI3, 10)
    assert e_triv_first.coefficient(0) == Fraction(-7, 3)  # -B_(7,chi3) / 14
    # an integral constant term is stored as an int: -B_(4,chi5) / 8 = 1 for the character (5/.)
    chi5 = DirichletCharacter(5, (0, 1, -1, -1, 1))
    assert type(eisenstein_twisted(4, CHI_TRIVIAL, chi5, 10).coefficient(0)) is int
    assert eisenstein_twisted(4, CHI_TRIVIAL, chi5, 10) == QSeries([1, *(sigma_twisted(3, CHI_TRIVIAL, chi5, n) for n in range(1, 11))])


def test_eisenstein_twisted_coefficients_are_twisted_sums():
    e = eisenstein_twisted(9, CHI_TRIVIAL, CHI3, 20)
    for n in range(1, 21):
        assert e.coefficient(n) == sigma_twisted(8, CHI_TRIVIAL, CHI3, n)


def test_eisenstein_twisted_contracts():
    with pytest.raises(ParityMismatch):
        eisenstein_twisted(8, CHI_TRIVIAL, CHI3, 10)
    with pytest.raises(ValueError):
        eisenstein_twisted(7, CHI_TRIVIAL, CHI_TRIVIAL, 10)
    with pytest.raises(ValueError):
        eisenstein_twisted(2, CHI3, CHI_TRIVIAL, 10)


def test_named_form_catalog():
    for name in CATALOG_NAMES:
        form = named_form(name, 30)
        assert form.series.coefficient(0) == 0  # all catalog entries are cuspidal
    assert named_form("delta_7_3", 10).series.coefficient(1) == 1
    assert named_form("delta_8_3", 10).series.coefficient(1) == 1
    assert named_form("delta_9_3_1", 10).series.coeffs[:3] == (0, 0, 1)
    assert named_form("delta_7_3", 10).character is CHI3
    assert named_form("delta", 10).weight == 12
    with pytest.raises(UnknownForm):
        named_form("nope", 10)


@pytest.mark.parametrize("name, oracle", (("delta_7_3", delta_7_3_eisenstein_eta), ("delta_8_3", delta_8_3_eta_sum)))
def test_theta_multiples_of_delta_6_3_against_eta_constructions(name, oracle):
    clear_all()
    for precision in (1, 2, 400):  # normalized, q + O(q^2), at each precision the memo grows to
        assert named_form(name, precision).series.coeffs[:2] == (0, 1), (name, precision)
    assert named_form(name, 400).series == oracle(400)


def test_delta_7_3_spot_coefficients():
    # frozen from the normalized Eisenstein-eta product (oracles.delta_7_3_eisenstein_eta)
    series = named_form("delta_7_3", 10).series
    assert series.coeffs[1:6] == (1, 0, -27, 64, 0)


def test_theta_Fk():
    # the theta series of F_k, as the brute-force counts s_2k(0..precision)
    assert s2k_bruteforce(1, 4) == (1, 6, 0, 6, 6)
    assert s2k_bruteforce(2, 2)[1] == 12
    assert s2k_bruteforce(12, 0)[0] == 1
    with pytest.raises(ValueError):
        s2k_bruteforce(0, 5)


def test_quasimodular_combination():
    N = 30
    combo = quasimodular_combination(N)
    assert combo.coefficient(0) == 0
    assert combo.coefficient(1) == 1
    # independent composition order
    e2 = eisenstein_classical(2, N)
    delta = named_form("delta", N).series
    other = Fraction(3, 2) * (e2.scale_argument(3) * delta) - Fraction(1, 2) * (e2 * delta)
    assert combo == other


def test_scaled_e2_coefficients():
    # coefficient n of E_2(3z) is -24 sigma(n/3) when 3 | n, else 0
    N = 30
    scaled = eisenstein_classical(2, N).scale_argument(3)
    for n in range(1, N + 1):
        if n % 3:
            assert scaled.coefficient(n) == 0
        else:
            s = sum(d for d in range(1, n // 3 + 1) if (n // 3) % d == 0)
            assert scaled.coefficient(n) == -24 * s


def _newform_data(name):
    form = named_form(name, 200)
    chi = form.character
    return form.series.coeffs, form.weight, chi


@pytest.mark.parametrize("name", NEWFORM_NAMES)
def test_newform_multiplicativity(name):
    coeffs, _, _ = _newform_data(name)
    for m in range(2, 15):
        for n in range(m + 1, 200 // m + 1):
            if math.gcd(m, n) == 1:
                assert coeffs[m * n] == coeffs[m] * coeffs[n]


@pytest.mark.parametrize("name", NEWFORM_NAMES)
def test_newform_hecke_recursion_at_good_primes(name):
    coeffs, weight, chi = _newform_data(name)
    for p in (2, 5, 7, 11):
        if p * p <= 200:
            assert coeffs[p * p] == coeffs[p] ** 2 - chi(p) * p ** (weight - 1)
