"""Direct oracles: nested loops and one-n-at-a-time evaluations that the fast table paths are checked against."""

import argparse
import functools
import json
from fractions import Fraction
from math import comb, isqrt, lcm

from hexrep import cli
from hexrep.arith import CHI3, CHI_TRIVIAL, DirichletCharacter, bernoulli, rho_star, sigma_star, sigma_twisted
from hexrep.forms import CATALOG_NAMES, EtaQuotientSpec, eisenstein_classical, eta_quotient, named_form
from hexrep.identities import DOCUMENTED_DISCREPANCIES, WEIGHTS
from hexrep.lattice import MOMENT_ORDERS, _f1_moment_rows, lomadze_values, theta_series
from hexrep.series import QSeries


def f1_moments_direct(n_max: int) -> dict[int, list[int]]:
    """Plain box enumeration over (x, y); independent of the discriminant method."""
    bound = isqrt(4 * n_max // 3) + 1
    rows: dict[int, list[int]] = {t: [0] * (n_max + 1) for t in MOMENT_ORDERS}
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            n = x * x + x * y + y * y
            if n <= n_max:
                for t in MOMENT_ORDERS:
                    rows[t][n] += x**t
    return rows


def f1_shell_invariant(n_max: int) -> list[int]:
    """H(n) = sum of (xy(x + y))^2 over x^2 + xy + y^2 = n, by the plain box enumeration."""
    bound = isqrt(4 * n_max // 3) + 1
    h = [0] * (n_max + 1)
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            n = x * x + x * y + y * y
            if n <= n_max:
                h[n] += (x * y * (x + y)) ** 2
    return h


def f1_moments_discriminant(precision: int) -> dict[int, list[int]]:
    """x^2 + xy + y^2 = n solved one n at a time: for each x, a perfect-square discriminant 4n - 3x^2 = r^2 with r = x (mod 2)."""
    rows = {t: [0] * (precision + 1) for t in MOMENT_ORDERS}
    rows[0][0] = 1  # the zero vector is the only representation of 0
    for n in range(1, precision + 1):
        x = 0
        while 3 * x * x <= 4 * n:
            disc = 4 * n - 3 * x * x
            r = isqrt(disc)
            if r * r == disc and (x + r) % 2 == 0:
                count = 1 if r == 0 else 2  # y = (-x +/- r) / 2
                if x == 0:
                    rows[0][n] += count
                else:
                    rows[0][n] += 2 * count  # x and -x
                    for t in MOMENT_ORDERS[1:]:
                        rows[t][n] += 2 * count * x**t
            x += 1
    return rows


def theta_powers_chained(k_max: int, precision: int) -> list[list[int]]:
    """theta^0 .. theta^k_max of one block, each the last times theta: k_max - 1 schoolbook products."""
    theta = f1_moments_direct(precision)[0]
    powers = [[1] + [0] * precision, theta]
    while len(powers) <= k_max:
        powers.append(mul_schoolbook(powers[-1], theta))
    return powers


def f2_moments_direct(n_max: int) -> dict[int, list[int]]:
    """Four-variable nested-loop enumeration of F_2; exponential-cost test oracle."""
    bound = isqrt(4 * n_max // 3) + 1
    rows: dict[int, list[int]] = {t: [0] * (n_max + 1) for t in MOMENT_ORDERS}
    rng = range(-bound, bound + 1)
    for x1 in rng:
        for x2 in rng:
            b1 = x1 * x1 + x1 * x2 + x2 * x2
            if b1 > n_max:
                continue
            powers = [x1**t for t in MOMENT_ORDERS]
            for x3 in rng:
                for x4 in rng:
                    n = b1 + x3 * x3 + x3 * x4 + x4 * x4
                    if n <= n_max:
                        for i, t in enumerate(MOMENT_ORDERS):
                            rows[t][n] += powers[i]
    return rows


def moment_product(k: int, t: int, precision: int) -> tuple[int, ...]:
    """M_t(k) as the one-block moment row times theta^(k-1): one series product for k > 1."""
    row = _f1_moment_rows(precision)[t].coeffs
    if k > 1:
        row = (QSeries._trusted(row) * theta_series(k - 1, precision)).coeffs
    return row


def eta_spec(*factors: tuple[int, int]) -> EtaQuotientSpec:
    """prod(eta(m z)^e) over the (m, e) pairs given."""
    return EtaQuotientSpec(tuple(factors))


def delta_7_3_eisenstein_eta(precision: int) -> QSeries:
    """(E_4(z) - E_4(3z)) eta(z)^9 / eta(3z)^3, 240 times the weight-7 newform, from an Eisenstein difference."""
    # The Eisenstein difference starts at 240q, so the product is 240 times
    # the normalized newform (first coefficient 1); the check below fails
    # hard if that normalization is ever off.
    e4 = eisenstein_classical(4, precision)
    series = (e4 - e4.scale_argument(3)) * eta_quotient(eta_spec((1, 9), (3, -3)), precision)
    if precision >= 1 and series.coefficient(1) != 240:
        raise AssertionError(
            f"normalization failure: leading coefficient {series.coefficient(1)} != 240"
        )
    return series


def delta_8_3_eta_sum(precision: int) -> QSeries:
    """The weight-8 newform as a sum of three quotients of eta(z), eta(3z) and eta(9z)."""
    return (
        eta_quotient(eta_spec((1, 12), (3, 4)), precision)
        + 81 * eta_quotient(eta_spec((1, 6), (3, 4), (9, 6)), precision)
        + 18 * eta_quotient(eta_spec((1, 9), (3, 4), (9, 3)), precision)
    )


def s2k_direct_recursive(k: int, n: int) -> int:
    """Count solutions of F_k = n by explicit coordinate recursion over blocks.

    Enumerates the (x, y) pairs of each block with pruning; only usable for
    small n, but fully independent of the series convolution path.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    pairs = []  # the value of each (x, y) of one block, when it is <= n
    bound = isqrt(4 * n // 3) + 1
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            v = x * x + x * y + y * y
            if v <= n:
                pairs.append(v)

    def count(block: int, remaining: int) -> int:
        if block == k:
            return 1 if remaining == 0 else 0
        return sum(count(block + 1, remaining - v) for v in pairs if v <= remaining)

    return count(0, n)


def mul_schoolbook(a, b) -> list:
    """Product of two coefficient sequences by the double loop, truncated at the shorter one; a zero a[i] is skipped."""
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        if a[i]:
            for j in range(n + 1 - i):
                out[i + j] += a[i] * b[j]
    return out


#: the Mersenne prime 2^61 - 1, the modulus of product_at_point
P61 = 2**61 - 1


def product_at_point(a, b, c, r: int, p: int = P61) -> bool:
    """Whether c = a * b mod q^(n+1), n = len(c) - 1, holds at q = r mod the prime p, in O(n).

    sum c_k r^k must equal sum a_i r^i B_(n-i), B_m = sum(b_j r^j, j <= m)
    the prefix sums of b at r, for int sequences.  A wrong c passes at a
    random r with probability at most n / p (Schwartz, J. ACM 27, 1980).
    """
    n = len(c) - 1
    prefix, acc, power = [], 0, 1
    for bj in b[: n + 1]:
        acc = (acc + bj * power) % p
        prefix.append(acc)
        power = power * r % p
    lhs = 0
    for ck in reversed(c):
        lhs = (lhs * r + ck) % p
    rhs, power = 0, 1
    for i, ai in enumerate(a[: n + 1]):
        rhs = (rhs + ai * power * prefix[n - i]) % p
        power = power * r % p
    return lhs == rhs


def _integral(values) -> tuple[list, int]:
    """Integers v * d for the int or Fraction values v, d the lcm of their denominators; any other type is a TypeError."""
    for kind in set(map(type, values)):
        if kind is bool or not issubclass(kind, (int, Fraction)):
            raise TypeError(f"coefficients must be int or Fraction, got {kind.__name__}")
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def linear_combination(*terms) -> tuple:
    """sum(c * s) over the (c, s) terms, truncated at the shortest s: the oracle of ``identities.combine``.

    Each c is an int or Fraction, each s a table of them (a tuple) or a
    series; a float or bool in either place is a TypeError.  Every term is
    cleared of denominators and the sum is taken in int arithmetic over one
    common denominator; a coefficient comes back as an int where that
    denominator divides it, else as a Fraction.
    """
    tables = [s.coeffs if isinstance(s, QSeries) else s for _, s in terms]
    n = min(map(len, tables)) - 1
    parts = []
    for (c, _), table in zip(terms, tables):
        ints, d = _integral(table[: n + 1])
        (p,), q = _integral((c,))  # c = p / q, its type checked as a table entry is
        parts.append((p, q * d, ints))
    den = lcm(*(q for _, q, _ in parts))
    total = [0] * (n + 1)
    for p, q, ints in parts:
        total = [t + p * (den // q) * v for t, v in zip(total, ints)]
    return tuple(Fraction(t, den) if t % den else t // den for t in total)


def invert_dense(a) -> list:
    """1 / a by b_0 = 1/a_0, b_n = -(1/a_0) sum(a_i b_(n-i), 1 <= i <= n), summing over every i."""
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for m in range(1, len(a)):
        out.append(-inv0 * sum(a[i] * out[m - i] for i in range(1, m + 1)))
    return [v.numerator if v.denominator == 1 else v for v in out]


#: The finite-sum catalog as printed: (name, weight, blocks, terms), terms as (x1 power t, polynomial in n from
#: degree 0 upward).  These are the claims the catalog's zonal rule must reproduce, coefficient by coefficient.
LOMADZE_CLAIMS = (
    # weight-7/9/11 companion sums over F_3, F_5, F_7
    ("L_7_3", 7, 3, ((4, (15,)), (2, (0, -12)), (0, (0, 0, 1)))),
    ("L_9_5", 9, 5, ((4, (63,)), (2, (0, -36)), (0, (0, 0, 2)))),
    ("L_11_7", 11, 7, ((4, (54,)), (2, (0, -24)), (0, (0, 0, 1)))),
    # low-weight sums feeding the newform coefficient identities
    ("L_6_2", 6, 2, ((4, (9,)), (2, (0, -9)), (0, (0, 0, 1)))),
    ("L_8_4", 8, 4, ((4, (45,)), (2, (0, -30)), (0, (0, 0, 2)))),
    # corrected x1^2 coefficient: -21n (an often-miscopied 27 gives wrong values)
    ("L_10_6", 10, 6, ((4, (42,)), (2, (0, -21)), (0, (0, 0, 1)))),
    # the 24-variable formula's sums
    ("L_12_8", 12, 8, ((4, (135,)), (2, (0, -54)), (0, (0, 0, 2)))),
    ("L_12_6", 12, 6, ((6, (162,)), (4, (0, -162)), (2, (0, 0, 36)), (0, (0, 0, 0, -1)))),
    ("L_12_4", 12, 4, ((8, (1215,)), (6, (0, -2268)), (4, (0, 0, 1260)), (2, (0, 0, 0, -210)), (0, (0, 0, 0, 0, 5)))),
    # combined F_4 sum 135*L_12_4 - 4121*L_8_4, as displayed in the tau formula
    (
        "Lcal_4",
        12,
        4,
        (
            (8, (164025,)),
            (6, (0, -306180)),
            (4, (-185445, 0, 170100)),
            (2, (0, 123630, 0, -28350)),
            (0, (0, 0, -8242, 0, 675)),
        ),
    ),
    # the 28-variable formula's sums
    ("L_14_10", 14, 10, ((4, (99,)), (2, (0, -33)), (0, (0, 0, 1)))),
    ("L_14_8", 14, 8, ((6, (594,)), (4, (0, -495)), (2, (0, 0, 90)), (0, (0, 0, 0, -2)))),
    ("L_14_6", 14, 6, ((8, (8019,)), (6, (0, -12474)), (4, (0, 0, 5670)), (2, (0, 0, 0, -756)), (0, (0, 0, 0, 0, 14)))),
)

LOMADZE_CLAIM = {claim[0]: claim for claim in LOMADZE_CLAIMS}


def lomadze_term(name: str, t: int, n: int) -> int:
    """The printed polynomial in n that multiplies x1^t in a catalog sum, evaluated at n (0 for a missing t)."""
    for power, poly in LOMADZE_CLAIM[name][3]:
        if power == t:
            return sum(c * n**i for i, c in enumerate(poly))
    return 0


def lomadze_values_per_coefficient(name: str, precision: int) -> tuple[int, ...]:
    """A printed catalog sum's values L(0..precision), one list pass per coefficient of each polynomial in n.

    Every term reads its own moment row, the one-block row times theta^(k-1)
    (``moment_product``), orders 0 and 2 included.
    """
    _, _, blocks, terms = LOMADZE_CLAIM[name]
    values = [0] * (precision + 1)
    for t, poly in terms:
        row = moment_product(blocks, t, precision)
        for c in poly:  # c n^i M_t(n) for i = 0, 1, ...: row holds n^i M_t(n)
            if c:
                values = [s + c * v for s, v in zip(values, row)]
            row = [n * v for n, v in enumerate(row)]
    return tuple(values)


def laplacian_in_x1_and_norm(blocks: int, terms) -> dict[tuple[int, int], Fraction]:
    """The Laplacian of P = sum_t poly_t(n) x1^t on Z^(2 blocks), n = F_blocks(x), as {(x1 power, n power): coefficient}.

    The Laplacian of the form with Gram matrix A is sum(A^-1_ij d_i d_j); A^-1_11 = 4/3 for
    x^2 + xy + y^2, and with u = x1, v = n: |grad u|^2 = 4/3, <grad u, grad v> = 2u, |grad v|^2 = 4v
    and the Laplacian of v is 4 blocks, so P(u, v) maps to (4/3) P_uu + 4u P_uv + 4v P_vv + 4 blocks P_v.
    P is harmonic exactly when every coefficient is 0 (absent).
    """
    out: dict[tuple[int, int], Fraction] = {}

    def add(a: int, b: int, c) -> None:
        if c:
            out[(a, b)] = out.get((a, b), 0) + c

    for a, poly in terms:
        for b, c in enumerate(poly):  # the monomial c u^a v^b
            add(a - 2, b, Fraction(4, 3) * c * a * (a - 1))
            add(a, b - 1, 4 * c * a * b + 4 * c * b * (b - 1) + 4 * blocks * c * b)
    return {key: c for key, c in out.items() if c}


def bernoulli_polynomial(k: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_k(x) = sum(C(k, j) * B_j * x^(k-j))."""
    x = Fraction(x)
    return sum(
        (comb(k, j) * bernoulli(j) * x ** (k - j) for j in range(k + 1)),
        Fraction(0),
    )


def bernoulli_generalized_at_fractions(k: int, psi) -> Fraction:
    """B_(k,psi) = f^(k-1) * sum(psi(a) * B_k(a/f), 1 <= a <= f), the polynomial evaluated at Fraction points."""
    f = psi.conductor
    total = sum(
        (psi(a) * bernoulli_polynomial(k, Fraction(a, f)) for a in range(1, f + 1)),
        Fraction(0),
    )
    return Fraction(f) ** (k - 1) * total


#: sigma_r(0), the constant terms of the Eisenstein series E_2, E_4, E_6, E_8 scaled to sigma_r.
SIGMA_AT_ZERO = {1: Fraction(-1, 24), 3: Fraction(1, 240), 5: Fraction(-1, 504), 7: Fraction(1, 480)}


def conv_direct(power: int, x, n: int, with_zero: bool = False, scale: int = 1):
    """sum(sigma_power(a) * x[n - scale*a]) over a >= 1 with n - scale*a >= 1, one n at a time.

    Divisor sums by trial division over every d <= a; with_zero adds the
    a = 0 term sigma_power(0) * x[n].
    """
    total = 0
    for a in range(1, (n - 1) // scale + 1):
        total += sum(d**power for d in range(1, a + 1) if a % d == 0) * x[n - scale * a]
    if with_zero:
        total += SIGMA_AT_ZERO[power] * x[n]
    return total


def sigma_table_sieve(r: int, chi: DirichletCharacter, psi: DirichletCharacter, precision: int) -> tuple[int, ...]:
    """sigma_twisted(r, chi, psi, n) for n = 0..precision (0 at n = 0), by one sieve over d.

    Each d adds psi(d) d^r chi(m) at n = d m; the multiples m with one
    residue mod the conductor of chi lie on one arithmetic progression.
    """
    out = [0] * (precision + 1)
    f = chi.conductor
    for d in range(1, precision + 1):
        if w := psi(d) * d**r:
            for a, v in enumerate(chi.values):  # chi(m) = v for the m = a mod f
                if v:
                    vw = v * w
                    for n in range((a or f) * d, precision + 1, f * d):
                        out[n] += vw
    return tuple(out)


def catalog_values(name: str, N: int) -> tuple:
    """The coefficients 0..N of a catalog cusp form or a catalog finite sum, read from forms and lattice."""
    return named_form(name, N).series.coeffs if name in CATALOG_NAMES else lomadze_values(name, N)


@functools.cache
def _sigma_sieved(power: int, N: int) -> tuple[int, ...]:
    return sigma_table_sieve(power, CHI_TRIVIAL, CHI_TRIVIAL, N)


def conv_entry(power: int, name: str, N: int, n: int, with_zero: bool = False, scale: int = 1):
    """sum(sigma_power(a) * x[n - scale*a]) over a >= 1 with n - scale*a >= 1, as one O(n) sum over the sieved sigma table.

    x is the catalog sequence at precision N; with_zero adds the a = 0 term
    sigma_power(0) * x[n].
    """
    x, sigmas = catalog_values(name, N), _sigma_sieved(power, N)
    total = sum(sigmas[a] * x[n - scale * a] for a in range(1, (n - 1) // scale + 1))
    return total + SIGMA_AT_ZERO[power] * x[n] if with_zero else total


def eisenstein_times_form(k: int, name: str, precision: int) -> QSeries:
    """E_k times a catalog form, as the series product of the two."""
    return eisenstein_classical(k, precision) * named_form(name, precision).series


def quasimodular_combination(precision: int) -> QSeries:
    """(3 E_2(3z) - E_2(z)) * delta, twice the weight-14 cusp expansion, by one series product."""
    e2 = eisenstein_classical(2, precision)
    delta = eta_quotient(eta_spec((1, 24)), precision)
    return (3 * e2.scale_argument(3) - e2) * delta


def eisenstein_classical_rational(k: int, precision: int) -> list:
    """1 - (2k/B_k) sum(sigma_(k-1)(n) q^n) for any even k >= 2, by trial-division divisor sums: ints and Fractions."""
    factor = Fraction(-2 * k) / bernoulli(k)
    return [1] + [factor * sigma_twisted(k - 1, CHI_TRIVIAL, CHI_TRIVIAL, n) for n in range(1, precision + 1)]


def eisenstein_twisted_rational(k: int, chi, psi, precision: int) -> list:
    """The twisted Eisenstein series of weight k, its constant term -B_(k,psi)/(2k) (0 when chi has conductor > 1) a Fraction."""
    c0 = 0 if chi.conductor > 1 else -bernoulli_generalized_at_fractions(k, psi) / (2 * k)
    return [Fraction(c0)] + [sigma_twisted(k - 1, chi, psi, n) for n in range(1, precision + 1)]


def euler_product_direct(scale: int, precision: int) -> list[int]:
    """prod(1 - q^(scale*j), j >= 1) up to q^precision, one factor at a time in place."""
    coeffs = [0] * (precision + 1)
    coeffs[0] = 1
    for m in range(scale, precision + 1, scale):
        for i in range(precision, m - 1, -1):
            coeffs[i] -= coeffs[i - m]
    return coeffs


# -- the per-n formulas, one n at a time in Fraction arithmetic ---------------
#
# Each body evaluates its formula at one n: trial-division divisor sums
# from `arith`, the cusp, finite-sum and convolution tables read at n, and
# the printed constants in Fraction arithmetic.


def s24_direct(n: int, N: int):
    return (
        Fraction(6552, 73 * 691) * sigma_star(11, n)
        + Fraction(29824, 691) * catalog_values("delta", N)[n]
        + Fraction(240 * 1186848, 50443) * conv_entry(3, "delta_8_3", N, n, with_zero=True)
        - Fraction(504 * 261344, 50443) * conv_entry(5, "delta_6_3", N, n, with_zero=True)
    )


def s28_direct(n: int, N: int):
    return (
        Fraction(12, 1093) * sigma_star(13, n)
        + Fraction(107264, 1093) * catalog_values("delta", N)[n]
        + Fraction(107264 * 12, 1093) * (conv_entry(1, "delta", N, n) - 3 * conv_entry(1, "delta", N, n, scale=3))
        + Fraction(12448 * 504, 1093) * conv_entry(5, "delta_8_3", N, n, with_zero=True)
        - Fraction(3016 * 480, 1093) * conv_entry(7, "delta_6_3", N, n, with_zero=True)
    )


def lomadze_s24_direct(n: int, N: int):
    return Fraction(1, 73 * 691) * (
        6552 * sigma_star(11, n)
        + Fraction(291096, 35) * catalog_values("L_12_8", N)[n]
        + 864 * catalog_values("L_12_6", N)[n]
        + 360 * catalog_values("L_12_4", N)[n]
    )


def lomadze_s28_direct(n: int, N: int):
    return (
        Fraction(12, 1093) * sigma_star(13, n)
        + Fraction(188954, 803355) * catalog_values("L_14_10", N)[n]
        + Fraction(1728, 267785) * catalog_values("L_14_8", N)[n]
        + Fraction(288, 191275) * catalog_values("L_14_6", N)[n]
    )


def tau_direct(n: int, N: int):
    inner = (
        Fraction(36387, 35) * catalog_values("L_12_8", N)[n]
        + 108 * catalog_values("L_12_6", N)[n]
        + Fraction(1, 3) * catalog_values("Lcal_4", N)[n]
        - Fraction(32668, 12) * catalog_values("L_6_2", N)[n]
        - 329680 * conv_entry(3, "L_8_4", N, n)
        + 1372056 * conv_entry(5, "L_6_2", N, n)
    )
    return Fraction(1, 73 * 3728) * inner


def _cusp_part_direct(k: int, n: int, N: int):
    return sum(c * catalog_values(name, N)[n] for c, name, _, _ in WEIGHTS[k][2])


def theorem_direct(k: int, n: int, N: int):
    return WEIGHTS[k][0] / 3 ** ((k - 1) // 2) * rho_star(k - 1, n) + _cusp_part_direct(k, n, N)


def s2k_odd_direct(k: int, n: int, N: int):
    """a sigma(chi3, 1) + b sigma(1, chi3) + cusp part, for the odd k of WEIGHTS."""
    a, b, _ = WEIGHTS[k]
    return (
        a * sigma_twisted(k - 1, CHI3, CHI_TRIVIAL, n)
        + b * sigma_twisted(k - 1, CHI_TRIVIAL, CHI3, n)
        + _cusp_part_direct(k, n, N)
    )


#: The per-n oracle of the lhs table of each s_2k formula and of tau-eq, by ``identities.SIDES`` name.
FORMULAS_DIRECT = {
    "s14-theorem": lambda n, N: theorem_direct(7, n, N),
    "s18-theorem": lambda n, N: theorem_direct(9, n, N),
    "s22-theorem": lambda n, N: theorem_direct(11, n, N),
    "s24-formula": s24_direct,
    "s28-formula": s28_direct,
    "lomadze-s24": lomadze_s24_direct,
    "lomadze-s28": lomadze_s28_direct,
    "tau-eq": tau_direct,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser hexrep's command line had; the test oracle of ``cli.parse_args``."""
    parser = argparse.ArgumentParser(
        prog="hexrep",
        description=(
            "Exact representation numbers of the block forms "
            "x1^2 + x1 x2 + x2^2 + ... and verification of their closed-form "
            "identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("json", "csv", "table"),
            default="table",
            help="output format (default: table)",
        )
        p.add_argument(
            "--precision",
            type=int,
            default=None,
            help=f"working series precision (default: {cli.DEFAULT_PRECISION}, or enough to cover --n)",
        )

    p_s2k = sub.add_parser("s2k", help="representation numbers s_2k(n)")
    p_s2k.add_argument("--k", type=int, required=True, help="number of two-variable blocks")
    p_s2k.add_argument("--n", required=True, help="index n or inclusive range a..b")
    p_s2k.add_argument(
        "--method",
        choices=("bruteforce", "formula", "decomposition"),
        default="bruteforce",
        help="bruteforce: theta power; formula: per-n divisor-sum formula; "
        "decomposition: basis-combination series",
    )
    add_common(p_s2k)
    p_s2k.set_defaults(func=cli._cmd_s2k)

    p_tau = sub.add_parser("tau", help="Ramanujan tau values")
    p_tau.add_argument("--n", required=True, help="index n or inclusive range a..b")
    p_tau.add_argument(
        "--method",
        choices=("eta", "paper-formula"),
        default="eta",
        help="eta: 24th power of the eta series; paper-formula: the "
        "closed-form lattice-sum expression",
    )
    add_common(p_tau)
    p_tau.set_defaults(func=cli._cmd_tau)

    p_lsum = sub.add_parser("lsum", help="finite lattice sums from the catalog")
    p_lsum.add_argument("name", help="catalog name, e.g. L_6_2")
    p_lsum.add_argument("--n", required=True, help="index n or inclusive range a..b")
    add_common(p_lsum)
    p_lsum.set_defaults(func=cli._cmd_lsum)

    p_verify = sub.add_parser("verify", help="run the identity checks")
    p_verify.add_argument("--all", action="store_true", help="check every identity")
    p_verify.add_argument(
        "--identity",
        action="append",
        metavar="NAME",
        help=f"check one identity (repeatable); known: {', '.join(cli.IDENTITY_NAMES)}",
    )
    p_verify.add_argument("--nmax", type=int, required=True, help="check n = 1..nmax")
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="fail on documented discrepancies too",
    )
    add_common(p_verify)
    p_verify.set_defaults(func=cli._cmd_verify)

    return parser


def encode_value(v):
    """A value for output: an int, or a p/q string for a Fraction that is not integral."""
    if type(v) is Fraction:
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def print_values_per_row(rows, fmt, out):
    """The value writer hexrep had: one ``print`` per row, each value through ``encode_value``."""
    if fmt == "json":
        print(json.dumps([{"n": n, "value": encode_value(v)} for n, v in rows]), file=out)
    elif fmt == "csv":
        print("n,value", file=out)
        for n, v in rows:
            print(f"{n},{encode_value(v)}", file=out)
    else:
        width = max((len(str(n)) for n, _ in rows), default=1)
        for n, v in rows:
            print(f"{n:>{width}}  {encode_value(v)}", file=out)


def print_verify_table_per_line(reports, passed, strict, out):
    """The verify table writer hexrep had: one ``print`` per line, each value through ``encode_value``."""
    for r in reports:
        tag = " [documented]" if r.name in DOCUMENTED_DISCREPANCIES else ""
        if r.all_match:
            print(f"{r.name}: ok (n=1..{r.n_max}){tag}", file=out)
        else:
            n, lhs, rhs = r.first_mismatch
            more = len(r.mismatches) - 1
            extra = f" (+{more} more)" if more else ""
            print(f"{r.name}: MISMATCH at n={n}: lhs={encode_value(lhs)} rhs={encode_value(rhs)}{extra}{tag}", file=out)
        if r.constant_term is not None and not r.constant_term_matches:
            lhs0, rhs0 = r.constant_term
            print(f"  constant term: {encode_value(lhs0)} vs {encode_value(rhs0)} (informational; the identity covers n >= 1)", file=out)
        if r.note:
            print(f"  note: {r.note}", file=out)
    verdict = "PASS" if passed else "FAIL"
    print(f"verification: {verdict} ({len(reports)} identities, strict={strict})", file=out)


def print_verify_csv_per_row(reports, out):
    """The verify CSV writer hexrep had: one ``print`` per line, each value through ``encode_value``."""
    for r in reports:
        print(f"# identity: {r.name}", file=out)
        print("n,lhs,rhs,match", file=out)
        for n, lhs, rhs in r.entries:
            print(f"{n},{encode_value(lhs)},{encode_value(rhs)},{lhs == rhs}", file=out)


def report_json_dict(report) -> dict:
    """A report as the JSON object of the verify command: name, n_max, status, mismatches, then constant_term and note when set."""
    out = {
        "name": report.name,
        "n_max": report.n_max,
        "status": report.status,
        "mismatches": [{"n": n, "lhs": encode_value(l), "rhs": encode_value(r)} for n, l, r in report.mismatches],
    }
    if report.constant_term is not None:
        out["constant_term"] = {
            "lhs": encode_value(report.constant_term[0]),
            "rhs": encode_value(report.constant_term[1]),
            "match": report.constant_term_matches,
        }
    if report.note:
        out["note"] = report.note
    return out


def print_verify_json_dumps(reports, out):
    """The verify JSON writer hexrep had: ``json.dumps`` of every ``report_json_dict``, indent 2."""
    out.write(json.dumps([report_json_dict(r) for r in reports], indent=2) + "\n")
