"""q-expansions of eta quotients, Eisenstein series, and the named forms catalog.

Everything is produced as a QSeries at an explicitly requested precision;
there is no global precision state.  Constructors are pure; the Eisenstein
series and the catalog forms are memoized, one grow-only entry per argument
set (``series.grow_only``).  The catalog's level-3 eta quotients are products
of the divisor-sum series b^3 = eta(z)^9/eta(3z)^3 and c' = eta(3z)^9/eta(z)^3,
memoized too, so each feeds its two products one kernel operand:
delta_6_3 = c' b^3, delta_9_3_1 = c'^2 b^3 and delta_9_3_2 = c' b^6; delta is
q (eta^3)^8 from Jacobi's cube.  ``eta_quotient`` is the general constructor.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from math import isqrt
from operator import mul

from .arith import (
    CHI3,
    CHI_TRIVIAL,
    DirichletCharacter,
    bernoulli,
    bernoulli_generalized,
    sigma_table,
)
from .lattice import theta_series
from .series import QSeries, grow_only


class NonIntegralExponent(ValueError):
    """Eta quotient whose total q-exponent is not an integer multiple of 24."""


class ParityMismatch(ValueError):
    """Character parity incompatible with the requested weight."""


class UnknownForm(ValueError):
    """Name not present in the forms catalog."""


class EtaQuotientSpec(namedtuple("EtaQuotientSpec", "factors")):
    """A finite product of eta(m z)^e factors, given as (scale m, exponent e) pairs.

    Each eta factor contributes a fractional leading power q^(m*e/24); only
    quotients whose total sum(m*e) is divisible by 24 are admitted, so the
    result is an honest power series.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        for m, _ in spec.factors:
            if m < 1:
                raise ValueError("eta argument scales must be positive")
        return spec

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the scales too
        return cls(*iterable)

    def leading_exponent(self) -> int:
        total = sum(m * e for m, e in self.factors)
        if total % 24:
            raise NonIntegralExponent(
                f"total q-exponent {total}/24 of {self.factors} is not an integer"
            )
        lead = total // 24
        if lead < 0:
            raise ValueError("quotients with a pole at q = 0 are not supported")
        return lead


def _euler_core(precision: int) -> QSeries:
    """prod(1 - q^j, j >= 1) truncated at the working precision.

    By Euler's pentagonal number theorem the product is
    sum((-1)^k q^(k(3k-1)/2)) over all integers k.
    """
    coeffs = [0] * (precision + 1)
    bound = isqrt(precision)  # k(3k-1)/2 >= k^2
    for k in range(-bound, bound + 1):
        if (e := k * (3 * k - 1) // 2) <= precision:
            coeffs[e] = -1 if k % 2 else 1
    return QSeries._trusted(tuple(coeffs))


def _jacobi_cube(precision: int) -> tuple[int, ...]:
    """prod(1 - q^j, j >= 1)^3 truncated at the working precision.

    By Jacobi's identity eta(z)^3 = sum((-1)^k (2k+1) q^((2k+1)^2 / 8), k >= 0),
    so the product is sum((-1)^k (2k+1) q^(k(k+1)/2)).
    """
    coeffs = [0] * (precision + 1)
    for k in range((isqrt(8 * precision + 1) + 1) // 2):  # k(k+1)/2 <= precision
        coeffs[k * (k + 1) // 2] = -2 * k - 1 if k % 2 else 2 * k + 1
    return tuple(coeffs)


def eta_quotient(spec: EtaQuotientSpec, precision: int) -> QSeries:
    """Expand prod(eta(m z)^e) as a power series up to q^precision.

    Each factor is the |e|-th power of the core at precision // m (e < 0:
    of its inverse), spread to the powers of q^m.  The catalog reads its
    eta quotients off b^3 and c' instead; this is the general constructor.
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    lead = spec.leading_exponent()
    powers = []
    for m, e in spec.factors:
        core = _euler_core(precision // m)
        coeffs = [0] * (precision + 1)
        coeffs[::m] = ((core if e >= 0 else core.invert()) ** abs(e)).coeffs
        powers.append(QSeries._trusted(tuple(coeffs)))
    return reduce(mul, powers or [QSeries.one(precision)]).shift(lead)


@grow_only(QSeries.truncate)
def _b_cube(precision: int) -> QSeries:
    """b^3 = eta(z)^9 / eta(3z)^3 = 1 - 9 sum(sigma_(2; 1, chi_-3)(n) q^n)
    (Borwein, Borwein and Garvan, Trans. AMS 343, 1994; theta^3 = b^3 + 27 c')."""
    return -9 * QSeries._trusted(sigma_table(2, CHI_TRIVIAL, CHI3, precision)) + 1


@grow_only(QSeries.truncate)
def _c_prime(precision: int) -> QSeries:
    """c' = eta(3z)^9 / eta(z)^3 = sum(sigma_(2; chi_-3, 1)(n) q^n)."""
    return QSeries._trusted(sigma_table(2, CHI3, CHI_TRIVIAL, precision))


#: the even k whose -2k/B_k is an integer: past k = 14 the numerator of B_k does not divide 2k
_INTEGRAL_WEIGHTS = (2, 4, 6, 8, 10, 14)


@grow_only(QSeries.truncate)
def eisenstein_classical(k: int, precision: int) -> QSeries:
    """Normalized Eisenstein series 1 - (2k/B_k) * sum(sigma_(k-1)(n) q^n), k in _INTEGRAL_WEIGHTS.

    k = 2 is admitted (the quasimodular series 1 - 24 sum(sigma(n) q^n)); any other k is a ValueError.
    """
    if k not in _INTEGRAL_WEIGHTS:
        raise ValueError(f"E_{k} has integer coefficients only at k = {', '.join(map(str, _INTEGRAL_WEIGHTS))}")
    factor = (-2 * k / bernoulli(k)).numerator  # its denominator is 1 at these weights
    return factor * QSeries._trusted(sigma_table(k - 1, CHI_TRIVIAL, CHI_TRIVIAL, precision)) + 1


def eisenstein_twisted(
    k: int,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    precision: int,
) -> QSeries:
    """Character-twisted Eisenstein series with coefficients sigma_(k-1; chi, psi)(n).

    The constant term is 0 when chi has conductor > 1 and -B_(k,psi) / (2k),
    a ValueError unless an integer, when chi is the conductor-1 character.
    """
    if not isinstance(k, int) or k <= 2:
        raise ValueError("weight must be an integer > 2")
    if chi(-1) * psi(-1) != (-1) ** k:
        raise ParityMismatch(
            f"chi(-1)*psi(-1) must equal (-1)^{k} for weight {k}"
        )
    if chi.conductor == 1 and psi.conductor == 1:
        raise ValueError("both characters trivial: use eisenstein_classical")
    c0 = 0 if chi.conductor > 1 else -bernoulli_generalized(k, psi) / (2 * k)
    if c0.denominator != 1:
        raise ValueError(f"constant term {c0} of the weight-{k} series is not an integer")
    return QSeries._trusted((c0.numerator,) + sigma_table(k - 1, chi, psi, precision)[1:])


class NamedForm(namedtuple("NamedForm", "name weight level character series")):
    __slots__ = ()

    def truncate(self, precision: int) -> "NamedForm":
        return self._replace(series=self.series.truncate(precision))


def _build_delta_7_3(precision: int) -> QSeries:
    """delta_6_3 * theta.  S_7(Gamma0(3), chi_-3) = delta_6_3 M_1 and M_1 is spanned
    by theta, so S_7 is one-dimensional and this q + O(q^2) is its newform."""
    return named_form("delta_6_3", precision).series * theta_series(1, precision)


def _build_delta_8_3(precision: int) -> QSeries:
    """delta_6_3 * theta^2.  S_8(Gamma0(3)) = delta_6_3 M_2 and M_2 is spanned by
    theta^2, so S_8 is one-dimensional and this q + O(q^2) is its newform."""
    return named_form("delta_6_3", precision).series * theta_series(2, precision)


_CATALOG = {
    # name: (weight, level, character, builder)
    "delta": (12, 1, CHI_TRIVIAL, lambda N: (QSeries._trusted(_jacobi_cube(N)) ** 8).shift(1)),
    "delta_6_3": (6, 3, CHI_TRIVIAL, lambda N: _c_prime(N) * _b_cube(N)),
    "delta_8_3": (8, 3, CHI_TRIVIAL, _build_delta_8_3),
    "delta_7_3": (7, 3, CHI3, _build_delta_7_3),
    "delta_9_3_1": (9, 3, CHI3, lambda N: _c_prime(N) * named_form("delta_6_3", N).series),
    "delta_9_3_2": (9, 3, CHI3, lambda N: named_form("delta_6_3", N).series * _b_cube(N)),
    "delta_11_3_1": (11, 3, CHI3, lambda N: eisenstein_classical(4, N) * named_form("delta_7_3", N).series),
    "delta_11_3_2": (11, 3, CHI3, lambda N: eisenstein_classical(4, N).scale_argument(3) * named_form("delta_7_3", N).series),
}

CATALOG_NAMES = tuple(_CATALOG)

#: Catalog forms that are normalized newforms (multiplicative coefficients).
NEWFORM_NAMES = ("delta", "delta_6_3", "delta_8_3", "delta_7_3")


@grow_only(NamedForm.truncate)
def named_form(name: str, precision: int) -> NamedForm:
    """Construct a catalog form; every catalog entry is cuspidal."""
    try:
        weight, level, character, builder = _CATALOG[name]
    except KeyError:
        raise UnknownForm(
            f"unknown form {name!r}; catalog: {', '.join(CATALOG_NAMES)}"
        ) from None
    series = builder(precision)
    if series.coefficient(0) != 0:
        raise AssertionError(f"cusp form {name} has nonzero constant term")
    return NamedForm(name, weight, level, character, series)
