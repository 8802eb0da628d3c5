"""Number-theoretic scalar functions.

Dirichlet characters of conductor 1 and 3, power-of-divisor sums (plain,
twisted and starred) one n at a time or as multiplicative tables over n, and
Bernoulli numbers, plain and generalized.  All values are exact ints or
Fractions.
"""

from __future__ import annotations

import _thread
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from .series import grow_only, prefix


class DirichletCharacter(namedtuple("DirichletCharacter", "conductor values")):
    """A periodic completely multiplicative character given by its value table.

    ``values[r]`` is the character value at residues r mod ``conductor``; it
    vanishes exactly on arguments sharing a factor with the conductor.
    """

    __slots__ = ()

    def __call__(self, n: int) -> int:
        return self.values[n % self.conductor]

    def __repr__(self):
        return f"DirichletCharacter(conductor={self.conductor})"


#: The trivial character (constant 1).
CHI_TRIVIAL = DirichletCharacter(1, (1,))

#: The odd quadratic character of conductor 3, i.e. the Kronecker symbol (-3/.).
CHI3 = DirichletCharacter(3, (0, 1, -1))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n (n >= 1), by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def sigma(r: int, n: int) -> int:
    """Sum of the r-th powers of the positive divisors of n."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return sum(d**r for d in divisors(n))


def sigma_twisted(r: int, chi: DirichletCharacter, psi: DirichletCharacter, n: int) -> int:
    """Twisted divisor sum: sum of psi(d) * chi(n/d) * d^r over divisors d of n."""
    return sum(psi(d) * chi(n // d) * d**r for d in divisors(n))


@grow_only(prefix)
def sigma_table(r: int, chi: DirichletCharacter, psi: DirichletCharacter, precision: int) -> tuple[int, ...]:
    """sigma_twisted(r, chi, psi, n) for n = 0..precision (0 at n = 0), one product per n.

    f = sigma_(r; chi, psi) is multiplicative (Hardy and Wright, Thm 357):
    f(p^e) = chi(p) f(p^(e-1)) + psi(p^e) p^(er), and f(mn) = f(m) f(n) for
    coprime m and n, split off the power of the smallest prime factor.
    The characters are read from their value tables, without a call.
    """
    (f, chi_values), (g, psi_values) = chi, psi
    out = [0, 1][: precision + 1] + [0] * (precision - 1)
    spf = list(range(precision + 1))  # smallest prime factor: the last p to write n, for p^2 <= n
    for p in range(isqrt(precision), 1, -1):
        spf[p * p :: p] = [p] * ((precision - p * p) // p + 1)
    part = [1] * (precision + 1)  # the power of spf[n] that divides n
    for n in range(2, precision + 1):
        p = spf[n]
        m = n // p
        part[n] = q = part[m] * p if spf[m] == p else p
        out[n] = out[q] * out[n // q] if q < n else chi_values[p % f] * out[m] + psi_values[n % g] * n**r
    return tuple(out)


def rho_star(ell: int, n: int) -> int:
    """3^(ell/2) * sum of (chi3(n/d) + (-1)^(ell/2) * chi3(d)) * d^ell over d | n.

    ``ell`` must be a positive even integer.  This is the literal printed
    definition; it is inconsistent with the basis decompositions for at
    least some n (rho_star(6, 1) = 0 while the weight-7 decomposition needs
    26), which the verification harness quantifies rather than repairs.
    """
    if ell < 2 or ell % 2:
        raise ValueError("ell must be a positive even integer")
    sign = -1 if (ell // 2) % 2 else 1
    return 3 ** (ell // 2) * sum(
        (CHI3(n // d) + sign * CHI3(d)) * d**ell for d in divisors(n)
    )


def sigma_star(ell: int, n: int) -> int:
    """sigma_ell(n) + (-3)^((ell+1)/2) * sigma_ell(n/3), for odd ell.

    sigma_ell at a non-integral argument is taken to be 0, so the second
    term only contributes when 3 divides n.
    """
    if ell % 2 == 0:
        raise ValueError("ell must be odd")
    value = sigma(ell, n)
    if n % 3 == 0:
        value += (-3) ** ((ell + 1) // 2) * sigma(ell, n // 3)
    return value


def sigma_star_table(ell: int, precision: int) -> tuple[int, ...]:
    """sigma_star(ell, n) for n = 0..precision (0 at n = 0), from the sigma_ell table."""
    sigmas = sigma_table(ell, CHI_TRIVIAL, CHI_TRIVIAL, precision)
    c = (-3) ** ((ell + 1) // 2)
    out = list(sigmas)
    out[::3] = [v + c * w for v, w in zip(sigmas[::3], sigmas)]  # n = 3m gains c sigma_ell(m)
    return tuple(out)


def rho_star_table(ell: int, precision: int) -> tuple[int, ...]:
    """rho_star(ell, n) for n = 0..precision (0 at n = 0), from two twisted tables.

    rho*_ell = 3^(ell/2) (sigma_(ell; chi3, 1) + (-1)^(ell/2) sigma_(ell; 1, chi3)).
    """
    scale, sign = 3 ** (ell // 2), (-1) ** (ell // 2)
    twisted = zip(sigma_table(ell, CHI3, CHI_TRIVIAL, precision), sigma_table(ell, CHI_TRIVIAL, CHI3, precision))
    return tuple([scale * (a + sign * b) for a, b in twisted])


# -- Bernoulli numbers -----------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = _thread.allocate_lock()


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number for the generating function x/(e^x - 1), so B_1 = -1/2.

    Computed by the recurrence sum(C(m+1, j) * B_j, 0 <= j <= m) = 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= len(_BERNOULLI):
        with _BERNOULLI_LOCK:
            while len(_BERNOULLI) <= k:
                m = len(_BERNOULLI)
                acc = sum(comb(m + 1, j) * _BERNOULLI[j] for j in range(m))
                _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[k]


@lru_cache(maxsize=None)
def bernoulli_generalized(k: int, psi: DirichletCharacter) -> Fraction:
    """Generalized Bernoulli number B_(k,psi) for a character psi of conductor f.

    B_(k,psi) = f^(k-1) * sum(psi(a) * B_k(a/f), 1 <= a <= f), so expanding B_k(x),
    f B_(k,psi) = sum(C(k, j) f^j B_j S_(k-j), 0 <= j <= k) with S_m = sum(psi(a) a^m, 1 <= a <= f).
    For the trivial character of conductor 1 this reduces to B_k for k >= 2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    f = psi.conductor
    power_sums = [sum(psi(a) * a**m for a in range(1, f + 1)) for m in range(k + 1)]
    return sum(comb(k, j) * f**j * bernoulli(j) * power_sums[k - j] for j in range(k + 1)) / f
