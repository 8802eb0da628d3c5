"""Reference values for the benchmark, computed without importing hexrep.

Every table here comes from a route that shares no code with the package:

* s_2(n) = 6 * sum(chi_-3(d), d | n) by a divisor sieve, and s_2k as the
  k-th convolution power of that sequence;
* tau(n) from Euler's pentagonal series prod(1 - q^j) raised to the 24th
  power (Delta = q * prod(1 - q^j)^24);
* each catalog finite sum from a box enumeration of x^2 + xy + y^2 = n for
  the first block, convolved with s_2 of the remaining blocks;
* divisor sums sigma_r by a sieve, and the printed rho* by its definition.

The catalog below restates each finite sum as the polynomial in x1 and n
that it sums over the solutions of F_blocks(x) = n.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

# name: (blocks, {x1 power t: polynomial in n, coefficients from degree 0 up})
LATTICE_SUMS = {
    "L_6_2": (2, {4: (9,), 2: (0, -9), 0: (0, 0, 1)}),
    "L_7_3": (3, {4: (15,), 2: (0, -12), 0: (0, 0, 1)}),
    "L_8_4": (4, {4: (45,), 2: (0, -30), 0: (0, 0, 2)}),
    "L_9_5": (5, {4: (63,), 2: (0, -36), 0: (0, 0, 2)}),
    "L_10_6": (6, {4: (42,), 2: (0, -21), 0: (0, 0, 1)}),
    "L_11_7": (7, {4: (54,), 2: (0, -24), 0: (0, 0, 1)}),
    "L_12_8": (8, {4: (135,), 2: (0, -54), 0: (0, 0, 2)}),
    "L_12_6": (6, {6: (162,), 4: (0, -162), 2: (0, 0, 36), 0: (0, 0, 0, -1)}),
    "L_12_4": (
        4,
        {8: (1215,), 6: (0, -2268), 4: (0, 0, 1260), 2: (0, 0, 0, -210), 0: (0, 0, 0, 0, 5)},
    ),
    # 135 * L_12_4 - 4121 * L_8_4, written out as one sum over F_4
    "Lcal_4": (
        4,
        {
            8: (164025,),
            6: (0, -306180),
            4: (-185445, 0, 170100),
            2: (0, 123630, 0, -28350),
            0: (0, 0, -8242, 0, 675),
        },
    ),
    "L_14_10": (10, {4: (99,), 2: (0, -33), 0: (0, 0, 1)}),
    "L_14_8": (8, {6: (594,), 4: (0, -495), 2: (0, 0, 90), 0: (0, 0, 0, -2)}),
    "L_14_6": (
        6,
        {8: (8019,), 6: (0, -12474), 4: (0, 0, 5670), 2: (0, 0, 0, -756), 0: (0, 0, 0, 0, 14)},
    ),
}

MAX_BLOCKS = 14


def chi3(n: int) -> int:
    return (0, 1, -1)[n % 3]


def sieve_sigma(r: int, size: int, character=None) -> list[int]:
    """sum(character(d) * d^r, d | n) for 0 <= n <= size; index 0 holds 0."""
    table = [0] * (size + 1)
    for d in range(1, size + 1):
        term = d**r if character is None else character(d) * d**r
        if term:
            for m in range(d, size + 1, d):
                table[m] += term
    return table


def multiply(a: list, b: list, size: int) -> list:
    """Product of two power series, truncated after q^size."""
    out = [0] * (size + 1)
    for i in range(size + 1):
        ai = a[i]
        if ai:
            for j in range(size + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def convolve_sigma(r: int, sigmas: dict, seq, n: int, step: int = 1) -> int:
    """sum(sigma_r(a) * seq[n - step * a]) over a >= 1 with n - step * a >= 1."""
    table = sigmas[r]
    return sum(table[a] * seq[n - step * a] for a in range(1, (n - 1) // step + 1))


def _eval_poly(coeffs: tuple, n: int) -> int:
    return sum(c * n**i for i, c in enumerate(coeffs))


class Oracle:
    """Every reference table up to q^size."""

    def __init__(self, size: int):
        self.size = size
        sigma0_chi = sieve_sigma(0, size, chi3)
        s2 = [1] + [6 * v for v in sigma0_chi[1:]]
        self.s2k = [[1] + [0] * size, s2]
        for _ in range(2, MAX_BLOCKS + 1):
            self.s2k.append(multiply(self.s2k[-1], s2, size))

        pentagonal = [0] * (size + 1)
        k = 0
        while True:
            hits = [e for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if e <= size]
            if not hits:
                break
            for e in set(hits):
                pentagonal[e] = -1 if k % 2 else 1
            k += 1
        p2 = multiply(pentagonal, pentagonal, size)
        p8 = multiply(multiply(p2, p2, size), multiply(p2, p2, size), size)
        p24 = multiply(multiply(p8, p8, size), p8, size)
        self.tau = [0] + p24[:size]

        self.sigma = {r: sieve_sigma(r, size) for r in (1, 3, 5, 7, 11, 13)}

        bound = isqrt(4 * size // 3) + 1
        moments = {t: [0] * (size + 1) for t in (0, 2, 4, 6, 8)}
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                n = x * x + x * y + y * y
                if n <= size:
                    for t in moments:
                        moments[t][n] += x**t
        if moments[0] != s2:
            raise AssertionError("box enumeration disagrees with the divisor formula for s_2")
        self.lattice = {}
        #: (blocks, t): sum of x1^t over the solutions of F_blocks(x) = n
        self.block_moments: dict = {}
        for name, (blocks, terms) in LATTICE_SUMS.items():
            values = [0] * (size + 1)
            for t, poly in terms.items():
                key = (blocks, t)
                if key not in self.block_moments:
                    self.block_moments[key] = multiply(moments[t], self.s2k[blocks - 1], size)
                table = self.block_moments[key]
                for n in range(size + 1):
                    values[n] += _eval_poly(poly, n) * table[n]
            self.lattice[name] = values

    def rho_star(self, ell: int, n: int) -> int:
        """The printed definition 3^(ell/2) sum((chi(n/d) + (-1)^(ell/2) chi(d)) d^ell, d | n)."""
        sign = -1 if (ell // 2) % 2 else 1
        total = sum(
            (chi3(n // d) + sign * chi3(d)) * d**ell for d in range(1, n + 1) if n % d == 0
        )
        return 3 ** (ell // 2) * total

    def identity_sides(self, name: str, n: int):
        """Expected (lhs, rhs) at n of each identity that holds, or None if not covered."""
        s, tau, lat = self.s2k, self.tau, self.lattice
        if name.endswith("-decomposition"):
            k = int(name[1:].split("-")[0])
            return s[k][n], s[k][n]
        if name in ("s24-formula", "lomadze-s24"):
            return s[12][n], s[12][n]
        if name in ("s28-formula", "lomadze-s28"):
            return s[14][n], s[14][n]
        if name == "tau-eq":
            return tau[n], tau[n]
        if name == "ramanujan-convolution":
            return convolve_sigma(1, self.sigma, tau, n), Fraction((1 - n) * tau[n], 24)
        if name == "e2-delta-convolution":
            lhs = convolve_sigma(1, self.sigma, tau, n, step=3)
            return lhs, lhs
        if name == "s28-convolution":
            lhs = (
                73760 * convolve_sigma(7, self.sigma, lat["L_6_2"], n)
                - Fraction(194432, 3) * convolve_sigma(5, self.sigma, lat["L_8_4"], n)
                + 60336 * convolve_sigma(3, self.sigma, lat["L_10_6"], n)
            )
            rhs = (
                -Fraction(461, 3) * lat["L_6_2"][n]
                - Fraction(3472, 27) * lat["L_8_4"][n]
                - Fraction(1257, 5) * lat["L_10_6"][n]
                + Fraction(94477, 735) * lat["L_14_10"][n]
                + Fraction(864, 245) * lat["L_14_8"][n]
                + Fraction(144, 175) * lat["L_14_6"][n]
            )
            return lhs, rhs
        newform_rhs = {
            "newform-w6": lat["L_6_2"][n],
            "newform-w7": lat["L_7_3"][n],
            "newform-w8": lat["L_8_4"][n],
            "newform-w9": lat["L_9_5"][n],
            "newform-w11": 5 * lat["L_11_7"][n],
        }
        if name in newform_rhs:
            return newform_rhs[name], newform_rhs[name]
        if name == "newform-w10":
            return lat["L_10_6"][n] % 120, 0
        return None
