"""Lattice-point counting for the block forms F_k and the Lomadze finite sums.

F_k is the direct sum of k copies of the binary form x^2 + xy + y^2, so
its representation numbers s_2k(n) are coefficients of the k-th power of
the two-variable theta series, and every sum over the solution set that
only involves the first coordinate reduces to a convolution of the
one-block moment tables with s_2(k-1).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest
from math import isqrt
from operator import add, mul

from .series import DEFAULT_PRECISION, QSeries, grow_only, power_split, prefix

#: x1-power orders carried by the moment tables.  Odd orders vanish
#: identically (x -> -x is a solution-set involution negating x1).
MOMENT_ORDERS = (0, 2, 4, 6, 8)


class UnknownSum(ValueError):
    """Raised when a finite-sum name is not in the catalog."""


class MomentTable(namedtuple("MomentTable", "k t values")):
    """values[n] = sum of x1^t over all solutions of F_k(x) = n, 0 <= n <= precision."""

    __slots__ = ()

    @property
    def precision(self) -> int:
        return len(self.values) - 1

    def truncate(self, precision: int) -> "MomentTable":
        return self._replace(values=self.values[: precision + 1])


@grow_only(lambda rows, precision: {t: row.truncate(precision) for t, row in rows.items()})
def _f1_moment_rows(precision: int) -> dict[int, QSeries]:
    """One point per orbit of the form's 12 automorphisms: x >= y >= 0 with x^2 + xy + y^2 <= precision.

    The group is generated by (x, y) -> (-y, x + y) and (x, y) -> (y, x).  Over
    an orbit the first coordinate takes each of +-x, +-y and +-(x + y) twice,
    so row t gains 4(x^t + y^t + (x + y)^t), half that on a mirror y = 0 or
    y = x (an orbit of 6).  By Newton's identities for x, y and -(x + y), with
    n = x^2 + xy + y^2 and e = (xy(x + y))^2, rows 0..8 gain
    u(6, 4n, 4n^2, 4n^3 + 6e, 4n^4 + 16ne), u = 2 off the mirrors and 1 on them.
    Each row is a series, so the products of every k convert it once.
    """
    rows = r0, r2, r4, r6, r8 = [[0] * (precision + 1) for _ in MOMENT_ORDERS]
    r0[0] = 1
    for n, u, e in [(x * (x + y) + y * y, 1 + (x > y > 0), (x * y * (x + y)) ** 2) for y in range(isqrt(precision // 3) + 1)
                    for x in range(y or 1, (isqrt(4 * precision - 3 * y * y) - y) // 2 + 1)]:
        r0[n] += 6 * u
        r2[n] += (w := 4 * u * n)
        r4[n] += (w := w * n)
        r6[n] += (w := w * n) + 6 * u * e
        r8[n] += n * (w + 16 * u * e)
    return {t: QSeries._trusted(tuple(row)) for t, row in zip(MOMENT_ORDERS, rows)}


def enumerate_f1(precision: int) -> tuple[QSeries, dict[int, MomentTable]]:
    """Theta series of one block and its x1-power moment tables, up to q^precision."""
    rows = _f1_moment_rows(precision)
    return rows[0], {t: MomentTable(1, t, row.coeffs) for t, row in rows.items()}


@grow_only(QSeries.truncate)
def theta_series(k: int, precision: int) -> QSeries:
    """q-series whose n-th coefficient is s_2k(n), the representation count by F_k.

    theta^1 is the enumeration, theta^k the product of the powers of ``power_split(k)``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k < 2:
        return enumerate_f1(precision)[0] if k else QSeries.one(precision)
    h = power_split(k)
    low = theta_series(h, precision)
    return low * (low if 2 * h == k else theta_series(k - h, precision))


def s2k_bruteforce(k: int, precision: int) -> tuple[int, ...]:
    """Representation numbers s_2k(0..precision), from enumeration and series powers.

    This is the universal oracle every closed-form identity is checked
    against.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return theta_series(k, precision).coeffs


@grow_only(MomentTable.truncate)
def moment_table(k: int, t: int, precision: int) -> MomentTable:
    """M_t(k)(n) = sum of x1^t over F_k(x) = n, via the block convolution.

    M_t(k)(n) = sum(M_t(1)(a) * s_2(k-1)(n - a), 0 <= a <= n), the product
    of the one-block moment series with the theta series of F_(k-1), one
    path for every order (``lomadze_values`` reads orders 0 and 2 off s_2k).
    """
    if t not in MOMENT_ORDERS:
        raise ValueError(f"moment order must be one of {MOMENT_ORDERS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    row = _f1_moment_rows(precision)[t]
    if k > 1:
        row *= theta_series(k - 1, precision)
    return MomentTable(k, t, row.coeffs)


# -- the catalog of finite sums ---------------------------------------------


class LomadzeSumSpec(namedtuple("LomadzeSumSpec", "name weight blocks terms")):
    """A finite sum over solutions of F_blocks = n of a polynomial in x1 and n.

    ``terms`` lists (x1 power t, coefficient polynomial in n), the polynomial
    given by its integer coefficients from degree 0 upward, so the sum is
    sum over solutions of sum_t poly_t(n) * x1^t.  All x1 powers are even
    and at most 8.
    """

    __slots__ = ()


def _catalog(rows) -> dict[str, LomadzeSumSpec]:
    """Each row's spec by name, in row order.

    A row (name, weight, blocks, multiple) is multiple times the zonal harmonic
    sum Z(m, d), m = blocks and d = weight - m: the sum over F_m(x) = n of
    sum_j c_j n^j x1^(d-2j), where c_0 = multiple and
    c_(j+1) = -c_j 4(d-2j)(d-2j-1) / (6(j+1)(2m+2d-2j-4)) makes the polynomial
    harmonic (4/3 is the dual norm of x1 for x^2 + xy + y^2).  Each division
    must be exact: a multiple that leaves a coefficient fractional raises
    ValueError.  A row whose multiple is a {name: a} map is sum(a * spec) over
    earlier rows, term by term.
    """
    specs = {}
    for name, weight, blocks, multiple in rows:
        if isinstance(multiple, dict):
            terms = {}
            for part, a in multiple.items():
                for t, poly in specs[part].terms:
                    terms[t] = tuple(u + a * v for u, v in zip_longest(terms.get(t, ()), poly, fillvalue=0))
        else:
            d, c = weight - blocks, multiple
            terms = {d: (c,)}
            for j in range(d // 2):
                c, r = divmod(-4 * c * (d - 2 * j) * (d - 2 * j - 1), 6 * (j + 1) * (2 * blocks + 2 * d - 2 * j - 4))
                if r:
                    raise ValueError(f"{name}: multiple {multiple} leaves a fractional coefficient of n^{j + 1}")
                terms[d - 2 * j - 2] = (0,) * (j + 1) + (c,)
        specs[name] = LomadzeSumSpec(name, weight, blocks, tuple(terms.items()))
    return specs


LOMADZE_BY_NAME = _catalog((
    # weight-7/9/11 companion sums over F_3, F_5, F_7
    ("L_7_3", 7, 3, 15), ("L_9_5", 9, 5, 63), ("L_11_7", 11, 7, 54),
    # low-weight sums feeding the newform coefficient identities
    ("L_6_2", 6, 2, 9), ("L_8_4", 8, 4, 45), ("L_10_6", 10, 6, 42),
    # the 24-variable formula's sums
    ("L_12_8", 12, 8, 135), ("L_12_6", 12, 6, 162), ("L_12_4", 12, 4, 1215),
    # combined F_4 sum of the tau formula: it mixes weights 12 and 8, so it is no single zonal sum
    ("Lcal_4", 12, 4, {"L_12_4": 135, "L_8_4": -4121}),
    # the 28-variable formula's sums
    ("L_14_10", 14, 10, 99), ("L_14_8", 14, 8, 594), ("L_14_6", 14, 6, 8019),
))
LOMADZE_CATALOG: tuple[LomadzeSumSpec, ...] = tuple(LOMADZE_BY_NAME.values())


def lomadze_spec(name: str) -> LomadzeSumSpec:
    try:
        return LOMADZE_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(LOMADZE_BY_NAME))
        raise UnknownSum(f"unknown sum {name!r}; catalog: {known}") from None


def lomadze_sum(spec: LomadzeSumSpec, n: int, precision: int | None = None) -> int:
    """The catalog sum at n, read from its table of values up to the precision.

    A spec that is not a catalog entry raises UnknownSum.  The precision
    defaults to max(n, DEFAULT_PRECISION); the table's memo grows by
    doubling, so a loop over n = 1..N builds O(log N) tables.
    """
    if spec != lomadze_spec(spec.name):
        raise UnknownSum(f"spec {spec.name!r} differs from the catalog entry of that name")
    if n < 0:
        raise ValueError("n must be >= 0")
    if precision is None:
        precision = max(n, DEFAULT_PRECISION)
    if n > precision:
        raise ValueError(f"n={n} exceeds the table precision {precision}")
    return lomadze_values(spec.name, precision)[n]


@grow_only(prefix)
def lomadze_values(name: str, precision: int) -> tuple[int, ...]:
    """All values L(0..precision) of the named sum (L(0) = 0 for every catalog entry).

    M_0(k) = s_2k, and 3k M_2(k)(n) = 2n s_2k(n): (x, y) -> (y, -x-y) fixes
    x^2 + xy + y^2 and permutes x^2, y^2 and (x+y)^2, whose sum is twice it, so
    over a shell M_2(1) is 2/3 of n s_2, and the k blocks are alike.  Hence
    3k L = (3k P_0 + 2n P_2) s_2k + sum(3k P_t M_t, t >= 4), divided once, exactly.
    """
    spec = lomadze_spec(name)
    k3, terms = 3 * spec.blocks, dict(spec.terms)
    q0 = [k3 * c for c in terms.pop(0)]
    for i, c in enumerate(terms.pop(2), 1):  # + 2n P_2(n); every catalog P_0 is of higher degree than its P_2
        q0[i] += 2 * c
    rows = [(q0, theta_series(spec.blocks, precision).coeffs)]
    rows += [([k3 * c for c in poly], moment_table(spec.blocks, t, precision).values) for t, poly in terms.items()]
    values = (0,) * (precision + 1)
    for poly, row in rows:  # one lazy C-level pass: values(n) += Q(n) row(n)
        weights = (poly[-1],) * (precision + 1)
        for c in reversed(poly[:-1]):  # Horner's rule: Q(n) = (... (c_d n + c_(d-1)) n + ...) + c_0
            weights = map(mul, weights, range(precision + 1))
            if c:
                weights = map(c.__add__, weights)
        values = map(add, values, map(mul, weights, row))
    return tuple([v // k3 for v in values])
