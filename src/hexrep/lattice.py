"""Lattice-point counting for the block forms F_k and the Lomadze finite sums.

F_k is the direct sum of k copies of the binary form x^2 + xy + y^2, so
its representation numbers s_2k(n) are coefficients of the k-th power of
the two-variable theta series, and every sum over the solution set that
only involves the first coordinate reduces to a convolution of the
one-block moment tables with s_2(k-1).
"""

from __future__ import annotations

from collections import namedtuple
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


@grow_only(lambda rows, precision: {t: row[: precision + 1] for t, row in rows.items()})
def _f1_moment_rows(precision: int) -> dict[int, tuple[int, ...]]:
    """One pass over the points of x^2 + xy + y^2 <= precision, x >= 0, for orders 0, 6 and 8.

    For fixed x they are the y with |2y + x| <= isqrt(4 * precision - 3x^2),
    an exact range; a point with x >= 1 stands for itself and its negative.
    No floating point.  Orders 2 and 4 are 2n theta(n) / 3 and 2n^2 theta(n) / 3:
    the 12 automorphisms of the form have no harmonic invariant below degree 6.
    """
    rows = {t: [0] * (precision + 1) for t in (0, 6, 8)}
    for x in range(isqrt(4 * precision // 3) + 1):
        s = isqrt(4 * precision - 3 * x * x)
        weights = [(rows[0], 2), (rows[6], 2 * x**6), (rows[8], 2 * x**8)] if x else [(rows[0], 1)]
        for y in range(-((s + x) // 2), (s - x) // 2 + 1):
            n = x * x + x * y + y * y
            for row, w in weights:
                row[n] += w
    rows[2] = [v // 3 for v in map(mul, range(0, 2 * precision + 1, 2), rows[0])]
    rows[4] = map(mul, range(precision + 1), rows[2])
    return {t: tuple(rows[t]) for t in MOMENT_ORDERS}


def enumerate_f1(precision: int) -> tuple[QSeries, dict[int, MomentTable]]:
    """Theta series of one block and its x1-power moment tables, up to q^precision."""
    rows = _f1_moment_rows(precision)
    series = QSeries._trusted(rows[0])
    tables = {t: MomentTable(1, t, rows[t]) for t in MOMENT_ORDERS}
    return series, tables


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
    of the one-block moment series with the theta series of F_(k-1).  M_0
    counts the solutions: it is the theta series of F_k.  M_2 takes no
    product: (x, y) -> (y, -x-y) fixes x^2 + xy + y^2 and permutes x^2, y^2
    and (x+y)^2, whose sum is twice it, so M_2(k)(n) is 2/3 of the first
    block's value summed over the shell, n s_2k(n) / k as the k blocks are
    alike: M_2(k)(n) = 2n s_2k(n) / (3k).
    """
    if t not in MOMENT_ORDERS:
        raise ValueError(f"moment order must be one of {MOMENT_ORDERS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if t == 0:
        return MomentTable(k, t, theta_series(k, precision).coeffs)
    if t == 2:
        twice = map(mul, range(0, 2 * precision + 1, 2), theta_series(k, precision).coeffs)
        return MomentTable(k, t, tuple([v // (3 * k) for v in twice]))
    row = _f1_moment_rows(precision)[t]
    if k > 1:
        row = (QSeries._trusted(row) * theta_series(k - 1, precision)).coeffs
    return MomentTable(k, t, row)


# -- the catalog of finite sums ---------------------------------------------


class LomadzeSumSpec(namedtuple("LomadzeSumSpec", "name weight blocks terms")):
    """A finite sum over solutions of F_blocks = n of a polynomial in x1 and n.

    ``terms`` lists (x1 power t, coefficient polynomial in n), the polynomial
    given by its integer coefficients from degree 0 upward, so the sum is
    sum over solutions of sum_t poly_t(n) * x1^t.  All x1 powers are even
    and at most 8.
    """

    __slots__ = ()


LOMADZE_CATALOG: tuple[LomadzeSumSpec, ...] = (
    # weight-7/9/11 companion sums over F_3, F_5, F_7
    LomadzeSumSpec("L_7_3", 7, 3, ((4, (15,)), (2, (0, -12)), (0, (0, 0, 1)))),
    LomadzeSumSpec("L_9_5", 9, 5, ((4, (63,)), (2, (0, -36)), (0, (0, 0, 2)))),
    LomadzeSumSpec("L_11_7", 11, 7, ((4, (54,)), (2, (0, -24)), (0, (0, 0, 1)))),
    # low-weight sums feeding the newform coefficient identities
    LomadzeSumSpec("L_6_2", 6, 2, ((4, (9,)), (2, (0, -9)), (0, (0, 0, 1)))),
    LomadzeSumSpec("L_8_4", 8, 4, ((4, (45,)), (2, (0, -30)), (0, (0, 0, 2)))),
    # corrected x1^2 coefficient: -21n (an often-miscopied 27 gives wrong values)
    LomadzeSumSpec("L_10_6", 10, 6, ((4, (42,)), (2, (0, -21)), (0, (0, 0, 1)))),
    # the 24-variable formula's sums
    LomadzeSumSpec("L_12_8", 12, 8, ((4, (135,)), (2, (0, -54)), (0, (0, 0, 2)))),
    LomadzeSumSpec(
        "L_12_6", 12, 6, ((6, (162,)), (4, (0, -162)), (2, (0, 0, 36)), (0, (0, 0, 0, -1)))
    ),
    LomadzeSumSpec(
        "L_12_4",
        12,
        4,
        ((8, (1215,)), (6, (0, -2268)), (4, (0, 0, 1260)), (2, (0, 0, 0, -210)), (0, (0, 0, 0, 0, 5))),
    ),
    # combined F_4 sum 135*L_12_4 - 4121*L_8_4, as displayed in the tau formula
    LomadzeSumSpec(
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
    LomadzeSumSpec("L_14_10", 14, 10, ((4, (99,)), (2, (0, -33)), (0, (0, 0, 1)))),
    LomadzeSumSpec(
        "L_14_8", 14, 8, ((6, (594,)), (4, (0, -495)), (2, (0, 0, 90)), (0, (0, 0, 0, -2)))
    ),
    LomadzeSumSpec(
        "L_14_6",
        14,
        6,
        ((8, (8019,)), (6, (0, -12474)), (4, (0, 0, 5670)), (2, (0, 0, 0, -756)), (0, (0, 0, 0, 0, 14))),
    ),
)

LOMADZE_BY_NAME = {spec.name: spec for spec in LOMADZE_CATALOG}


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
    """All values L(0..precision) of the named sum (L(0) = 0 for every catalog entry)."""
    spec = lomadze_spec(name)
    values = (0,) * (precision + 1)
    for t, poly in spec.terms:  # one lazy C-level pass: values(n) += P_t(n) M_t(n)
        weights = (poly[-1],) * (precision + 1)
        for c in reversed(poly[:-1]):  # Horner's rule: P_t(n) = (... (c_d n + c_(d-1)) n + ...) + c_0
            weights = map(mul, weights, range(precision + 1))
            if c:
                weights = map(c.__add__, weights)
        values = map(add, values, map(mul, weights, moment_table(spec.blocks, t, precision).values))
    return tuple(values)
