"""Direct (nested-loop) enumeration oracles, independent of the series and moment-table paths."""

from math import isqrt

from hexrep.lattice import MOMENT_ORDERS


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
