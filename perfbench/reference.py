"""A fixed reference kernel that measures how fast the host runs Python right now.

The benchmark's host slows a process in spells of many seconds (contention
from outside the machine, inside the CPU), at times by a factor of two,
and hexrep's work and this kernel slow down alike.  Each timed stretch of
hexrep work is bracketed by runs of ``kernel()`` in the same interpreter,
and its time is scaled by ``NOMINAL_S`` over the kernel's time: a spell
that slows hexrep slows the kernel too, and cancels out.  The kernel
shares no code with hexrep, so no change to hexrep changes its time.

The kernel does the two kinds of work hexrep spends its time on: divisor
power sums by trial division (like ``arith.sigma``) and a truncated
product of two series with big-integer coefficients (like
``QSeries.__mul__``).
"""

#: The kernel's time, in seconds, as ``child.py`` runs it in a fresh
#: interpreter on the 2-vCPU host the benchmark was built on, outside slow
#: spells.  Times the benchmark reports are seconds on a host on which the
#: kernel takes this long.
NOMINAL_S = 0.030


def kernel() -> int:
    total = 0
    for n in range(1, 4000):
        d = 1
        while d * d <= n:
            if n % d == 0:
                total += d ** 11
                if d * d != n:
                    total += (n // d) ** 11
            d += 1
    a = [3 ** (k % 61) * 5 ** (k % 37) for k in range(520)]
    for m in range(len(a)):
        coefficient = 0
        for i in range(m + 1):
            coefficient += a[i] * a[m - i]
        total += coefficient
    return total

