"""How many series products and combinations the memoized paths take, from cleared memos.

Each power of a series is one product on a shared ladder of squarings and
no product is taken twice, so the counts below are budgets, not exact
figures: a change that multiplies more has lost that.
"""

import contextlib
import gc
import io
import sys
import tracemalloc

import pytest
from memos import clear_all
from packings import SLOT_PATHS, packing

from hexrep import cli, forms, identities, lattice, series
from hexrep.series import QSeries


FORMATS = ("table", "json", "csv")


def cli_verify(nmax, fmt="table"):
    """hexrep verify --all at nmax through cli.main, its output kept in memory."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", "--all", "--nmax", str(nmax), "--format", fmt])


BUDGETS = {
    "s2k_bruteforce(14, 400)": (lambda: lattice.s2k_bruteforce(14, 400), 5),
    "lomadze_values('L_14_10', 400)": (lambda: lattice.lomadze_values("L_14_10", 400), 6),
    "verify_all(200)": (lambda: identities.verify_all(200), 50),
    # the streamed command: a table released while a later report still reads it would be built twice
    **{f"verify --all --nmax 200 --format {fmt}": (lambda fmt=fmt: cli_verify(200, fmt), 50) for fmt in FORMATS},
    # delta: 3 squarings of Jacobi's cube; delta_6_3 = c' b^3, delta_9_3_1 = c' delta_6_3 and
    # delta_9_3_2 = delta_6_3 b^3; theta^2, delta_6_3 times theta and theta^2; and E_4(z),
    # E_4(3z) times delta_7_3
    "every catalog form at 400": (lambda: [forms.named_form(name, 400) for name in forms.CATALOG_NAMES], 11),
    # delta: 3 squarings; delta_6_3: 1; delta_8_3: 2; sigma_3 * delta_8_3, sigma_5 * delta_6_3
    "decomposition(12, 400)": (lambda: identities.decomposition(12, 400), 8),
    # delta, delta_6_3 and delta_8_3 as above; sigma_7 * delta_6_3, sigma_5 * delta_8_3,
    # sigma * delta and sigma(./3) * delta
    "decomposition(14, 400)": (lambda: identities.decomposition(14, 400), 10),
    # eta^6 = (eta^3)^2, eta^12 and eta^24: three squarings of Jacobi's cube
    'named_form("delta", 400)': (lambda: forms.named_form("delta", 400), 3),
}


def cold_products(run, monkeypatch) -> int:
    """The series products run() takes from cleared memos."""
    mul = QSeries.__mul__
    products = 0

    def counting(self, other):
        nonlocal products
        products += isinstance(other, QSeries)
        return mul(self, other)

    with monkeypatch.context() as patched:
        patched.setattr(QSeries, "__mul__", counting)
        clear_all()
        run()
    return products


@pytest.mark.parametrize("name", BUDGETS)
def test_series_products_within_budget(name, monkeypatch):
    run, budget = BUDGETS[name]
    products = cold_products(run, monkeypatch)
    assert 0 < products <= budget, products


#: series._operand calls from cleared memos, pinned exactly per packing path: each product converts
#: its two sides (a square one), except a side that already holds its operand at its full precision.
#: A memoized series keeps the operand its first product converts (theta powers, catalog forms, b^3
#: and c', the one-block moment rows and the factors of the convolutions), and on the array path an
#: integral product read back as one int64 array keeps that array, so only a distinct table not made
#: by such a product is converted: 18 for the 46 products of verify_all(200), against 31, one per
#: distinct table, on the bytes path, which keeps no read-back, and 86 when nothing is kept
VERIFY_CONVERSIONS = {"array": 18, "bytes": 31}
CONVERSIONS = {
    "verify_all(200)": (lambda: identities.verify_all(200), VERIFY_CONVERSIONS),
    **{
        f"verify --all --nmax 200 --format {fmt}": (lambda fmt=fmt: cli_verify(200, fmt), VERIFY_CONVERSIONS)
        for fmt in FORMATS
    },
    # 10 products, 4 of them squares: Jacobi's cube, c', b^3, theta, delta (a shift of a product),
    # sigma_7, sigma_5, sigma and sigma(./3); on the bytes path also Jacobi's cube squared and to the
    # fourth, delta_6_3, theta^2 and delta_8_3
    "decomposition(14, 400)": (lambda: identities.decomposition(14, 400), {"array": 9, "bytes": 14}),
}


def cold_conversions(run, monkeypatch) -> int:
    """The kernel operands run() converts from cleared memos."""
    operand = series._operand
    calls = 0

    def counting(coeffs):
        nonlocal calls
        calls += 1
        return operand(coeffs)

    with monkeypatch.context() as patched:
        patched.setattr(series, "_operand", counting)
        clear_all()
        run()
    return calls


@pytest.mark.parametrize("name", CONVERSIONS)
def test_operand_conversions_are_pinned(name, monkeypatch):
    run, counts = CONVERSIONS[name]
    for path in SLOT_PATHS:
        with packing(path):
            assert cold_conversions(run, monkeypatch) == counts[path], path
    clear_all()  # no table built on the bytes path outlives the test


def cold_read_backs(run, monkeypatch) -> tuple[int, int]:
    """(products read back from slots wider than 8 bytes, two-limb read-backs) of run() from cleared memos."""
    unpack, two_limb = series._unpack, series._two_limb
    wide = limbs = 0

    def counting_unpack(value, width, flip, count):
        nonlocal wide
        wide += width > 8
        return unpack(value, width, flip, count)

    def counting_two_limb(*args):
        nonlocal limbs
        limbs += 1
        return two_limb(*args)

    with monkeypatch.context() as patched:
        patched.setattr(series, "_unpack", counting_unpack)
        patched.setattr(series, "_two_limb", counting_two_limb)
        clear_all()
        run()
    return wide, limbs


def test_cold_verify_read_backs_are_pinned(monkeypatch):
    # Cauchy-Schwarz slot widths put 17 of the 46 products in slots wider than 8 bytes; 8 of those 17
    # hold a value past int64 and are read back as two limbs, the other 9 as one int64 array
    assert cold_read_backs(lambda: identities.verify_all(200), monkeypatch) == (17, 8)


@pytest.mark.parametrize("fmt", FORMATS)
def test_streamed_verify_takes_the_products_of_verify_all(fmt, monkeypatch):
    assert cold_products(lambda: cli_verify(200, fmt), monkeypatch) == cold_products(
        lambda: identities.verify_all(200), monkeypatch
    )


def moment_orders_read(run, monkeypatch) -> set:
    """The orders t of the lattice.moment_table(k, t, precision) calls run() makes from cleared memos."""
    table = lattice.moment_table
    orders = set()

    def recording(k, t, precision):
        orders.add(t)
        return table(k, t, precision)

    with monkeypatch.context() as patched:
        patched.setattr(lattice, "moment_table", recording)
        clear_all()
        run()
    return orders


def cli_lsum(name):
    """hexrep lsum NAME --n 1..400 through cli.main, its output kept in memory."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["lsum", name, "--n", "1..400"])


CATALOG_SUM_RUNS = {
    "verify_all(200)": lambda: identities.verify_all(200),
    **{f"lsum {spec.name} --n 1..400": lambda name=spec.name: cli_lsum(name) for spec in lattice.LOMADZE_CATALOG},
}


@pytest.mark.parametrize("name", CATALOG_SUM_RUNS)
def test_catalog_sums_take_no_order_0_or_2_moment_table(name, monkeypatch):
    # M_0(k) = s_2k and 3k M_2(k)(n) = 2n s_2k(n): lomadze_values reads theta^k for both
    orders = moment_orders_read(CATALOG_SUM_RUNS[name], monkeypatch)
    assert orders and not orders & {0, 2}, orders


def traced_peak(run) -> int:
    """The tracemalloc peak of run() from cleared memos, in bytes."""
    clear_all()
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_verify_peaks_below_verify_all():
    # releasing each table after its last reader: the prototype of the release measured 1,013 KB against 1,547 KB
    identities.verify_all(300)  # fills the process-wide caches the memos do not hold, for both runs alike
    whole = traced_peak(lambda: identities.verify_all(300))
    streamed = traced_peak(lambda: cli_verify(300))
    clear_all()
    assert streamed <= 0.8 * whole, (streamed, whole)


def test_identity_sides_skip_linear_combination(monkeypatch):
    # identities.combine sums every side in ints; only the catalog's b^3 and E_4 builds in forms
    # go through series.linear_combination
    combination = series.linear_combination
    calls = 0

    def counting(*terms):
        nonlocal calls
        calls += 1
        return combination(*terms)

    for name, module in list(sys.modules.items()):  # every hexrep module that imported it
        if name.split(".")[0] == "hexrep" and getattr(module, "linear_combination", None) is combination:
            monkeypatch.setattr(module, "linear_combination", counting)
    clear_all()
    identities.verify_all(200)
    assert 0 < calls <= 3, calls
