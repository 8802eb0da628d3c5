"""How many series products and combinations the memoized paths take, from cleared memos.

Each power of a series is one product on a shared ladder of squarings and
no product is taken twice, so the counts below are budgets, not exact
figures: a change that multiplies more has lost that.
"""

import sys

import pytest
from memos import clear_all

from hexrep import forms, identities, lattice, series
from hexrep.series import QSeries

BUDGETS = {
    "s2k_bruteforce(14, 400)": (lambda: lattice.s2k_bruteforce(14, 400), 5),
    "lomadze_values('L_14_10', 400)": (lambda: lattice.lomadze_values("L_14_10", 400), 6),
    "verify_all(200)": (lambda: identities.verify_all(200), 50),
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


@pytest.mark.parametrize("name", BUDGETS)
def test_series_products_within_budget(name, monkeypatch):
    run, budget = BUDGETS[name]
    mul = QSeries.__mul__
    products = 0

    def counting(self, other):
        nonlocal products
        products += isinstance(other, QSeries)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    clear_all()
    run()
    assert 0 < products <= budget, products


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
