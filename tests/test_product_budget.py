"""How many series products the memoized paths take, from cleared memos.

Each power of a series is one product on a shared ladder of squarings and
no product is taken twice, so the counts below are budgets, not exact
figures: a change that multiplies more has lost that.
"""

import pytest
from memos import clear_all

from hexrep import forms, identities, lattice
from hexrep.series import QSeries

BUDGETS = {
    "s2k_bruteforce(14, 400)": (lambda: lattice.s2k_bruteforce(14, 400), 5),
    "lomadze_values('L_14_10', 400)": (lambda: lattice.lomadze_values("L_14_10", 400), 6),
    "verify_all(200)": (lambda: identities.verify_all(200), 60),
    # 9 eta ladder products (exponents 24, 15, 6 and 3 and the powers below them), 3 quotient
    # products, theta^2, delta_6_3 times theta and theta^2, and E_4(z), E_4(3z) times delta_7_3
    "every catalog form at 400": (lambda: [forms.named_form(name, 400) for name in forms.CATALOG_NAMES], 18),
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
