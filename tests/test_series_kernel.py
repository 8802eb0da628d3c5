"""The Kronecker-substitution product against the schoolbook double loop."""

from fractions import Fraction

import pytest
from oracles import mul_schoolbook

from hexrep.series import QSeries

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

coefficients = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 60)),
)


@hypothesis.settings(deadline=None)
@hypothesis.given(
    st.lists(coefficients, min_size=1, max_size=40),
    st.lists(coefficients, min_size=1, max_size=40),
)
# slots must hold the inputs too: the product bound of an all-zero side is 0
@hypothesis.example([0, 0, 0], [2**70, -(2**65), 3])
@hypothesis.example([2**64 + 1], [0])
@hypothesis.example([Fraction(1, 3), Fraction(-1, 2)], [-7])
def test_mul_matches_schoolbook(a, b):
    assert (QSeries(a) * QSeries(b)).coeffs == QSeries(mul_schoolbook(a, b)).coeffs
