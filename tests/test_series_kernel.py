"""The Kronecker-substitution product and the common-denominator linear
combination against plain per-coefficient Fraction arithmetic."""

from fractions import Fraction

import pytest
from oracles import mul_schoolbook

from hexrep.series import QSeries, linear_combination

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
# slot widths w of 1 to 9 bytes: 1, 2 and 4 are array item sizes, 3 and 6
# round up to 4 and 8, 8 fills a 64-bit item, 9 takes the byte path
@hypothesis.example([3, -2, 1], [-1, 2, -3])
@hypothesis.example([100, -50], [-90, 7])
@hypothesis.example([1000, -999, 5], [-2000, 3, 1])
@hypothesis.example([2**14, 1], [-(2**15), 1])
@hypothesis.example([2**20, -3, 0], [-(2**20), 1, 2])
@hypothesis.example([2**30, 2**30], [-(2**31), -(2**31)])
@hypothesis.example([2**31, -1], [-(2**32), 5])
def test_mul_matches_schoolbook(a, b):
    assert (QSeries(a) * QSeries(b)).coeffs == QSeries(mul_schoolbook(a, b)).coeffs


@hypothesis.settings(deadline=None)
@hypothesis.given(st.lists(coefficients, min_size=1, max_size=40))
@hypothesis.example([0, 0])
@hypothesis.example([3, -2, 1])  # 1-byte array slots
@hypothesis.example([2**30, -(2**30), 7])  # 8-byte array slots
@hypothesis.example([2**64 + 1, -5])  # byte slots
@hypothesis.example([Fraction(1, 3), Fraction(-1, 2), 4])
def test_square_matches_schoolbook(a):
    s = QSeries(a)  # s * s packs once and squares one int
    assert (s * s).coeffs == QSeries(mul_schoolbook(a, a)).coeffs


@hypothesis.settings(deadline=None)
@hypothesis.given(
    st.lists(
        st.tuples(coefficients, st.lists(coefficients, min_size=1, max_size=40)),
        min_size=1,
        max_size=5,
    )
)
@hypothesis.example([(Fraction(1, 2), [1, 3]), (Fraction(-1, 2), [1, 1])])  # cancels to ints
@hypothesis.example([(0, [Fraction(1, 3)])])
@hypothesis.example([(Fraction(1, 240), [0, 240, -480])])  # integral over a denominator > 1
@hypothesis.example([(Fraction(1, 3), [3, 1, 6]), (1, [0, 0, 1])])  # partly integral
@hypothesis.example([(Fraction(-1, 3), [3, 6, 1])])  # integral up to the last coefficient
def test_linear_combination_matches_fraction_sums(terms):
    n = min(len(cs) for _, cs in terms) - 1
    expected = [sum(Fraction(c) * cs[i] for c, cs in terms) for i in range(n + 1)]
    result = linear_combination(*((c, QSeries(cs)) for c, cs in terms))
    assert result.coeffs == QSeries(expected).coeffs
    # integral values come back as ints, as the public constructor makes them
    assert [type(v) for v in result.coeffs] == [type(v) for v in QSeries(expected).coeffs]
