"""Ring behavior of the exact truncated series kernel over the integers."""

import random
from fractions import Fraction

import pytest
from oracles import euler_product_direct, invert_dense, linear_combination

from hexrep.series import OutOfPrecision, QSeries, ZeroConstantTerm


def random_series(rng, precision, unit_constant=False):
    coeffs = [rng.randint(-9, 9) for _ in range(precision + 1)]
    if unit_constant:
        coeffs[0] = rng.choice([1, -1])
    return QSeries(coeffs)


def divide_one_by(a: QSeries) -> list:
    # long-division oracle in Fractions, written independently of QSeries.invert
    n = a.precision
    remainder = [Fraction(1)] + [Fraction(0)] * n
    quotient = []
    lead = Fraction(a.coefficient(0))
    for k in range(n + 1):
        q = remainder[k] / lead
        quotient.append(q)
        for j in range(k, n + 1):
            remainder[j] -= q * Fraction(a.coefficient(j - k))
    return quotient


def test_add_examples():
    a = QSeries([1, 6])
    assert a + QSeries([0, 0]) == QSeries([1, 6])
    assert a + (-1) * a == QSeries([0, 0])
    assert QSeries([1, 6]) + QSeries([1, -24]) == QSeries([2, -18])


def test_precision_is_min_of_operands():
    a = QSeries([1, 2, 3, 4])
    b = QSeries([5, 6])
    assert (a + b).precision == 1
    assert (a * b).precision == 1
    assert (a - b).precision == 1


def test_mul_examples():
    a = QSeries([1, 1], precision=2)
    b = QSeries([1, -1], precision=2)
    assert a * b == QSeries([1, 0, -1])
    q = QSeries([0, 1])
    assert q * q == QSeries([0, 0])  # q^2 truncated away at precision 1


def test_pow_trivial_cases():
    a = QSeries([2, 3, 4])
    assert a**0 == QSeries.one(2)
    assert a**1 == a
    with pytest.raises(ValueError):
        a ** (-1)


def test_pow_matches_repeated_mul():
    rng = random.Random(4)
    for _ in range(20):
        a = random_series(rng, 8)
        acc = QSeries.one(8)
        for e in range(1, 25):
            acc = acc * a
            assert a**e == acc


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a = random_series(rng, 7)
        b = random_series(rng, 7)
        c = random_series(rng, 7)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_invert_geometric_series():
    assert QSeries([1, -1], precision=3).invert() == QSeries([1, 1, 1, 1])


def test_invert_is_right_inverse():
    rng = random.Random(23)
    for _ in range(25):
        a = random_series(rng, 9, unit_constant=True)
        assert a * a.invert() == QSeries.one(9)


def test_invert_matches_long_division_oracle():
    # product form of the eta(3z) cube, truncated
    coeffs = [0] * 25
    coeffs[0] = 1
    for m in (3, 6, 9, 12, 15, 18, 21, 24):
        for i in range(24, m - 1, -1):
            coeffs[i] -= coeffs[i - m]
    cube = QSeries(coeffs) ** 3
    assert list(cube.invert().coeffs) == divide_one_by(cube)
    assert list((-cube).invert().coeffs) == divide_one_by(-cube)


def test_invert_matches_dense_recurrence():
    negative_unit = QSeries((-1,) + random_series(random.Random(5), 30).coeffs[1:])
    euler_core = euler_product_direct(1, 100)  # nonzero only at the pentagonal numbers
    sparse = QSeries([-1, 0, 0, 3] + [0] * 20 + [-5], precision=40)
    for a in (negative_unit, QSeries(euler_core), sparse, QSeries([-1])):
        inverse = a.invert().coeffs
        assert inverse == tuple(invert_dense(a.coeffs))
        assert all(type(c) is int for c in inverse)
    with pytest.raises(ZeroConstantTerm):
        QSeries([0] + euler_core[1:]).invert()


def test_invert_requires_unit():
    with pytest.raises(ZeroConstantTerm):
        QSeries([0, 1, 2]).invert()
    # any other constant term than 1 or -1 has a rational inverse, which no series holds
    for a0 in (2, -3, 7):
        assert type(invert_dense([a0, 1])[0]) is Fraction
        with pytest.raises(ValueError, match=f"^constant term {a0} is not 1 or -1") as refused:
            QSeries([a0, 1]).invert()
        assert refused.type is ValueError


def test_scale_argument():
    assert QSeries([1, 1], precision=4).scale_argument(3) == QSeries([1, 0, 0, 1, 0])
    a = QSeries([3, 1, 4, 1, 5])
    assert a.scale_argument(1) == a
    with pytest.raises(ValueError):
        a.scale_argument(0)


def test_scale_argument_is_multiplicative():
    rng = random.Random(7)
    for m in (2, 3):
        for _ in range(10):
            a = random_series(rng, 12)
            b = random_series(rng, 12)
            assert (a * b).scale_argument(m) == a.scale_argument(m) * b.scale_argument(m)


def test_coefficient_contract():
    a = QSeries([1, 2, 3])
    assert a.coefficient(0) == 1
    assert a.coefficient(2) == 3
    with pytest.raises(OutOfPrecision):
        a.coefficient(3)
    with pytest.raises(OutOfPrecision):
        a.coefficient(-1)


def test_no_floats_accepted():
    with pytest.raises(TypeError, match="^coefficients must be int, got float$"):
        QSeries([1.0, 2.0])
    with pytest.raises(TypeError):
        QSeries([1]) * 0.5
    with pytest.raises(TypeError):
        QSeries([1]) + 2.0


@pytest.mark.parametrize(
    "terms, kind",
    [
        (((0.1, QSeries([1, 2])),), "float"),
        (((True, QSeries([1, 2])),), "bool"),
        (((1, (1, 0.5)),), "float"),
        (((1, QSeries([1])), (Fraction(1, 3), (False, 2))), "bool"),
        (((Fraction(1, 2), (1, Fraction(1, 3), 2.0)),), "float"),
    ],
)
def test_linear_combination_refuses_floats_and_bools(terms, kind):
    # the oracle of identities.combine: Fraction(0.1) would be exact but is not the 1/10 meant, so no float reaches the sum
    with pytest.raises(TypeError, match=f"^coefficients must be int or Fraction, got {kind}$"):
        linear_combination(*terms)


def test_scalar_product_refuses_bool():
    with pytest.raises(TypeError, match="got bool$"):
        QSeries([1, 2]) * True
    with pytest.raises(TypeError, match="got bool$"):
        False * QSeries([1, 2])


@pytest.mark.parametrize(
    "operation",
    [
        lambda a, flag: a + flag,
        lambda a, flag: flag + a,
        lambda a, flag: a - flag,
        lambda a, flag: flag - a,
    ],
    ids=["add", "radd", "sub", "rsub"],
)
@pytest.mark.parametrize("flag", [True, False])
def test_scalar_sum_refuses_bool(operation, flag):
    # as the scalar product does: True is not the coefficient 1
    with pytest.raises(TypeError, match="^coefficients must be int, got bool$"):
        operation(QSeries([1, 2]), flag)


@pytest.mark.parametrize(
    "value, kind",
    [(Fraction(1, 2), "Fraction"), (Fraction(4, 2), "Fraction"), (1.0, "float"), (True, "bool")],
    ids=["fraction", "integral-fraction", "float", "bool"],
)
def test_series_hold_ints_only(value, kind):
    # a Fraction is refused even when it is integral, as a float or a bool is
    with pytest.raises(TypeError, match=f"^coefficients must be int, got {kind}$"):
        QSeries([1, value])
    with pytest.raises(TypeError, match=f"^coefficients must be int, got {kind}$"):
        QSeries([value], precision=3)
    s = QSeries([1, 2])
    for operation in (
        lambda: s * value,
        lambda: value * s,
        lambda: s + value,
        lambda: value + s,
        lambda: s - value,
        lambda: value - s,
    ):
        with pytest.raises(TypeError):
            operation()


def test_ring_results_hold_ints():
    # ring results skip the constructor's check, so their types are pinned here
    rng = random.Random(3)
    a, b = random_series(rng, 12), random_series(rng, 12, unit_constant=True)
    big = QSeries([2**70, -(2**65), 3, 1])
    for result in (a + b, a - b, -a, a * b, a * a, big * big, big * a, 3 * a, a * -2, a + 1, 1 - a, a**3, b.invert(), a.scale_argument(2), a.shift(3)):
        assert all(type(c) is int for c in result.coeffs), result


def test_shift_and_truncate():
    a = QSeries([1, 2, 3, 4])
    assert a.shift(2) == QSeries([0, 0, 1, 2])
    assert a.truncate(1) == QSeries([1, 2])
    with pytest.raises(OutOfPrecision):
        a.truncate(9)
    with pytest.raises(ValueError, match="precision must be >= 0"):
        a.truncate(-1)


def test_scalar_arithmetic():
    a = QSeries([1, 2])
    assert a + 1 == QSeries([2, 2])
    assert 1 + a == QSeries([2, 2])
    assert a - 1 == QSeries([0, 2])
    assert 1 - a == QSeries([0, -2])
    assert a - QSeries([5, 1, 9]) == QSeries([-4, 1])
    assert -a == QSeries([-1, -2])
    assert 3 * a == a * 3 == QSeries([3, 6])
    assert 0 * a == QSeries([0, 0])
    assert -(2**70) * a == QSeries([-(2**70), -(2**71)])
