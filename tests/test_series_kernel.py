"""The Kronecker-substitution product and the common-denominator linear
combination against plain per-coefficient Fraction arithmetic, and the
products too long for that against their values at random points."""

import contextlib
import io
import random
import sys
import threading
from array import array
from fractions import Fraction
from math import frexp, hypot, isqrt, lcm
from types import SimpleNamespace

import pytest
from memos import clear_all
from oracles import P61, mul_schoolbook, product_at_point
from packings import SLOT_PATHS, packing

from hexrep import cli, forms, identities, lattice, series
from hexrep.series import QSeries, _pack, _signed_flip, _unpack, linear_combination

try:
    import hypothesis
except ImportError:  # the property tests below need it; the explicit width cases do not
    hypothesis = None

@pytest.fixture(params=SLOT_PATHS)
def slot_path(request):
    """Run on both packing paths."""
    with packing(request.param) as path:
        yield path


def recorded_packs(monkeypatch) -> list:
    """(width, packed from an int64 array) of each `_pack` call from here on."""
    packs = []

    def spy(ints, width, flip):
        packs.append((width, isinstance(ints, array)))
        return _pack(ints, width, flip)

    monkeypatch.setattr(series, "_pack", spy)
    return packs


def recorded_exact_widths(monkeypatch) -> list:
    """The argument of each exact isqrt `_width` falls back to from here on."""
    bounds = []

    def spy(value):
        bounds.append(value)
        return isqrt(value)

    monkeypatch.setattr(series, "isqrt", spy)
    return bounds


def cleared(values) -> list:
    """The values times the lcm of their denominators."""
    d = lcm(*(Fraction(v).denominator for v in values))
    return [int(Fraction(v) * d) for v in values]


def exact_width(a, b, n) -> int:
    """The slot width of isqrt(sum(a_i^2) * sum(b_j^2)) over the coefficients 0..n cleared of denominators, sign bit included."""
    sa, sb = (sum(v * v for v in cleared(x[: n + 1])) for x in (a, b))
    return (isqrt(sa * sb).bit_length() + 8) // 8


def float_width(a, b) -> int:
    """The slot width the float product of the norms of the ints a and b gives with no error bracket."""
    return frexp(hypot(*a) * hypot(*b))[1] // 8 + 1


@pytest.mark.parametrize("w", [*range(1, 18), 24])
def test_products_at_exact_slot_widths(w, slot_path, monkeypatch):
    top = 2 ** (8 * w - 1) - 1  # the largest slot value of w bytes
    root = isqrt(top // 4)
    # (a, b, a * b where written out): every product bound (n+1) max|a| max|b| is at most top
    cases = [
        ([top], [1], [top]),
        ([-top], [1], [-top]),
        ([top], [-1], [-top]),
        # c_k = (-1)^k (k + 1) A: the last one is within 4 of +-top
        ([top // 4, -(top // 4), top // 4, -(top // 4)], [1, -1, 1, -1], None),
        ([root, root, root, root], [-root, -root, -root, -root], None),
    ]
    if w > 1:  # the smallest magnitude that needs w bytes: half of it fits in w - 1
        low = 2 ** (8 * w - 9)
        cases += [([low], [1], [low]), ([1], [-low], [-low])]
    if 8 < w <= 17:  # int64 inputs whose product needs w bytes: -2^63 reaches 17
        near = min(isqrt(top // 2), 2**63)
        cases.append(([-near, -near], [-near, -near], [near * near, 2 * near * near]))
    packs = recorded_packs(monkeypatch)
    for a, b, expected in cases:
        product = list((QSeries(a) * QSeries(b)).coeffs)
        assert product == mul_schoolbook(a, b)
        if expected is None:  # the last coefficient nears the bound
            assert max(map(abs, product)) > top // 2
        else:
            assert product == expected
    # squares pack once: s = [S, -S, S, -S] with 4 S^2 <= top
    square = [root, -root, root, -root]
    s = QSeries(square)
    assert list((s * s).coeffs) == mul_schoolbook(square, square)
    assert [width for width, _ in packs] == [w] * (2 * len(cases) + 1)
    # every operand below 2^63 is packed from one int64 array, at any slot width
    operands = [c for a, b, _ in cases for c in (a, b)] + [square]
    fits = [-(2**63) <= min(c) and max(c) < 2**63 for c in operands]
    assert [from_array for _, from_array in packs] == [f and slot_path == "array" for f in fits]


@pytest.mark.parametrize("w", [*range(1, 18), 24])
def test_pack_unpack_round_trip(w, slot_path):
    half = 2 ** (8 * w - 1)
    rng = random.Random(w)
    ints = [half - 1, -half, 0, 1, -1, half // 3, -(half // 3)] + [rng.randrange(-half, half) for _ in range(40)]
    # an int64 array fills slots of any width: its items up to +-2^63, zero bytes above
    edge = min(half, 2**63)
    int64 = [edge - 1, -edge, -(edge - 1), 0, 1, -1] + [rng.randrange(-edge, edge) for _ in range(40)]
    for values in (ints, int64):
        items = series._int64(values)
        assert (items is not None) == (slot_path == "array" and (values is int64 or w <= 8))
        flip = _signed_flip(w, len(values))
        packed, lift = _pack(values if items is None else items, w, flip)
        # every slot lifted by one l to 0 <= c + l < X: X/2, or 2^63 for an int64 array in slots past 8 bytes
        l = half if items is None else 2 ** (8 * min(w, 8) - 1)
        assert all(0 <= c + l < 2 * half for c in values)
        assert lift == sum(l << (8 * w * i) for i in range(len(values)))
        assert packed == sum((c + l) << (8 * w * i) for i, c in enumerate(values))
        packed -= lift
        assert packed == sum(c << (8 * w * i) for i, c in enumerate(values))
        # read back as one int64 array when every value fits one, on the array path, in slots of at most 16 bytes
        read = _unpack(packed, w, flip, len(values))
        fits = -(2**63) <= min(values) and max(values) < 2**63
        assert isinstance(read, array) == (slot_path == "array" and w <= 16 and fits)
        assert list(read) == values
        # slots past count, as a product has them, do not reach the count read back
        beyond = 1 << (8 * w * len(values))
        assert list(_unpack(packed + 5 * beyond, w, flip, len(values))) == values
        assert list(_unpack(packed - 3 * beyond, w, flip, len(values))) == values
        assert list(_unpack(packed, w, _signed_flip(w, 3), 3)) == values[:3]


@pytest.mark.parametrize("w", range(1, 25))
def test_widths_at_a_byte_boundary_take_the_exact_bound(w, slot_path, monkeypatch):
    """Tight +-M times +-N bounds at and next to 2^(8w - 1), where a w-byte slot ends: the float brackets straddle it."""
    top = 2 ** (8 * w - 1) - 1
    edge = 2 ** (8 * w - 3)  # 4 edge = 2^(8w - 1): a bound that needs w + 1 bytes
    cases = [
        ([top], [1]),
        ([top + 1], [-1]),
        ([top // 4, -(top // 4), top // 4, -(top // 4)], [1, -1, 1, -1]),  # the bound is top - 3
        ([edge, -edge, edge, -edge], [1, -1, 1, -1]),
        ([edge // 2, -(edge // 2), edge // 2, edge // 2], [2, 2, -2, 2]),
    ]
    exact = recorded_exact_widths(monkeypatch)
    packs = recorded_packs(monkeypatch)
    for a, b in cases:
        exact.clear()
        product = QSeries(a) * QSeries(b)
        assert list(product.coeffs) == mul_schoolbook(a, b)
        (width,) = {width for width, _ in packs}
        packs.clear()
        bound = isqrt(sum(x * x for x in a) * sum(y * y for y in b))
        assert width == exact_width(a, b, len(a) - 1) == (w if bound <= top else w + 1)
        # a bound of 2^(8w - 1) sits on the boundary, and where the float alone rounds to the other width
        # the exact isqrt decides
        if bound == top + 1 or float_width(a, b) != width:
            assert exact, (a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        ([2**1024, -1], [1, 1]),  # an int past the float range
        ([-(2**1100), 3, 5], [7, 0, -(2**1030)]),
        ([2**1023] * 4, [3, -1, 0, 2]),  # ints in range, a norm past it
        ([2**600, 1], [-(2**600), 1]),  # norms in range, their product past it
        ([Fraction(2**1030, 3), 1], [1, Fraction(1, 2)]),  # cleared of denominators: 2^1031 and 6
    ],
)
def test_norms_past_the_float_range_take_the_exact_bound(a, b, slot_path, monkeypatch):
    exact = recorded_exact_widths(monkeypatch)
    packs = recorded_packs(monkeypatch)
    assert list((QSeries(a) * QSeries(b)).coeffs) == mul_schoolbook(a, b)
    assert len(exact) == 1
    assert {width for width, _ in packs} == {exact_width(a, b, len(a) - 1)}


#: per kind, (a, b) at length n + 1: small signed ints, int64 edges (array
#: packs, 17-byte slots past n = 0), ints past 2^64 (18 bytes and more, bytes
#: read-back) and Fractions
KERNEL_KINDS = {
    "signed": lambda rng, m: [rng.randrange(-1000, 1000) for _ in range(m)],
    "int64 edges": lambda rng, m: [rng.choice((-(2**63), 2**63 - 1, 0, 1, -1)) for _ in range(m)],
    "past int64": lambda rng, m: [rng.choice((2**64, -(2**64), 2**63, 3, -(2**70) + 1)) for _ in range(m)],
    "fractions": lambda rng, m: [Fraction(rng.randrange(-99, 99), rng.randrange(1, 12)) for _ in range(m)],
}


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_products_and_squares_at_every_length(kind, slot_path, monkeypatch):
    """Every length 1..41: n = 0, and odd and even n, whose even and odd halves are of equal or unequal size."""
    packs = recorded_packs(monkeypatch)
    rng = random.Random(kind)
    for length in range(1, 42):
        a, b = (KERNEL_KINDS[kind](rng, length) for _ in range(2))
        assert (QSeries(a) * QSeries(b)).coeffs == QSeries(mul_schoolbook(a, b)).coeffs
        s = QSeries(a)
        assert (s * s).coeffs == QSeries(mul_schoolbook(a, a)).coeffs
    assert len(packs) == 3 * 41  # one pack per operand, one per square
    if kind in ("int64 edges", "past int64"):  # reaches the over-16-byte read-back
        assert max(width for width, _ in packs) > 16


@pytest.mark.parametrize("w", range(1, 25))
def test_plus_minus_is_the_evaluation_at_both_points(w, slot_path):
    half = 2 ** (8 * w - 1)
    rng = random.Random(w)
    x = 2 ** (4 * w)
    for length in (1, 2, 3, 4, 11, 40):
        ints = [rng.choice((half - 1, -half, 0)) if rng.random() < 0.3 else rng.randrange(-half, half) for _ in range(length)]
        items = series._int64(ints)
        plus, minus = series._plus_minus(ints if items is None else items, w, _signed_flip(w, length))
        assert plus == sum(c * x**i for i, c in enumerate(ints))
        assert minus == sum(c * (-x) ** i for i, c in enumerate(ints))


def recorded_two_limb_reads(monkeypatch) -> list:
    """The width of each two-limb read-back from here on."""
    widths = []
    two_limb = series._two_limb

    def spy(raw, low, width, count):
        widths.append(width)
        return two_limb(raw, low, width, count)

    monkeypatch.setattr(series, "_two_limb", spy)
    return widths


#: per value at the int64 edges: whether a slot of 9 to 16 bytes holding it is read back as two limbs
INT64_EDGES = {2**63 - 1: False, -(2**63): False, 2**63: True, -(2**63) - 1: True}


@pytest.mark.skipif(sys.byteorder != "little", reason="the 64-bit read-back is the little-endian path")
@pytest.mark.parametrize("w", range(9, 17))
def test_read_back_at_the_int64_edges(w, monkeypatch):
    limbs = recorded_two_limb_reads(monkeypatch)
    packs = recorded_packs(monkeypatch)
    for path in SLOT_PATHS:
        with packing(path):
            read_back_at_the_int64_edges(w, path == "array", packs, limbs)


def read_back_at_the_int64_edges(w, by_array, packs, limbs) -> None:
    """The int64 edges in w-byte slots; without by_array every slot is read back through bytes, one coefficient at a time."""
    for edge, two in INT64_EDGES.items():
        for values in ([edge], [0, edge, -1], [-1, 1, 2**62, -(2**62), edge]):
            flip = _signed_flip(w, len(values))
            items = series._int64(values)
            packed, lift = _pack(values if items is None else items, w, flip)
            read = _unpack(packed - lift, w, flip, len(values))
            assert list(read) == values
            assert isinstance(read, array) == (by_array and not two)
            assert limbs == [w] * (by_array and two), (edge, values)
            limbs.clear()
        # [1, A] [0, edge] = [0, edge], in w-byte slots: the bound isqrt((1 + A^2) edge^2) is near A 2^63
        big = 2 ** (8 * w - 70)
        product = QSeries([1, big]) * QSeries([0, edge])
        assert list(product.coeffs) == [0, edge]
        assert [width for width, _ in packs] == [w, w] and limbs == [w] * (by_array and two), edge
        # a product read back as one int64 array keeps that array as its operand
        assert hasattr(product, "_kept_operand") == (by_array and not two)
        packs.clear()
        limbs.clear()


def test_int64_check(monkeypatch):
    assert series._int64([2**63 - 1, -(2**63), 0]).tolist() == [2**63 - 1, -(2**63), 0]
    assert series._int64([1, Fraction(1, 3)]) is None
    assert series._int64([2**63]) is None
    assert series._int64([-(2**63) - 1]) is None
    monkeypatch.setattr(series, "sys", SimpleNamespace(byteorder="big"))
    assert series._int64([1, 2]) is None


@pytest.mark.parametrize(
    "a, b, from_array",
    [
        ([2**63 - 1, -(2**63 - 1), -(2**63)], [-(2**63), 2**63 - 1, 1], [True, True]),
        ([-(2**63), -(2**63)], [-(2**63)], [True, True]),
        ([2**63, 1], [-1, 2**63 - 1], [False, True]),  # 2^63 is refused by the array
        # cleared of denominators (lcm 6): 2, -3, 24, which fit an int64 array
        ([Fraction(1, 3), Fraction(-1, 2), 4], [5, -(2**62)], [True, True]),
        # cleared (lcm 6): 2^63 + 2 and 3, past the array
        ([Fraction(2**62 + 1, 3), Fraction(1, 2)], [1, 2], [False, True]),
    ],
)
def test_int64_operand_edges(a, b, from_array, slot_path, monkeypatch):
    packs = recorded_packs(monkeypatch)
    assert list((QSeries(a) * QSeries(b)).coeffs) == mul_schoolbook(a, b)
    assert [path for _, path in packs] == [f and slot_path == "array" for f in from_array]


def test_cold_verify_packs_every_operand_from_an_int64_array(monkeypatch):
    """Every operand of a cold verify_all(200) fits int64, those of its 17 products in 9- to 16-byte slots too."""
    packs = recorded_packs(monkeypatch)
    for path in SLOT_PATHS:
        packs.clear()
        with packing(path):
            clear_all()
            try:
                identities.verify_all(200)
            finally:
                clear_all()  # no table built on the bytes path outlives it
        assert packs and all(from_array == (path == "array") for _, from_array in packs)
        assert any(width > 8 for width, _ in packs)


def test_point_oracle_catches_one_wrong_coefficient():
    rng = random.Random(5)
    a = [rng.randrange(-(2**80), 2**80) for _ in range(300)]
    b = [Fraction(rng.randrange(-99, 99), rng.randrange(1, 9)) for _ in range(301)]
    c = list((QSeries(a) * QSeries(b)).coeffs)
    assert c == mul_schoolbook(a, b)
    r = rng.randrange(2, P61 - 1)
    assert product_at_point(a, b, c, r)
    for k in (0, 150, 299):
        wrong = c[:k] + [c[k] + Fraction(1, 7)] + c[k + 1 :]
        assert not product_at_point(a, b, wrong, r)


def test_cold_verify_products_at_two_random_points(monkeypatch):
    """Every product of a cold verify_all(2000), too long for the schoolbook oracle, checked at two points mod 2^61 - 1."""
    checked = points_checked(COLD_RUNS["verify_all(2000)"], monkeypatch)
    assert len(checked) > 20 and max(checked) == 2000


#: the value commands of the benchmark's cold value workload, over n = 1..400: the five
#: decompositions, s_28 by brute force, tau from eta^24 and the 13 catalog sums
VALUE_COMMANDS = (
    [["s2k", "--k", str(k), "--n", "1..400", "--method", "decomposition"] for k in (7, 9, 11, 12, 14)]
    + [["s2k", "--k", "14", "--n", "1..400"], ["tau", "--n", "1..400", "--method", "eta"]]
    + [["lsum", spec.name, "--n", "1..400"] for spec in lattice.LOMADZE_CATALOG]
)


def cold_value_commands():
    """Each of VALUE_COMMANDS through cli.main from cleared memos, as a fresh process runs it, its output kept in memory."""
    for argv in VALUE_COMMANDS:
        clear_all()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


COLD_RUNS = {"verify_all(2000)": lambda: identities.verify_all(2000), "value commands at 400": cold_value_commands}


def cold_products(run, monkeypatch, check) -> None:
    """run() from cleared memos, with check(a, b, product, width) after each series product; width is None for a zero side."""
    kernel, unpack = QSeries.__mul__, series._unpack
    widths = []

    def checked_mul(self, other):
        read = len(widths)
        product = kernel(self, other)
        if isinstance(other, QSeries):
            check(self, other, product, widths[read] if len(widths) > read else None)
        return product

    def recording_unpack(value, width, flip, count):
        widths.append(width)
        return unpack(value, width, flip, count)

    monkeypatch.setattr(QSeries, "__mul__", checked_mul)
    monkeypatch.setattr(series, "_unpack", recording_unpack)
    clear_all()
    try:
        run()
    finally:
        clear_all()  # no table built under the wrapper outlives the test


def points_checked(run, monkeypatch) -> list:
    """The precision of each product of run() from cleared memos, every one checked at two random points mod 2^61 - 1."""
    rng = random.Random(2000)
    checked = []

    def check(a, b, product, width):
        for r in (rng.randrange(2, P61 - 1), rng.randrange(2, P61 - 1)):
            assert product_at_point(a.coeffs, b.coeffs, product.coeffs, r), (product.precision, r)
        checked.append(product.precision)

    cold_products(run, monkeypatch, check)
    return checked


def test_cold_value_command_products_at_two_random_points(monkeypatch):
    checked = points_checked(cold_value_commands, monkeypatch)
    assert len(checked) > 20 and max(checked) == 400


@pytest.mark.parametrize("name", COLD_RUNS)
def test_cold_products_take_the_exact_width(name, monkeypatch):
    """Each product's slots are as wide as the exact isqrt(sum(a_i^2) * sum(b_j^2)), computed here; the float decides every one."""
    exact = recorded_exact_widths(monkeypatch)
    widths = []

    def check(a, b, product, width):
        n = product.precision
        if not any(a.coeffs[: n + 1]) or not any(b.coeffs[: n + 1]):
            assert width is None  # a zero side packs nothing
        else:
            assert width == exact_width(a.coeffs, b.coeffs, n), n
            widths.append(width)

    cold_products(COLD_RUNS[name], monkeypatch, check)
    assert len(widths) > 20 and max(widths) > 8
    assert exact == []


def assert_fresh(s: QSeries, name: str) -> None:
    """s keeps the _operand of its coefficients, unchanged; a product's read-back may not have its norm yet."""
    ints, d, norm = s._kept_operand
    fresh = series._operand(s.coeffs)
    assert (ints, d) == fresh[:2] and type(ints) is type(fresh[0]), name
    assert norm in (None, fresh[2]), name


def test_a_series_converts_its_operand_once(monkeypatch):
    conversions = []
    operand = series._operand
    monkeypatch.setattr(series, "_operand", lambda coeffs: conversions.append(len(coeffs)) or operand(coeffs))
    for path in SLOT_PATHS:
        conversions.clear()
        with packing(path):
            converts_its_operand_once(operand, conversions, path == "array")


def converts_its_operand_once(operand, conversions: list, by_array: bool) -> None:
    """conversions: the length of each call of operand, the unpatched _operand, from here on."""
    a, b = QSeries([Fraction(1, 3), -2, 2**70, 5]), QSeries([7, Fraction(-1, 2), 3, 0])
    for _ in range(2):
        assert list((a * b).coeffs) == mul_schoolbook(a.coeffs, b.coeffs)
        assert list((b * a).coeffs) == mul_schoolbook(a.coeffs, b.coeffs)
        assert list((a * a).coeffs) == mul_schoolbook(a.coeffs, a.coeffs)
    assert conversions == [4, 4]
    short = b.truncate(2)
    for _ in range(2):  # a's prefix is converted for each product and not kept; short keeps its own
        assert list((a * short).coeffs) == mul_schoolbook(a.coeffs, short.coeffs)
    assert conversions == [4, 4, 3, 3, 3]
    assert a._kept_operand == operand(a.coeffs)
    # an integral product read back as one int64 array keeps it, and fills its norm on first use
    c = QSeries([3, -1, 4, 1]) * QSeries([5, -9, 2, 6])
    assert hasattr(c, "_kept_operand") == by_array
    if by_array:
        assert c._kept_operand[2] is None
    conversions.clear()
    for _ in range(2):
        assert list((c * c).coeffs) == mul_schoolbook(c.coeffs, c.coeffs)
        assert list((c * b).coeffs) == mul_schoolbook(c.coeffs, b.coeffs)
    assert conversions == [4] * (not by_array)
    assert c._kept_operand == operand(c.coeffs)
    # one over a denominator keeps none: its operand is cleared by the lcm of its own denominators
    half = QSeries([Fraction(1, 2), 2]) * QSeries([2, 4])
    assert half.coeffs == (1, 6) and not hasattr(half, "_kept_operand")


def test_shared_series_multiply_under_threads():
    for path in SLOT_PATHS:
        with packing(path):
            multiply_under_threads(path == "array")


def multiply_under_threads(by_array: bool) -> None:
    rng = random.Random(8)
    shared = [QSeries([rng.randrange(-(2**70), 2**70) if i % 3 else Fraction(i, 7) for i in range(80)]) for _ in range(3)]
    # products read back as int64 arrays: the threads race to fill their norms
    small = [QSeries([rng.randrange(-(2**20), 2**20) for _ in range(80)]) for _ in range(4)]
    shared += [small[0] * small[1], small[2] * small[3]]
    assert [hasattr(f, "_kept_operand") for f in shared] == [False] * 3 + [by_array] * 2
    if by_array:
        assert all(f._kept_operand[2] is None for f in shared[3:])
    expected = {(i, j): mul_schoolbook(f.coeffs, g.coeffs) for i, f in enumerate(shared) for j, g in enumerate(shared)}
    workers = 8
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(w):
        start.wait()
        order = sorted(expected, key=lambda ij: (ij[0] + w) % len(shared))  # the workers start on different series
        results[w] = {(i, j): list((shared[i] * shared[j]).coeffs) for i, j in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so two threads race to keep one operand or fill one norm
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * workers
    for f in shared:
        assert f._kept_operand == series._operand(f.coeffs)


def kept_operands() -> list:
    """(name, series) of every memoized theta power and catalog form whose operand a product kept."""
    held = [(f"theta^{k}", lattice.theta_series(k, p)) for (k,), p in lattice.theta_series.stored().items()]
    held += [(name, forms.named_form(name, p).series) for (name,), p in forms.named_form.stored().items()]
    return [(name, s) for name, s in held if hasattr(s, "_kept_operand")]


def test_kept_operands_are_fresh_after_a_cold_verify():
    for path in SLOT_PATHS:
        with packing(path):
            clear_all()
            try:
                identities.verify_all(200)
                kept = kept_operands()
                assert len(kept) >= 10
                for name, s in kept:
                    assert_fresh(s, name)
            finally:
                clear_all()


@pytest.mark.parametrize("n", [60, 2000])
def test_products_of_series_with_kept_operands(n):
    for path in SLOT_PATHS:
        with packing(path):
            products_of_series_with_kept_operands(n)


def products_of_series_with_kept_operands(n: int) -> None:
    rng = random.Random(n)
    clear_all()
    try:
        identities.verify_all(n)
        kept = [s for _, s in kept_operands()]
        for f in kept:
            if n <= 60:  # every pair, each square included
                for g in kept:
                    assert list((f * g).coeffs) == mul_schoolbook(f.coeffs, g.coeffs)
            else:  # too long for the schoolbook: the square and one other product, at a random point
                for g in (f, rng.choice(kept)):
                    assert product_at_point(f.coeffs, g.coeffs, (f * g).coeffs, rng.randrange(2, P61 - 1))
        short = kept[0].truncate(n // 2)  # a prefix of a series with a kept operand
        assert list((kept[-1] * short).coeffs) == mul_schoolbook(kept[-1].coeffs, short.coeffs)
        for s in kept:  # no product changed a kept operand, and each read one with its norm
            assert s._kept_operand == series._operand(s.coeffs)
    finally:
        clear_all()


if hypothesis is None:

    def test_property_tests_need_hypothesis():
        pytest.skip("hypothesis is not installed")

else:
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
    # slot widths w of 1, 2, 3, 4, 6, 8 and 9 bytes, all packed from int64
    # arrays and read back as 64-bit limbs; every width is also a case of
    # test_products_at_exact_slot_widths
    @hypothesis.example([3, -2, 1], [-1, 2, -3])
    @hypothesis.example([100, -50], [-90, 7])
    @hypothesis.example([1000, -999, 5], [-2000, 3, 1])
    @hypothesis.example([2**14, 1], [-(2**15), 1])
    @hypothesis.example([2**20, -3, 0], [-(2**20), 1, 2])
    @hypothesis.example([2**30, 2**30], [-(2**31), -(2**31)])
    @hypothesis.example([2**31, -1], [-(2**32), 5])
    def test_mul_matches_schoolbook(a, b):
        assert (QSeries(a) * QSeries(b)).coeffs == QSeries(mul_schoolbook(a, b)).coeffs


    def bound_width(a, b, n) -> int:
        """The slot width of the bound (n+1) max|a| max|b| over the coefficients 0..n cleared of denominators."""
        ma, mb = (max(map(abs, cleared(x[: n + 1]))) for x in (a, b))
        return (max((n + 1) * ma * mb, ma, mb).bit_length() + 8) // 8

    magnitudes = st.one_of(st.integers(1, 2**130), st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 60)))
    shaped = st.one_of(
        st.lists(coefficients, min_size=1, max_size=30),  # mixed signs, ints and Fractions
        st.integers(1, 30).map(lambda m: [0] * m),  # the zero series
        # +-M: the Cauchy-Schwarz bound is tight
        st.builds(lambda m, signs: [m if s else -m for s in signs], magnitudes, st.lists(st.booleans(), min_size=1, max_size=30)),
        # one huge coefficient among small ones
        st.builds(
            lambda small, i, huge: small[:i] + [huge] + small[i:],
            st.lists(st.integers(-9, 9), max_size=29),
            st.integers(0, 29),
            st.one_of(st.integers(2**60, 2**200), st.integers(-(2**200), -(2**60))),
        ),
    )

    @hypothesis.settings(deadline=None)
    @hypothesis.given(shaped, shaped)
    @hypothesis.example([0, 0, 0], [2**62, 2**62, 2**62, 2**62])  # a zero side packs nothing
    @hypothesis.example([2**62, -(2**62), 2**62, 2**62], [1, 1, -1, 1])  # tight, 9-byte slots
    @hypothesis.example([1, 2, 3, 2**100], [2**100, 0, 0, 7])  # the huge ones meet past n only
    def test_cauchy_schwarz_widths_never_exceed_the_old_bound(a, b):
        for x, y in ((a, b), (a, a)):  # a product and a square
            with pytest.MonkeyPatch.context() as patched:
                packs = recorded_packs(patched)
                s = QSeries(x)
                product = s * (s if y is x else QSeries(y))
            assert product.coeffs == QSeries(mul_schoolbook(x, y)).coeffs
            n = min(len(x), len(y)) - 1
            if not any(x[: n + 1]) or not any(y[: n + 1]):
                assert packs == []
                continue
            (w,) = {width for width, _ in packs}
            assert len(packs) == (1 if y is x else 2)
            assert w == exact_width(x, y, n) <= bound_width(x, y, n)
            if len({abs(v) for v in x[: n + 1]}) == len({abs(v) for v in y[: n + 1]}) == 1:  # +-M times +-N
                assert w == bound_width(x, y, n)

    @hypothesis.settings(deadline=None)
    @hypothesis.given(st.lists(coefficients, min_size=1, max_size=40))
    @hypothesis.example([0, 0])
    @hypothesis.example([3, -2, 1])  # 1-byte slots
    @hypothesis.example([2**30, -(2**30), 7])  # 8-byte slots, whole array items
    @hypothesis.example([2**64 + 1, -5])  # past 2^63 and 17-byte slots: bytes both ways
    @hypothesis.example([Fraction(1, 3), Fraction(-1, 2), 4])
    def test_square_matches_schoolbook(a):
        s = QSeries(a)  # s * s packs once and squares two ints, A(x)^2 and A(-x)^2
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
