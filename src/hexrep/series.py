"""Truncated formal power series in q with integer coefficients.

A series is stored as its coefficients c_0 .. c_N; it is known exactly
modulo q^(N+1) and N is called the precision.  Coefficients are Python
ints only (no bool, float or Fraction), so every operation is exact.
Instances are immutable and safe to share between threads.

A product of two series is one two-point Kronecker substitution: each side
packed once into one int, and two big-int products of half the bits, in
slots as wide as the Cauchy-Schwarz bound needs, read off the float norms of
the sides.  A series keeps the integer operand of its coefficients, with its
norm, from its first product at its full precision, and a product read back
as one 64-bit array keeps that array, so later products do not convert them
again (two threads may both convert an operand or fill a norm, and keep
equal ones).
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections.abc import Callable, Iterable
from math import frexp, hypot, inf, isqrt
from operator import add, mul, sub

DEFAULT_PRECISION = 200


def prefix(values: tuple, precision: int) -> tuple:
    """The entries 0..precision of a table."""
    return values[: precision + 1]


def grow_only(cut: Callable):
    """Memoize f(*key, precision) in one grow-only entry per key.

    Every quantity memoized this way is a table whose entry at n does not
    depend on the precision it was computed at.  The precision is the last
    parameter of f and may come by keyword; the other arguments form the
    key, so f takes no keyword-only parameter.  An entry holds the value at
    the largest precision asked for so far, and the last cut made from it:

    * a request at either precision is served as stored, after one dict
      lookup;
    * a request below the stored precision is served by cut(value,
      precision), which then replaces the entry's last cut, so a loop over
      n at one precision cuts once;
    * a request above it computes at max(precision, 2 * stored) and
      replaces the entry, so a sweep over precisions makes O(log) builds.

    Entries are never replaced by smaller ones, so the memo holds one value
    per key (and one cut of it).  A negative precision is a ValueError.  The
    wrapper has ``__wrapped__``, ``stored()`` (key -> stored precision) and
    ``clear()`` for inspection, and ``discard(*key)``, which drops one
    entry, for a caller that knows the table has no later reader.
    """

    def decorate(fn):
        arity = fn.__code__.co_argcount
        positional = fn.__code__.co_varnames[:arity]
        if positional[-1:] != ("precision",) or fn.__code__.co_kwonlyargcount:
            raise TypeError(f"{fn.__name__}: precision must be the last parameter, and none may be keyword-only")
        entries: dict = {}  # key -> (stored precision, value, cut precision, cut value)

        @functools.wraps(fn)
        def memo(*args, **kwargs):
            if kwargs or len(args) < arity:  # arguments given by keyword go back in their place
                try:
                    args += tuple(kwargs.pop(name) for name in positional[len(args) :])
                except KeyError as missing:
                    raise TypeError(f"{fn.__name__}() missing argument {missing}") from None
                if kwargs:
                    raise TypeError(f"{fn.__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
            key = args[:-1]
            precision = args[-1]
            entry = entries.get(key)
            if entry is not None:
                if precision == entry[0]:
                    return entry[1]
                if precision == entry[2]:
                    return entry[3]
            if precision < 0:
                raise ValueError("precision must be >= 0")
            if entry is None or precision > entry[0]:
                grown = precision if entry is None else max(precision, 2 * entry[0])
                value = fn(*key, grown)
                entries[key] = entry = (grown, value, grown, value)
                if grown == precision:
                    return value
            value = cut(entry[1], precision)
            entries[key] = (entry[0], entry[1], precision, value)
            return value

        memo.stored = lambda: {key: entry[0] for key, entry in entries.items()}
        memo.clear = entries.clear
        memo.discard = lambda *key: entries.pop(key, None)
        return memo

    return decorate


def power_split(exponent: int) -> int:
    """The h of the split f^e = f^h * f^(e - h), e >= 2: e / 2 for a power of two, else the top bit of e.

    Every power made by this rule splits into powers of two and smaller
    powers made by it, so the powers of one series share one ladder of
    squarings, each power a single product (Knuth, TAOCP vol. 2, 4.6.3).
    """
    top = 1 << (exponent.bit_length() - 1)
    return top >> 1 if top == exponent else top


class ZeroConstantTerm(ValueError):
    """Raised when inverting a series whose constant coefficient is zero."""


class OutOfPrecision(ValueError):
    """Raised when a coefficient beyond the stored truncation is requested."""


def _check_ints(kinds: Iterable[type]) -> None:
    """Refuse any coefficient type but int itself: a bool, a float or a Fraction, even an integral one, is a TypeError."""
    for kind in kinds:
        if kind is not int:
            raise TypeError(f"coefficients must be int, got {kind.__name__}")


#: the sign fill of a slot by its top byte: 0xFF if the top bit is set, else 0
_SIGN_FILL = bytes(255 * (b >> 7) for b in range(256))

#: each byte with its top bit flipped: the top byte of a two's complement slot in offset binary
_TOP_FLIP = bytes(b ^ 0x80 for b in range(256))

#: a relative error above that of the product of two _norm floats (each int rounds by at most
#: 2^-53, hypot is within 1 ulp of its rounded inputs, the product rounds once: under 2^-49)
_NORM_ERROR = 2.0**-40


def _int64(ints) -> array | None:
    """The ints as one signed 64-bit array, or None: an int outside [-2^63, 2^63), or a big-endian host."""
    try:
        return array("q", ints) if sys.byteorder == "little" else None
    except OverflowError:
        return None


def _norm(ints) -> float:
    """sqrt(sum(ints[i]^2)) as a float, by hypot: inf for ints past the float range."""
    try:
        return hypot(*ints)
    except OverflowError:  # an int of 2^1024 or more
        return inf


def _operand(coeffs: tuple) -> tuple[array | tuple, float]:
    """(ints, norm): the coefficients as an _int64 array if they fit, else as they are, and their _norm."""
    return _int64(coeffs) or coeffs, _norm(coeffs)


def _width(a, na: float, b, nb: float) -> int:
    """The byte width, sign bit included, of isqrt(sum(a_i^2) * sum(b_j^2)), for na, nb the _norm of a and b, both nonzero.

    For r = sqrt(sum(a_i^2) * sum(b_j^2)) >= 1 the isqrt has bit length L,
    the frexp exponent of r, and takes L // 8 + 1 bytes.  The float na * nb
    is within _NORM_ERROR of r, so when both ends of that bracket take one
    width r takes it too; when they straddle a byte boundary, or a norm
    overflowed, the exact isqrt decides.
    """
    r = na * nb
    if r < inf:
        low = frexp(r * (1 - _NORM_ERROR))[1] // 8
        if low == frexp(r * (1 + _NORM_ERROR))[1] // 8:
            return low + 1
    return (isqrt(sum(map(mul, a, a)) * sum(map(mul, b, b))).bit_length() + 8) // 8


def _signed_flip(width: int, count: int) -> int:
    """The int with the top bit of each of count width-byte slots set."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _restride(raw: bytes, size: int, start: int, stop: int, count: int) -> bytearray:
    """Bytes start .. stop-1 of each size-byte slot of raw as 8-byte slots, filled above with their sign."""
    out = bytearray(8 * count)
    for j in range(start, stop):
        out[j - start :: 8] = raw[j::size]
    sign = raw[stop - 1 :: size].translate(_SIGN_FILL)
    for j in range(stop - start, 8):
        out[j::8] = sign
    return out


def _pack(ints, width: int, flip: int) -> tuple[int, int]:
    """(V, L): V = sum((ints[i] + l) * X^i), X = 2^(8 width), every slot lifted to 0 <= ints[i] + l < X, and L = sum(l * X^i).

    For |ints[i]| < X/2 and flip = _signed_flip(width, len(ints)): l = X/2 (L = flip), each slot in two's
    complement with its top bit flipped, but l = 2^63 for an _int64 array in slots past 8 bytes, each slot
    its item's bytes with the top bit of byte 7 flipped, zero above.
    """
    if not isinstance(ints, array):
        cut = b"".join(c.to_bytes(width, "little", signed=True) for c in ints)
        return int.from_bytes(cut, "little") ^ flip, flip
    raw = ints.tobytes()
    if width == 8:
        return int.from_bytes(raw, "little") ^ flip, flip
    top = min(width, 8) - 1
    out = bytearray(width * len(ints))
    for j in range(top):
        out[j::width] = raw[j::8]
    out[top::width] = raw[top::8].translate(_TOP_FLIP)
    return int.from_bytes(out, "little"), flip >> (8 * (width - 1 - top))


def _unpack(value: int, width: int, flip: int, count: int) -> array | list:
    """The ints[i] in [-X/2, X/2) with sum(ints[i] * X^i) = value mod X^count, for flip = _signed_flip(width, count).

    One _int64 array when each fits in 64 bits, width <= 16 and the host is little-endian, else a list.
    """
    size = width * count
    raw = (((value + flip) & ((1 << (8 * size)) - 1)) ^ flip).to_bytes(size, "little")
    if width > 16 or sys.byteorder != "little":
        return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, size, width)]
    low = raw if width == 8 else _restride(raw, width, 0, min(width, 8), count)
    if width > 8:  # int64 slots when every byte above byte 7 is its sign fill
        sign = raw[7::width].translate(_SIGN_FILL)
        if any(raw[j::width] != sign for j in range(8, width)):
            return _two_limb(raw, low, width, count)
    return array("q", low)


def _two_limb(raw: bytes, low: bytearray, width: int, count: int) -> list:
    """The count width-byte slots of raw, 8 < width <= 16, as a signed 64-bit limb above the unsigned one of low."""
    high = _restride(raw, width, 8, width, count)
    return [lo + (hi << 64) for lo, hi in zip(array("Q", low).tolist(), array("q", high).tolist())]


def _plus_minus(ints, width: int, flip: int) -> tuple[int, int]:
    """(A(x), A(-x)), A(x) = sum(ints[i] * x^i), x = 2^(4 width): one _pack, evens below odds, by _signed_flip(width, len(ints))."""
    cut = 8 * width * ((len(ints) + 1) // 2)  # the bits of the even slots
    mask = (1 << cut) - 1
    value, lift = _pack(ints[0::2] + ints[1::2], width, flip)  # slots lifted to >= 0: the split borrows nothing
    even = (value & mask) - (lift & mask)
    odd = ((value >> cut) - (lift >> cut)) << (4 * width)
    return even + odd, even - odd


class QSeries:
    """An immutable power series sum(c_n * q^n, 0 <= n <= precision)."""

    __slots__ = ("_coeffs", "_kept_operand")  # the _operand of _coeffs, set by the product making or first reading it

    def __init__(self, coeffs: Iterable, precision: int | None = None):
        cs = list(coeffs)
        _check_ints(set(map(type, cs)))
        if precision is not None:
            if precision < 0:
                raise ValueError("precision must be >= 0")
            del cs[precision + 1 :]
            cs.extend([0] * (precision + 1 - len(cs)))
        elif not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tuple(cs)

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "QSeries":
        """A series on a tuple of ints made by hexrep itself: not checked again."""
        series = object.__new__(cls)
        series._coeffs = coeffs
        return series

    @classmethod
    def zero(cls, precision: int) -> "QSeries":
        return cls([0], precision=precision)

    @classmethod
    def one(cls, precision: int) -> "QSeries":
        return cls([1], precision=precision)

    @property
    def precision(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.precision:
            raise OutOfPrecision(
                f"coefficient {n} requested, series only known for 0..{self.precision}"
            )
        return self._coeffs[n]

    def truncate(self, precision: int) -> "QSeries":
        if precision < 0:
            raise ValueError("precision must be >= 0")
        if precision > self.precision:
            raise OutOfPrecision(
                f"cannot extend precision {self.precision} to {precision}"
            )
        if precision == self.precision:
            return self
        return QSeries._trusted(self._coeffs[: precision + 1])

    def _operand_at(self, n: int) -> tuple[array | tuple, float]:
        """The _operand of the coefficients 0..n; at the full precision it is computed once and kept."""
        if n < len(self._coeffs) - 1:
            return _operand(self._coeffs[: n + 1])
        try:
            operand = self._kept_operand
        except AttributeError:
            self._kept_operand = operand = _operand(self._coeffs)
            return operand
        if operand[1] is None:  # a product's read-back: its norm is filled on first use
            self._kept_operand = operand = (operand[0], _norm(self._coeffs))
        return operand

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QSeries):
            return QSeries._trusted(tuple(map(add, self._coeffs, other._coeffs)))
        if isinstance(other, int):
            _check_ints((type(other),))
            return QSeries._trusted((self._coeffs[0] + other,) + self._coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QSeries._trusted(tuple(map(int.__neg__, self._coeffs)))

    def __sub__(self, other):
        if isinstance(other, QSeries):
            return QSeries._trusted(tuple(map(sub, self._coeffs, other._coeffs)))
        if isinstance(other, int):
            _check_ints((type(other),))
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product truncated at the smaller precision, by two-point Kronecker substitution.

        Both sides are packed once each into w-byte slots, even-indexed
        coefficients below odd ones, and evaluated at x = 2^(4w) and -x; the
        products P(x), P(-x) of half the bits give the even and odd
        coefficients, (P(x) + P(-x)) / 2 and (P(x) - P(-x)) / 2x, in w-byte
        slots again (Harvey, J. Symbolic Comput. 44, 2009).  w is
        the byte width of the Cauchy-Schwarz bound isqrt(sum(a_i^2) *
        sum(b_j^2)): it bounds every coefficient of the full product, those
        past n that P(x) and P(-x) carry too, and every input coefficient, and
        it never exceeds the bound (n+1) * max|a| * max|b|; ``_width`` reads
        it off the product of the sides' float norms.  A zero side gives the
        zero product, packing nothing.  ``_pack`` lifts every slot to a value
        >= 0, so no slot borrows from its neighbour when split, and packs an
        operand whose ints all fit in 64 bits from one signed 64-bit array at
        any w.  Read-back adds flip, the top bit of every slot, for the same
        reason; on a little-endian host a w of at most 16 is read back as one
        64-bit array when every slot's bytes above byte 7 are its sign fill,
        else as 64-bit limbs, and larger ints and wider slots go through
        bytes one coefficient at a time.  A series times itself is packed
        once and squared twice.  Each side's operand at its full precision,
        with its norm, is kept on the series (``_operand_at``) and never
        mutated, so a memoized series feeding several products is converted
        once; a product read back as one 64-bit array keeps that array as its
        operand, its norm filled on first use.  A product with an int c is
        c times each coefficient.
        """
        if isinstance(other, QSeries):
            n = min(self.precision, other.precision)
            a, na = self._operand_at(n)
            b, nb = (a, na) if other is self else other._operand_at(n)
            if not (na and nb):
                return QSeries._trusted((0,) * (n + 1))
            w = _width(a, na, b, nb)
            flip = _signed_flip(w, n + 1)
            a = _plus_minus(a, w, flip)
            b = a if other is self else _plus_minus(b, w, flip)
            plus, minus = a[0] * b[0], a[1] * b[1]
            half = n // 2 + 1  # the even coefficients, read back below the odd ones
            mask = (1 << (8 * w * half)) - 1
            low = flip & mask
            even = ((((plus + minus) >> 1) + low) & mask) - low  # cut to half slots, signed
            odd = (plus - minus) >> (4 * w + 1)
            ints = _unpack(even + (odd << (8 * w * half)), w, flip, n + 1)
            ints[0::2], ints[1::2] = ints[:half], ints[half:]
            product = QSeries._trusted(tuple(ints))
            if isinstance(ints, array):
                product._kept_operand = (ints, None)
            return product
        if isinstance(other, int):
            _check_ints((type(other),))
            return QSeries._trusted(tuple(map(other.__mul__, self._coeffs)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        if exponent == 0:
            return QSeries.one(self.precision)
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def invert(self) -> "QSeries":
        """Multiplicative inverse at the same precision, of a series with constant term a_0 = 1 or -1.

        Uses the term-by-term recurrence b_0 = a_0, b_n = -a_0 * sum(a_i * b_(n-i), 1 <= i <= n),
        over the nonzero a_i only: O(precision * nonzero terms).  Any other a_0 has no integer
        inverse and is a ValueError (ZeroConstantTerm for 0).
        """
        a = self._coeffs
        a0 = a[0]
        if a0 == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        if a0 not in (1, -1):
            raise ValueError(f"constant term {a0} is not 1 or -1: the inverse is not an integer series")
        n = self.precision
        support = [(i, ai) for i, ai in enumerate(a) if i and ai]
        out: list = [a0] + [0] * n
        for m in range(1, n + 1):
            out[m] = -a0 * sum([ai * out[m - i] for i, ai in support if i <= m])
        return QSeries._trusted(tuple(out))

    # -- substitutions -----------------------------------------------------

    def scale_argument(self, m: int) -> "QSeries":
        """The substitution q -> q^m (realizes f(mz)); precision is preserved."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("scale factor must be a positive integer")
        if m == 1:
            return self
        n = self.precision
        out = [0] * (n + 1)
        out[::m] = self._coeffs[: n // m + 1]
        return QSeries._trusted(tuple(out))

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (k >= 0); precision is preserved."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("shift must be a non-negative integer")
        if k == 0:
            return self
        n = self.precision
        return QSeries._trusted(((0,) * k + self._coeffs)[: n + 1])

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if self.precision >= 6 else ""
        return f"QSeries([{head}{tail}], precision={self.precision})"

