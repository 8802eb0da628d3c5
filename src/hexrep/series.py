"""Truncated formal power series in q with exact rational coefficients.

A series is stored as its coefficients c_0 .. c_N; it is known exactly
modulo q^(N+1) and N is called the precision.  Coefficients are Python
ints or Fractions, never floats, so every operation in this module is
exact.  Instances are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

Coeff = Union[int, Fraction]

DEFAULT_PRECISION = 200


class ZeroConstantTerm(ValueError):
    """Raised when inverting a series whose constant coefficient is zero."""


class OutOfPrecision(ValueError):
    """Raised when a coefficient beyond the stored truncation is requested."""


def _as_coeff(value) -> Coeff:
    """Validate and normalize a coefficient (Fractions with denominator 1 become ints)."""
    if isinstance(value, bool):
        raise TypeError("coefficients must be int or Fraction, not bool")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


def _integral(coeffs: tuple) -> tuple[list[int], int]:
    """Integers c * d for the coefficients c, with d the lcm of their denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _pack(ints: list[int], width: int, half: int) -> int:
    """The int with slot i (width bytes, little-endian) holding ints[i] + half."""
    return int.from_bytes(b"".join((c + half).to_bytes(width, "little") for c in ints), "little")


class QSeries:
    """An immutable power series sum(c_n * q^n, 0 <= n <= precision)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable, precision: int | None = None):
        cs = [_as_coeff(c) for c in coeffs]
        if precision is not None:
            if precision < 0:
                raise ValueError("precision must be >= 0")
            del cs[precision + 1 :]
            cs.extend([0] * (precision + 1 - len(cs)))
        elif not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tuple(cs)

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

    def coefficient(self, n: int) -> Coeff:
        if not 0 <= n <= self.precision:
            raise OutOfPrecision(
                f"coefficient {n} requested, series only known for 0..{self.precision}"
            )
        return self._coeffs[n]

    def truncate(self, precision: int) -> "QSeries":
        if precision > self.precision:
            raise OutOfPrecision(
                f"cannot extend precision {self.precision} to {precision}"
            )
        return QSeries(self._coeffs[: precision + 1])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QSeries):
            n = min(self.precision, other.precision)
            a, b = self._coeffs, other._coeffs
            return QSeries([a[i] + b[i] for i in range(n + 1)])
        if isinstance(other, (int, Fraction)):
            cs = list(self._coeffs)
            cs[0] += other
            return QSeries(cs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, (QSeries, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product truncated at the smaller precision, by Kronecker substitution.

        Both sides, cleared of denominators, are evaluated at X = 2^(8w) as
        one int each and multiplied.  The w-byte slots hold coefficients
        offset by X/2, so signed values never carry into a neighbour; w fits
        every input coefficient and the product bound (n+1) * max|a| * max|b|.
        """
        if isinstance(other, QSeries):
            n = min(self.precision, other.precision)
            a, da = _integral(self._coeffs[: n + 1])
            b, db = _integral(other._coeffs[: n + 1])
            ma, mb = max(map(abs, a)), max(map(abs, b))
            bits = max((n + 1) * ma * mb, ma, mb).bit_length() + 1
            w = (bits + 7) // 8
            half, size = 1 << (8 * w - 1), w * (n + 1)
            offset = int.from_bytes(half.to_bytes(w, "little") * (n + 1), "little")
            packed = (_pack(a, w, half) - offset) * (_pack(b, w, half) - offset)
            low = ((packed + offset) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            out = [int.from_bytes(low[i : i + w], "little") - half for i in range(0, size, w)]
            den = da * db
            return QSeries(out if den == 1 else [Fraction(c, den) for c in out])
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = QSeries.one(self.precision)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def invert(self) -> "QSeries":
        """Multiplicative inverse at the same precision.

        Uses the term-by-term recurrence b_0 = 1/a_0,
        b_n = -(1/a_0) * sum(a_i * b_(n-i), 1 <= i <= n).
        """
        a = self._coeffs
        if a[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        inv0 = _as_coeff(Fraction(1, 1) / a[0])
        n = self.precision
        out: list = [inv0] + [0] * n
        for m in range(1, n + 1):
            acc = 0
            for i in range(1, m + 1):
                ai = a[i]
                if ai:
                    acc += ai * out[m - i]
            out[m] = _as_coeff(-inv0 * acc) if acc else 0
        return QSeries(out)

    # -- substitutions -----------------------------------------------------

    def scale_argument(self, m: int) -> "QSeries":
        """The substitution q -> q^m (realizes f(mz)); precision is preserved."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("scale factor must be a positive integer")
        if m == 1:
            return self
        n = self.precision
        out = [0] * (n + 1)
        for i in range(n // m + 1):
            out[m * i] = self._coeffs[i]
        return QSeries(out)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (k >= 0); precision is preserved."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("shift must be a non-negative integer")
        if k == 0:
            return self
        n = self.precision
        return QSeries(([0] * k + list(self._coeffs))[: n + 1])

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
