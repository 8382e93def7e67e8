"""Exact Gaussian-rational scalars.

All symbolic coefficients in the engine live in Q[i].  A QI stores one
normalised integer triple (a, b, d) with value (a + b i)/d, d > 0 and
gcd(a, b, d) == 1, so zero is 0/1 and equal values have equal triples.
A ring operation is a few integer products and one gcd.  Floats
entering from numeric weight estimates are converted exactly (every
float is a dyadic rational), so downstream arithmetic stays exact and
reproducible.
"""
from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from math import gcd
from numbers import Rational


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact real scalar; a float is
    read exactly, and NaN or an infinity raises as Fraction(x) does."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if isinstance(x, float):
        return x.as_integer_ratio()
    if isinstance(x, Rational):  # includes bool, Fraction subclasses
        f = Fraction(x)
        return int(f.numerator), int(f.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class QI:
    """A Gaussian rational (a + b i)/d in normal form."""

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        a, da = _ratio(re)
        b, db = _ratio(im)
        a, b, d = a * db, b * da, da * db
        g = gcd(a, b, d)
        _set(self, (a, b, d) if g == 1 else (a // g, b // g, d // g))

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # -- coercion -----------------------------------------------------
    @staticmethod
    def try_coerce(x) -> "QI | None":
        """QI view of a scalar, or None if x is no scalar at all."""
        if isinstance(x, QI):
            return x
        if isinstance(x, complex):
            return QI(x.real, x.imag)
        if isinstance(x, (Rational, float)):
            return QI(x)
        return None

    @staticmethod
    def coerce(x) -> "QI":
        q = QI.try_coerce(x)
        if q is None:
            raise TypeError(
                f"cannot interpret {type(x).__name__} as a Gaussian rational")
        return q

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        t = other._abd if type(other) is QI else _triple(other)
        if t is None:
            return NotImplemented
        a, b, d = self._abd
        c, e, f = t
        if d == f:
            return _make(a + c, b + e, d)
        return _make(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        a, b, d = self._abd
        c, e, f = t
        return _make(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        a, b, d = self._abd
        c, e, f = t
        return _make(c * d - a * f, e * d - b * f, d * f)

    def __mul__(self, other):
        t = other._abd if type(other) is QI else _triple(other)
        if t is None:
            return NotImplemented
        a, b, d = self._abd
        c, e, f = t
        return _make(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _divide(self._abd, t)

    def __rtruediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _divide(t, self._abd)

    def __neg__(self):
        a, b, d = self._abd
        return _make(-a, -b, d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("QI powers must be non-negative integers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ------------------------------------------------------
    def conjugate(self) -> "QI":
        a, b, d = self._abd
        return _make(a, -b, d)

    def is_zero(self) -> bool:
        return self._abd == _ZERO_ABD

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __eq__(self, other):
        if type(other) is QI:
            return self._abd == other._abd
        if isinstance(other, (float, complex)) and not cmath.isfinite(other):
            return False
        t = _triple(other)
        if t is None:
            return NotImplemented
        return self._abd == t

    def __hash__(self):
        # CPython's complex hash, so QI(1, 2) hashes like 1+2j: hash(re)
        # + imag hash(im) wrapped to a signed word, -1 taken to -2
        h = (hash(self.re) + _HASH.imag * hash(self.im)) % _WORD
        h -= _WORD if h >= _WORD >> 1 else 0
        return -2 if h == -1 else h

    def __repr__(self):
        if self._abd[1] == 0:
            return f"QI({self.re})"
        return f"QI({self.re}, {self.im})"


_new = object.__new__
_set = QI._abd.__set__
_ZERO_ABD = (0, 0, 1)
_HASH = sys.hash_info
_WORD = 1 << _HASH.width


def _make(a: int, b: int, d: int) -> QI:
    """The QI (a + b i)/d for d > 0, in normal form."""
    g = gcd(a, b, d)
    q = _new(QI)
    _set(q, (a, b, d) if g == 1 else (a // g, b // g, d // g))
    return q


def _triple(x) -> tuple | None:
    """The normal triple of a scalar, or None if x is no scalar."""
    if type(x) is int:
        return x, 0, 1
    q = QI.try_coerce(x)
    return None if q is None else q._abd


def _divide(s: tuple, t: tuple) -> QI:
    """s / t on normal triples: (a + b i)/d over (c + e i)/f is
    (a + b i)(c - e i) f / (d (c^2 + e^2))."""
    a, b, d = s
    c, e, f = t
    n = c * c + e * e
    if n == 0:
        raise ZeroDivisionError("division by zero in Q[i]")
    return _make((a * c + b * e) * f, (b * c - a * e) * f, d * n)


I = QI(0, 1)
ZERO = QI(0)
ONE = QI(1)
