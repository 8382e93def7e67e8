"""The integer-triple Q[i] kernel against the Fraction-pair reference."""
import math
import operator
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import FractionQI
from starquant.poly import Polynomial
from starquant.rational import QI

fractions = st.one_of(st.integers(-50, 50),
                      st.fractions(max_denominator=10 ** 12))
pairs = st.builds(lambda re, im: (QI(re, im), FractionQI(re, im)),
                  fractions, fractions)
finite = {"allow_nan": False, "allow_infinity": False}
scalars = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.booleans(),
                    st.fractions(), st.floats(**finite),
                    st.complex_numbers(**finite))


def same(q: QI, ref: FractionQI) -> bool:
    return (type(q) is QI and type(q.re) is Fraction
            and type(q.im) is Fraction
            and (q.re, q.im) == (ref.re, ref.im))


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


class TestAgainstFractionPairs:
    @given(pairs, pairs)
    @settings(max_examples=300)
    def test_binary_ops(self, x, y):
        (q, qr), (p, pr) = x, y
        for op in (operator.add, operator.sub, operator.mul):
            assert same(op(q, p), op(qr, pr))
        if pr.re == 0 and pr.im == 0:
            with pytest.raises(ZeroDivisionError):
                q / p
        else:
            assert same(q / p, qr / pr)
        assert (q == p) == (qr == pr)

    @given(pairs, scalars)
    @settings(max_examples=300)
    def test_mixed_operands(self, x, s):
        q, qr = x
        sr = FractionQI.try_coerce(s)
        assert same(q + s, qr + sr) and same(s + q, sr + qr)
        assert same(q - s, qr - sr) and same(s - q, sr - qr)
        assert same(q * s, qr * sr) and same(s * q, sr * qr)
        if sr != 0:
            assert same(q / s, qr / sr)
        if qr != 0:
            assert same(s / q, sr / qr)

    @given(pairs, st.integers(0, 6))
    def test_unary_and_powers(self, x, k):
        q, qr = x
        assert same(-q, -qr)
        assert same(q.conjugate(), qr.conjugate())
        assert same(q ** k, qr ** k)

    @given(pairs)
    def test_floats_are_bit_equal(self, x):
        q, qr = x
        assert bits(q.to_complex()) == bits(qr.to_complex())
        assert struct.pack("<d", abs(q)) == struct.pack("<d", abs(qr))

    @given(pairs)
    @example((QI(Fraction(-6, 4), Fraction(10, -8)),
              FractionQI(Fraction(-6, 4), Fraction(10, -8))))
    @example((QI(Fraction(2, 4), Fraction(-1, 6)),
              FractionQI(Fraction(2, 4), Fraction(-1, 6))))
    def test_normal_form(self, x):
        q, qr = x
        a, b, d = q._abd
        assert all(type(v) is int for v in (a, b, d))
        assert d > 0 and math.gcd(a, b, d) == 1
        assert q.re == Fraction(a, d) and q.im == Fraction(b, d)
        assert q.is_zero() == (qr.re == 0 and qr.im == 0)
        if q.is_zero():
            assert q._abd == (0, 0, 1)

    @given(scalars)
    def test_eq_and_hash_with_scalars(self, s):
        q, ref = QI.coerce(s), FractionQI.try_coerce(s)
        assert same(q, ref)
        assert q == s and s == q and not q != s
        assert hash(q) == hash(s)
        if ref.im == 0:
            assert hash(q) == hash(ref)

    @given(st.integers(-10 ** 20, 10 ** 20), st.integers(-10 ** 20, 10 ** 20),
           st.integers(0, 60))
    def test_hash_is_the_complex_hash(self, a, b, e):
        """Equal values hash alike: a QI equal to a complex with dyadic
        parts hashes as it does (hash(re) + sys.hash_info.imag hash(im),
        wrapped to a signed word), so either finds the other in a dict."""
        z = complex(a / 2 ** e, b / 2 ** e)
        q = QI.coerce(z)
        assert q == z and hash(q) == hash(z)
        assert {z: "z"}.get(q) == "z" and {q: "q"}.get(z) == "q"

    def test_hash_wraps_like_complex(self):
        """hash(re) + imag hash(im) == -1 maps to -2, as for a complex."""
        z = complex(-1 - sys.hash_info.imag, 1)
        assert hash(z) == -2 and hash(QI(-1 - sys.hash_info.imag, 1)) == -2
        assert hash(QI(1, 2)) == hash(1 + 2j)

    @given(pairs, scalars)
    def test_eq_agrees_with_the_reference(self, x, s):
        q, qr = x
        assert (q == s) == (qr == s)
        assert (q != s) == (not qr == s)


class TestSurface:
    def test_parts_are_read_only_fractions(self):
        q = QI(Fraction(3, 4), -2)
        assert q.re == Fraction(3, 4) and type(q.re) is Fraction
        assert q.im == -2 and type(q.im) is Fraction
        for name in ("re", "im", "_abd", "other"):
            with pytest.raises(AttributeError):
                setattr(q, name, 1)

    def test_repr(self):
        assert repr(QI(Fraction(1, 2))) == "QI(1/2)"
        assert repr(QI(3, Fraction(-1, 4))) == "QI(3, -1/4)"

    @pytest.mark.parametrize("num,den", [
        (QI(1), 0), (QI(1), QI(0)), (1, QI(0)), (Fraction(1, 2), QI(0)),
        (QI(0, 1), 0.0), (QI(2), 0j)])
    def test_zero_division(self, num, den):
        with pytest.raises(ZeroDivisionError):
            num / den

    def test_non_scalars(self):
        q = QI(1)
        assert QI.try_coerce("1") is None and QI.try_coerce(None) is None
        assert q != "1" and not q == [1]
        with pytest.raises(TypeError):
            q + "1"
        with pytest.raises(TypeError):
            QI.coerce(object())
        with pytest.raises(TypeError):
            QI(1j)


class TestNonFiniteFloats:
    @pytest.mark.parametrize("x", [
        math.nan, math.inf, -math.inf, complex(math.nan, 0),
        complex(0, math.inf)])
    def test_compare_unequal(self, x):
        for lhs in (QI(1), QI(0), Polynomial.constant(2, 1),
                    Polynomial.zero(2)):
            assert not lhs == x and lhs != x
            assert not x == lhs and x != lhs

    @pytest.mark.parametrize("x,error", [
        (math.nan, ValueError), (math.inf, OverflowError),
        (-math.inf, OverflowError), (complex(math.nan, 1), ValueError),
        (complex(1, math.inf), OverflowError)])
    def test_arithmetic_raises(self, x, error):
        q, p = QI(1), Polynomial.variable(2, 0)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            with pytest.raises(error):
                op(q, x)
            with pytest.raises(error):
                op(x, q)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(error):
                op(p, x)
            with pytest.raises(error):
                op(x, p)
        with pytest.raises(error):
            QI.coerce(x)
