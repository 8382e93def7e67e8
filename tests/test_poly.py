"""Exact polynomial ring and Gaussian-rational scalar checks."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (random_polynomial, reference_add, reference_diff,
                     reference_mul, reference_neg, reference_scale)
from starquant.errors import DimensionMismatchError
from starquant.poly import Polynomial
from starquant.rational import QI, I


def polys(dim=2):
    return st.builds(
        lambda seed: random_polynomial(random.Random(seed), dim),
        st.integers(0, 10 ** 6))


# few coefficients and exponents, so sums and products cancel often
coeffs = st.builds(QI, st.sampled_from([-1, Fraction(1, 2), 2]),
                   st.sampled_from([0, 0, -1, Fraction(1, 3)]))
gaussian_polys = st.builds(
    lambda terms: Polynomial(2, terms),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    coeffs, max_size=6))


class TestQI:
    def test_formal_i(self):
        assert I * I == QI(-1)
        assert (I ** 3) == -I
        assert QI(Fraction(1, 2), 3).conjugate() == QI(Fraction(1, 2), -3)

    def test_float_is_exact(self):
        c = QI.coerce(0.1)
        assert c.re == Fraction(0.1)  # dyadic, not 1/10
        assert QI.coerce(0.5).re == Fraction(1, 2)

    def test_division(self):
        assert I / 2 * 2 == I
        assert (QI(1, 1) / QI(1, 1)) == QI(1)
        with pytest.raises(ZeroDivisionError):
            QI(1) / QI(0)

    def test_arith(self):
        a, b = QI(2, 3), QI(Fraction(-1, 2), 5)
        assert a + b == QI(Fraction(3, 2), 8)
        assert a * b == QI(2 * Fraction(-1, 2) - 15, 10 + Fraction(-3, 2))
        assert a - a == QI(0)
        assert abs(QI(3, 4)) == pytest.approx(5.0)


class TestPolynomialRing:
    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys(), polys())
    @settings(max_examples=60)
    def test_derivation(self, p, q):
        for i in range(2):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)

    @given(st.integers(0, 10 ** 6),
           st.lists(st.integers(0, 2), max_size=4).map(sorted).map(tuple))
    @settings(max_examples=100)
    def test_derivative_is_the_chained_diff(self, seed, multi):
        """derivative reads d^multi and each prefix from the memo it
        fills; the memo changes neither equality nor hash."""
        p = random_polynomial(random.Random(seed), 3, max_degree=5,
                              n_terms=6)
        copy, h = Polynomial(p.dim, p.terms), hash(p)
        want = p
        for k, i in enumerate(multi):
            want = want.diff(i)
            assert p.derivative(multi[:k + 1]) == want
        d = p.derivative(multi)
        assert d == want and d is p.derivative(multi)
        assert p == copy and hash(p) == h == hash(copy)

    def test_eval(self):
        d = 2
        p = Polynomial.variable(d, 0) ** 2 * 3 + Polynomial.variable(d, 1) - 1
        assert p.eval_exact((2, 5)) == QI(16)
        assert p.eval_exact((Fraction(1, 2), 0)) == QI(Fraction(-1, 4))
        x, y = Polynomial.variable(d, 0), Polynomial.variable(d, 1)
        q = x * x * y + x * x * I + x * y ** 3  # shared powers of x
        a, b = Fraction(2, 3), Fraction(-3, 2)
        assert q.eval_exact((a, b)) == QI(a * a * b + a * b ** 3, a * a)

    def test_zero_handling(self):
        d = 2
        z = Polynomial.variable(d, 0) - Polynomial.variable(d, 0)
        assert z.is_zero() and z == Polynomial.zero(d)
        assert z.degree() == -1

    @pytest.mark.parametrize("exps", [
        (1.5, 0), (1.0, 0), (True, 0), (0, False), (Fraction(1), 0),
        ("1", 0), (-1, 0), (1,), (1, 0, 0)])
    def test_rejects_bad_exponents(self, exps):
        with pytest.raises(DimensionMismatchError):
            Polynomial(2, {exps: 1})

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial.variable(2, 0) + Polynomial.variable(3, 0)

    def test_eq_with_non_scalars(self):
        x = Polynomial.variable(2, 0)
        for other in (None, "x0", object(), [1]):
            assert not x == other
            assert x != other
            assert not Polynomial.zero(2) == other
        assert Polynomial.constant(2, 3) == 3
        assert Polynomial.zero(2) == 0
        assert x != 1

    def test_conjugate(self):
        p = Polynomial.constant(1, I) * Polynomial.variable(1, 0)
        assert p.conjugate() == Polynomial.constant(1, -I) * Polynomial.variable(1, 0)

    def test_json_round_trip(self):
        p = (Polynomial.variable(2, 0) * QI(Fraction(2, 3), Fraction(-1, 7))
             + Polynomial.constant(2, 5))
        assert Polynomial.from_json_obj(2, p.to_json_obj()) == p

    def test_abs_coeffs(self):
        p = Polynomial.constant(1, QI(-2, 0)) + Polynomial.variable(1, 0) * I
        assert p.max_abs_coeff() == pytest.approx(2.0)


def identical(p: Polynomial, q: Polynomial) -> bool:
    """Equal dim and equal terms in equal iteration order."""
    return p.dim == q.dim and list(p.terms.items()) == list(q.terms.items())


class TestTrustedOps:
    """Ring operations skip re-validating their results; each must
    still return what the validating constructor and the reference
    accumulation give, term order included."""

    @given(gaussian_polys, gaussian_polys, coeffs, st.integers(-2, 2))
    @settings(max_examples=200)
    def test_matches_the_validating_constructor(self, p, q, c, n):
        cases = [(p + q, reference_add(p, q)),
                 (p + (-p), reference_add(p, reference_neg(p))),
                 (-p, reference_neg(p)),
                 (p * q, reference_mul(p, q)),
                 (p * c, reference_scale(p, c)),
                 (n * p, reference_scale(p, n)),
                 (p.diff(0), reference_diff(p, 0)),
                 (p.diff(1), reference_diff(p, 1))]
        for got, want in cases:
            assert identical(got, want)
            assert identical(got, Polynomial(got.dim, got.terms))
            assert all(type(v) is QI and not v.is_zero()
                       for v in got.terms.values())
            assert all(type(e) is tuple and all(type(k) is int for k in e)
                       for e in got.terms)

    def test_a_cancelled_monomial_rejoins_at_the_end(self):
        """x^3 cancels after two products and returns with the third,
        so it comes last, as adding the products one by one gives."""
        p = Polynomial(1, {(0,): 1, (2,): -1, (1,): -1})
        q = Polynomial(1, {(1,): 1, (2,): 1, (3,): 1})
        assert identical(p * q, reference_mul(p, q))
        assert list((p * q).terms) == [(1,), (4,), (5,), (3,)]

    def test_results_do_not_share_terms(self):
        p = Polynomial.variable(2, 0)
        one = Polynomial.constant(2, 1)
        for r in (p + Polynomial.zero(2), p * 1, -(-p), p * one):
            assert r == p and r.terms is not p.terms
