"""Truncated series arithmetic."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_polynomial
from starquant.errors import DimensionMismatchError, ParseError
from starquant.poly import Polynomial
from starquant.rational import QI
from starquant.series import FormalSeries


def random_series(rng, dim=2, order=3):
    return FormalSeries(dim, order, (random_polynomial(rng, dim, n_terms=2)
                                     for _ in range(order + 1)))


class TestBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FormalSeries(2, 1, (Polynomial.zero(2),))
        with pytest.raises(DimensionMismatchError):
            FormalSeries(2, 0, (Polynomial.zero(3),))

    def test_from_polynomial(self):
        p = Polynomial.variable(2, 0)
        s = FormalSeries.from_polynomial(p, 2)
        assert s.coefficient(0) == p
        assert s.coefficient(1).is_zero() and s.coefficient(2).is_zero()
        with pytest.raises(IndexError):
            s.coefficient(3)

    def test_truncate_both_ways(self):
        rng = random.Random(0)
        s = random_series(rng, order=3)
        down = s.truncate(1)
        assert down.order == 1 and down.coeffs == s.coeffs[:2]
        up = s.truncate(5)
        assert up.order == 5 and up.coeffs[4].is_zero()
        assert up.truncate(3) == s


class TestRing:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_product_associative(self, seed):
        rng = random.Random(seed)
        a, b, c = (random_series(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_product_distributes(self, seed):
        rng = random.Random(seed)
        a, b, c = (random_series(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c

    def test_product_truncates(self):
        h = FormalSeries(1, 1, (Polynomial.zero(1), Polynomial.constant(1, 1)))
        assert (h * h).is_zero()          # h^2 beyond order 1

    def test_known_product(self):
        # (1 + x h)(1 - x h) = 1 - x^2 h^2
        d = 1
        x = Polynomial.variable(d, 0)
        one = Polynomial.constant(d, 1)
        a = FormalSeries(d, 2, (one, x, Polynomial.zero(d)))
        b = FormalSeries(d, 2, (one, -x, Polynomial.zero(d)))
        prod = a * b
        assert prod.coefficient(0) == one
        assert prod.coefficient(1).is_zero()
        assert prod.coefficient(2) == -(x * x)

    def test_scalar_and_polynomial_action(self):
        rng = random.Random(3)
        s = random_series(rng)
        assert (2 * s).coefficient(1) == 2 * s.coefficient(1)
        i_s = QI(0, 1) * s
        assert i_s.coefficient(2) == s.coefficient(2) * QI(0, 1)
        p = Polynomial.variable(2, 1)
        assert (s * p).coefficient(0) == s.coefficient(0) * p

    def test_sub_and_neg(self):
        rng = random.Random(4)
        s = random_series(rng)
        assert (s - s).is_zero()
        assert (-s) + s == FormalSeries.zero(2, 3)


class TestSymmetries:
    def test_conjugate(self):
        d = 1
        p = Polynomial(d, {(1,): QI(0, 1)})
        s = FormalSeries(d, 1, (p, p))
        c = s.conjugate()
        assert c.coefficient(0) == Polynomial(d, {(1,): QI(0, -1)})

    def test_parameter_flip(self):
        rng = random.Random(5)
        s = random_series(rng)
        f = s.parameter_flip()
        assert f.coefficient(0) == s.coefficient(0)
        assert f.coefficient(1) == -s.coefficient(1)
        assert f.parameter_flip() == s


class TestJson:
    def test_round_trip(self):
        rng = random.Random(6)
        s = random_series(rng)
        assert FormalSeries.from_json_obj(s.to_json_obj()) == s

    def test_exact_rationals_in_json(self):
        d = 1
        p = Polynomial(d, {(0,): QI.coerce(1) / 3})
        s = FormalSeries.from_polynomial(p, 0)
        obj = s.to_json_obj()
        assert obj["coeffs"][0][0]["num"] == 1
        assert obj["coeffs"][0][0]["den"] == 3

    @pytest.mark.parametrize("field,bad", [
        ("dim", 2.7), ("dim", True), ("order", 1.9), ("order", "1")])
    def test_rejects_non_integer_fields(self, field, bad):
        obj = FormalSeries.from_polynomial(Polynomial.variable(2, 0),
                                           1).to_json_obj()
        obj[field] = bad
        with pytest.raises(ParseError):
            FormalSeries.from_json_obj(obj)
