"""Bracket and Jacobi-validator checks: Lie base case, graded Leibnitz,
antisymmetry, and the bracket<->Jacobi cross-validation."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (broken_alpha, random_bivector, random_field,
                     random_polynomial, so3_alpha, symplectic_alpha)
from starquant.errors import DimensionMismatchError
from starquant.poly import Polynomial
from starquant.polyvector import (PolyVectorField, schouten, sort_with_sign,
                                  validate_poisson, wedge)


def lie_bracket_oracle(x: PolyVectorField, y: PolyVectorField) -> PolyVectorField:
    """Independent component formula for vector fields."""
    d = x.dim
    comps = {}
    for j in range(d):
        acc = Polynomial.zero(d)
        for l in range(d):
            acc = acc + x.component((l,)) * y.component((j,)).diff(l)
            acc = acc - y.component((l,)) * x.component((j,)).diff(l)
        if not acc.is_zero():
            comps[(j,)] = acc
    return PolyVectorField(d, 0, comps)


class TestSortWithSign:
    def test_basic(self):
        assert sort_with_sign((0, 1)) == ((0, 1), 1)
        assert sort_with_sign((1, 0)) == ((0, 1), -1)
        assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
        assert sort_with_sign((0, 0)) is None

    def test_component_lookup(self):
        a = so3_alpha()
        assert a.component((1, 0)) == -a.component((0, 1))
        assert a.component((2, 2)).is_zero()


class TestSchouten:
    def test_lie_base_case(self):
        d = 2
        x = PolyVectorField(d, 0, {(0,): Polynomial.constant(d, 1)})
        xx = PolyVectorField(d, 0, {(0,): Polynomial.variable(d, 0)})
        assert schouten(x, xx) == x          # [d_1, x_1 d_1] = d_1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_matches_lie_oracle(self, seed):
        rng = random.Random(seed)
        x = random_field(rng, 3, 0)
        y = random_field(rng, 3, 0)
        assert schouten(x, y) == lie_bracket_oracle(x, y)

    @given(st.integers(0, 10 ** 6), st.integers(0, 1), st.integers(0, 1),
           st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_graded_leibnitz(self, seed, pa, pb, pc):
        rng = random.Random(seed)
        a = random_field(rng, 3, pa)
        b = random_field(rng, 3, pb)
        c = random_field(rng, 3, pc)
        lhs = schouten(a, wedge(b, c))
        sign = -1 if (pa * (pb - 1)) % 2 else 1
        rhs = wedge(schouten(a, b), c) + sign * wedge(b, schouten(a, c))
        assert lhs == rhs

    @given(st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_graded_antisymmetry(self, seed, pa, pb):
        rng = random.Random(seed)
        a = random_field(rng, 4, pa)
        b = random_field(rng, 4, pb)
        # ranks (pa+1, pb+1): [A,B] = -(-1)^(pa pb) [B,A]
        sign = -1 if (pa * pb) % 2 else 1
        lhs = schouten(a, b)
        rhs = (-sign) * schouten(b, a)
        assert lhs == rhs

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_graded_jacobi(self, seed):
        rng = random.Random(seed)
        pa, pb, pc = (rng.randint(0, 1) for _ in range(3))
        a = random_field(rng, 4, pa, n_terms=2)
        b = random_field(rng, 4, pb, n_terms=2)
        c = random_field(rng, 4, pc, n_terms=2)
        s1 = -1 if (pa * pc) % 2 else 1
        s2 = -1 if (pb * pa) % 2 else 1
        s3 = -1 if (pc * pb) % 2 else 1
        total = (s1 * schouten(a, schouten(b, c))
                 + s2 * schouten(b, schouten(c, a))
                 + s3 * schouten(c, schouten(a, b)))
        assert total.is_zero()

    def test_degree_overflow_clamps(self):
        rng = random.Random(7)
        a = random_field(rng, 3, 1)
        b = random_field(rng, 3, 2)
        out = schouten(a, b)  # degree 3 > d-1 = 2
        assert out.is_zero() and out.degree == 2

    def test_bracket_with_function_degree_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PolyVectorField(3, -1, {})


class TestJacobi:
    def test_so3_passes(self):
        rep = validate_poisson(so3_alpha())
        assert rep.ok and rep.residuals == {}
        assert schouten(so3_alpha(), so3_alpha()).is_zero()

    def test_symplectic_passes(self):
        rep = validate_poisson(symplectic_alpha(2))
        assert rep.ok
        rep4 = validate_poisson(symplectic_alpha(4))
        assert rep4.ok

    def test_negative_control(self):
        rep = validate_poisson(broken_alpha())
        assert not rep.ok
        # residual (1,2,3) = -x3 from the cyclic sum
        r = rep.residuals[(0, 1, 2)]
        assert r == -Polynomial.variable(3, 2)
        assert "jacobi" in rep.summary()

    @given(st.integers(0, 10 ** 6), st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_cross_validation_with_bracket(self, seed, dim):
        """Jacobi residuals vanish iff the self-bracket does."""
        rng = random.Random(seed)
        alpha = random_bivector(rng, dim)
        assert validate_poisson(alpha).ok == schouten(alpha, alpha).is_zero()

    def test_report_json(self):
        obj = validate_poisson(broken_alpha()).to_json_obj()
        assert obj["ok"] is False and obj["dim"] == 3
        assert obj["residuals"]

    @given(st.integers(0, 10 ** 6), st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_loops(self, seed, dim):
        """The sparse walk finds the residuals of the dense dim^4 loops,
        in the same order."""
        alpha = random_bivector(random.Random(seed), dim)
        assert (list(validate_poisson(alpha).residuals.items())
                == list(dense_jacobi_residuals(alpha).items()))

    @pytest.mark.parametrize("dim", [3, 400])
    def test_cost_follows_components(self, monkeypatch, dim):
        """A bivector on a few coordinates of a large space is checked
        without visiting every index triple: the component lookups stay
        as few as on R^3, and the residuals are those of R^3, padded."""
        small = validate_poisson(broken_alpha()).residuals
        component, calls = PolyVectorField.component, []

        def counted(self, indices):
            calls.append(indices)
            assert len(calls) <= 1000, "the check visits every index triple"
            return component(self, indices)

        monkeypatch.setattr(PolyVectorField, "component", counted)
        big = validate_poisson(pad(broken_alpha(), dim)).residuals
        assert validate_poisson(PolyVectorField.zero(10 ** 6, 1)).ok
        monkeypatch.undo()
        assert list(big) == list(small)
        assert all(big[ijk] == pad_poly(small[ijk], dim) for ijk in small)


def dense_jacobi_residuals(alpha: PolyVectorField) -> dict:
    """R^{ijk} over every index triple and column, as a reference."""
    d = alpha.dim
    residuals = {}
    for i in range(d):
        for j in range(d):
            for k in range(d):
                r = Polynomial.zero(d)
                for l in range(d):
                    for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                        r = r + alpha.component((x, l)) * alpha.component(
                            (y, z)).diff(l)
                if not r.is_zero():
                    residuals[(i, j, k)] = r
    return residuals


def pad_poly(p: Polynomial, dim: int) -> Polynomial:
    return Polynomial(dim, {e + (0,) * (dim - p.dim): c
                            for e, c in p.terms.items()})


def pad(alpha: PolyVectorField, dim: int) -> PolyVectorField:
    """alpha on the first coordinates of R^dim."""
    return PolyVectorField(dim, alpha.degree, {
        k: pad_poly(p, dim) for k, p in alpha.components.items()})


class TestFieldStructure:
    def test_json_round_trip(self):
        a = so3_alpha()
        assert PolyVectorField.from_json_obj(a.to_json_obj()) == a

    def test_full_components(self):
        a = so3_alpha()
        full = dict(a.iter_full_components())
        assert len(full) == 6
        assert full[(1, 0)] == -full[(0, 1)]

    def test_linear_ops(self):
        a = so3_alpha()
        assert (a - a).is_zero()
        assert (2 * a).component((0, 1)) == 2 * Polynomial.variable(3, 2)

    def test_overflow_storage_is_zero(self):
        f = PolyVectorField(2, 2, {})
        assert f.is_zero()

    @pytest.mark.parametrize("dim", [-1, -2])
    def test_negative_dimension_rejected(self, dim):
        with pytest.raises(DimensionMismatchError):
            PolyVectorField(dim, 1, {})
