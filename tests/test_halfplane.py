"""Half-plane angle checks against frozen values, a finite-difference
oracle and the complex formulas the real ones replaced."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (AngleGradient, angle_phi, complex_angle_form,
                     complex_source_form, dphi)

from starquant.errors import DomainError
from starquant.integrand import angle_form, source_form
from starquant.weights import TWO_PI

# frozen expected values
PHI_I_2I = 0.0                    # collinear above w: angle closes up
PHI_I_0 = math.pi                 # straight under z
DPHI_I_0 = (-2.0, 0.0, 2.0, 0.0)  # derived: Im/Re of (2i)/(-1) and mirror


def _wrap_diff(a, b):
    """Difference of two angles continued across the 2*pi branch."""
    return ((a - b) + math.pi) % TWO_PI - math.pi


def _dphi_oracle(z, w, h=1e-6):
    """Central finite differences of angle_phi, branch-continued."""
    def d(dz, dw):
        return _wrap_diff(angle_phi(z + dz, w + dw), angle_phi(z - dz, w - dw)) / (2 * h)
    return (d(h, 0), d(1j * h, 0), d(0, h), d(0, 1j * h))


interior = st.tuples(st.floats(-3, 3), st.floats(0.05, 3)).map(lambda t: complex(t[0], t[1]))
ground = st.floats(-3, 3)


def _poles(z, w):
    """angle_form's arguments for z and w (arrays or scalars; a real w is
    a ground point)."""
    dx = np.real(z) - np.real(w)
    ym, yp = np.imag(z) - np.imag(w), np.imag(z) + np.imag(w)
    return dx, ym, yp, 1.0 / (dx * dx + ym * ym), 1.0 / (dx * dx + yp * yp)


def _form(z, w):
    """(A, d_wy) from angle_form, A as one complex value."""
    re, im, d_wy = angle_form(*_poles(z, w))
    return re + 1j * im, d_wy


def _source(a, b):
    """source_form at a and b: a - bbar = (x_a - x_b) + i (y_a + y_b)."""
    return source_form(np.real(a) - np.real(b), np.imag(a) + np.imag(b))


class TestAnglePhi:
    def test_above_on_axis(self):
        assert angle_phi(1j, 2j) == pytest.approx(PHI_I_2I, abs=1e-14)

    def test_ground_below(self):
        assert angle_phi(1j, 0) == pytest.approx(PHI_I_0, rel=1e-14)

    def test_boundary_z_limit(self):
        # as z approaches the real axis the angle closes to 0 mod 2*pi
        for x, w in [(0.3, 1 + 1j), (-2.0, 0.5j), (1.5, -1 + 0.25j)]:
            val = angle_phi(complex(x, 1e-9), w)
            assert min(val, TWO_PI - val) < 1e-6

    @given(z=interior, w=interior)
    @settings(max_examples=100)
    def test_range(self, z, w):
        if z in (w, w.conjugate()):
            return
        assert 0.0 <= angle_phi(z, w) < TWO_PI

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            angle_phi(1j, 1j)
        with pytest.raises(DomainError):
            angle_phi(1j, -1j)  # w = conj(z) is below the axis
        with pytest.raises(DomainError):
            angle_phi(0.5, 1j)  # z on the boundary
        with pytest.raises(DomainError):
            angle_phi(1j, complex(0, -0.5))


class TestDphi:
    def test_frozen_value(self):
        g = dphi(1j, 0)
        assert isinstance(g, AngleGradient)
        assert (g.d_zx, g.d_zy, g.d_wx, g.d_wy) == pytest.approx(DPHI_I_0, abs=1e-14)

    def test_against_finite_differences(self):
        pairs = [(1j, 0.5 + 0.25j), (0.3 + 2j, -1 + 1j), (-0.7 + 0.6j, 0.4 + 1.3j),
                 (2j, 1j * 0.3 + 1.0), (0.1 + 0.35j, -0.2 + 0.8j)]
        for z, w in pairs:
            g = dphi(z, w)
            num = _dphi_oracle(z, w)
            assert (g.d_zx, g.d_zy, g.d_wx, g.d_wy) == pytest.approx(num, rel=1e-5, abs=1e-5)

    def test_translation_invariance(self):
        # d/dx_z + d/dx_w = 0 exactly
        g = dphi(0.7 + 1.2j, -0.4 + 0.9j)
        assert g.d_zx + g.d_wx == 0.0

    def test_neumann_on_boundary(self):
        # |d_wy| <= tol * |d_wx| once the target sits on the axis
        for z in (1j, 0.4 + 0.8j, -1.5 + 2.2j):
            for wx in (0.0, 0.7, -2.3):
                g = dphi(z, complex(wx, 1e-7))
                assert abs(g.d_wy) <= 1e-5 * abs(g.d_wx)
            g0 = dphi(z, complex(0.7, 0.0))
            assert g0.d_wy == 0.0

    def test_pole_growth(self):
        # 1/|eps| divergence approaching coincidence
        z = 0.5 + 1j
        norms = []
        for k in range(4, 9):
            eps = 10.0 ** -k
            g = dphi(z, z + eps)
            norms.append(math.hypot(g.d_zx, g.d_zy))
        for a, b in zip(norms, norms[1:]):
            assert b / a == pytest.approx(10.0, rel=0.05)

    def test_closedness_mixed_partials(self):
        # d(dphi) = 0: cross partials of the coefficients agree to O(h^2)
        z, w = 0.3 + 0.9j, -0.5 + 0.7j
        h = 1e-5

        def coeffs(zz, ww):
            g = dphi(zz, ww)
            return np.array([g.d_zx, g.d_zy, g.d_wx, g.d_wy])

        # partial of each coefficient along each of the four directions
        dirs = [(h, 0), (1j * h, 0), (0, h), (0, 1j * h)]
        jac = np.empty((4, 4))
        for j, (dz, dw) in enumerate(dirs):
            jac[:, j] = (coeffs(z + dz, w + dw) - coeffs(z - dz, w - dw)) / (2 * h)
        assert np.allclose(jac, jac.T, atol=1e-6)

    def test_self_wedge_vanishes(self):
        g = dphi(0.2 + 1.4j, 0.9 + 0.5j)
        row = (g.d_zx, g.d_zy)
        assert row[0] * row[1] - row[1] * row[0] == 0.0


class TestVectorKernels:
    def test_match_scalar(self):
        z = np.array([1j, 0.3 + 0.9j, -0.5 + 2j])
        w = np.array([0.5 + 0.25j, -1 + 1j, 0.4 + 1.3j])
        a, d_wy = _form(z, w)
        for k in range(3):
            g = dphi(complex(z[k]), complex(w[k]))
            assert (a[k].imag, a[k].real, -a[k].imag, d_wy[k]) == \
                pytest.approx((g.d_zx, g.d_zy, g.d_wx, g.d_wy), rel=1e-14)

    def test_ground_kernel(self):
        """A real w is a ground point: the same A as a complex w with zero
        imaginary part, and d_wy exactly 0 (Neumann)."""
        z = np.array([1j, 0.3 + 0.9j, -1.2 + 0.05j, 4.0 + 3.0j])
        for t in (0.0, 1.0, 0.25, np.array([0.1, 0.5, 0.7, 0.95])):
            a, d_wy = _form(z, t)
            a_c, _ = _form(z, np.asarray(t, dtype=complex))
            assert np.allclose(a, a_c, rtol=1e-14, atol=0.0)
            assert np.all(d_wy == 0.0)


class TestComplexOracle:
    """angle_form and source_form against the complex formulas they
    replaced (tests/helpers.py)."""

    @staticmethod
    def check(z, w):
        re, im, d_wy = angle_form(*_poles(z, w))
        a, d_wy_c = complex_angle_form(z, w)
        tol = 1e-12 * abs(a)
        assert abs(re - a.real) <= tol and abs(im - a.imag) <= tol
        assert abs(d_wy - d_wy_c) <= tol

    @given(z=interior, w=interior)
    @settings(max_examples=200)
    def test_aerial_target(self, z, w):
        if abs(z - w) > 1e-3:
            self.check(z, w)

    @given(z=interior, t=ground)
    @settings(max_examples=200)
    def test_ground_target(self, z, t):
        self.check(z, t)

    @given(z=interior, t=ground)
    @settings(max_examples=100)
    def test_d_wy_vanishes_at_a_ground(self, z, t):
        assert angle_form(*_poles(z, t))[2] == 0.0
        assert angle_form(*_poles(np.array([z]), np.array([t])))[2][0] == 0.0

    @pytest.mark.parametrize("a,b", [
        (0.3 + 0.8j, 0.3 + 0.8j), (0.5, 0.5), (0.0, 0.0), (1.0, 1.0),
        (0.0, 1.0), (1.0, 0.0), (0.25, 0.75), (-0.0, 0.0), (0.3 + 0.8j, 0.0),
        (1.0, -0.4 + 0.5j), (0.2 + 0.7j, -0.5 + 1.3j), (0.2j, 0.2 + 0.0j)])
    def test_source_form_bit_equal(self, a, b):
        """Equal floats, the a = b and both-ground cases included."""
        got, want = _source(a, b), complex_source_form(a, b)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_source_form_bit_equal_on_arrays(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=4000) + 1j * rng.exponential(size=4000)
        b = rng.normal(size=4000) + 1j * rng.exponential(size=4000)
        a[:1000], b[500:1500] = a[:1000].real, b[500:1500].real
        b[1500:1600] = a[1500:1600]                     # a = b, aerial
        a[:100] = b[:100] = rng.uniform(size=100)       # a = b, grounds
        want = complex_source_form(a, b)
        assert np.array_equal(_source(a, b), want)
        out = np.empty(len(a))
        got = source_form(a.real - b.real, a.imag + b.imag, out=out)
        assert got is out and np.array_equal(np.signbit(got),
                                             np.signbit(want))
        assert np.array_equal(got, want)


def _wedge_integral(a, b, n=1000):
    """int_H dphi(z, a) ^ dphi(z, b) by the midpoint rule on an n x n
    grid of the unit square, mapped as the weights sampler maps it:
    x = tan(pi (s - 1/2)), y = t / (1 - t)."""
    grid = (np.arange(n) + 0.5) / n
    total = 0.0
    for s in np.array_split(grid, 8):
        s, t = np.meshgrid(s, grid, indexing="ij")
        x, y = np.tan(np.pi * (s - 0.5)), t / (1 - t)
        fa, _ = _form(x + 1j * y, a)
        fb, _ = _form(x + 1j * y, b)
        jac = np.pi * (1 + x * x) / (1 - t) ** 2
        total += float(((fa.imag * fb.real - fa.real * fb.imag) * jac).sum())
    return total / n ** 2


class TestSourceForm:
    """F(a, b) = int_H dphi(z, a) ^ dphi(z, b) = 4 pi arg(a - bbar) - 2 pi^2,
    the closed form integrand._Plan puts in place of a source vertex."""

    @pytest.mark.parametrize("a,b", [
        (0.3 + 0.8j, 0.0), (1.0, -0.4 + 0.5j),         # aerial-ground
        (0.2 + 0.7j, -0.5 + 1.3j), (1.1 + 0.4j, 0.6 + 2.0j),
        (0.25, 0.75)])
    def test_matches_direct_integration(self, a, b):
        # the grid rule is good to about 0.05 here; a constant off by
        # pi^2 would miss by about 10
        assert float(_source(a, b)) == pytest.approx(
            _wedge_integral(a, b), abs=0.1)

    def test_exact_values(self):
        two_pi_sq = 2 * math.pi ** 2
        assert float(_source(0.0, 1.0)) == pytest.approx(two_pi_sq,
                                                             rel=1e-15)
        assert float(_source(1.0, 0.0)) == pytest.approx(-two_pi_sq,
                                                             rel=1e-15)
        for a in (0.3 + 0.8j, 0.5, 0.0, 1.0):
            assert float(_source(a, a)) == 0.0

    def test_mirror_negates(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=50) + 1j * rng.exponential(size=50)
        b = rng.normal(size=50) + 1j * rng.exponential(size=50)
        b[:10] = b[:10].real                            # ground targets
        mirrored = _source(1 - np.conjugate(a), 1 - np.conjugate(b))
        np.testing.assert_allclose(mirrored, -_source(a, b),
                                   rtol=0, atol=1e-12)

    def test_arrays_and_scalars_mix(self):
        z = np.array([0.3 + 0.8j, -1 + 0.1j])
        for b in (0.0, 1.0, np.array([0.2, 0.6])):
            got = _source(z, b)
            want = [_source(complex(z[k]),
                                b if np.ndim(b) == 0 else float(b[k]))
                    for k in range(2)]
            np.testing.assert_allclose(got, want, rtol=1e-15)
