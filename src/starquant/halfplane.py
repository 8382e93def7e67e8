"""The propagator angle on the upper half plane.

The propagator angle between two points z, w of the closed upper half
plane H is

    phi(z, w) = arg((z - w)(z - wbar))   reduced to [0, 2*pi),

the angle at z between the geodesics to w and to its mirror image wbar.
Its exterior differential d phi is a single-valued 1-form even though
phi itself jumps across the branch cut.  d phi has no normal component
on the real axis (Neumann): moving a ground point vertically does not
change the angle to first order.

Since Q(z, w) = (z - w)(z - wbar) is holomorphic in z,

    dphi = Im(A) dx_z + Re(A) dy_z - Im(A) dx_w + d_wy dy_w,

with A = d_z log Q = 1/(z - w) + 1/(z - wbar), two simple poles.  In
dx = x_z - x_w, y_z -+ y_w, ia = 1/|z - w|^2 and ib = 1/|z - wbar|^2,

    Re A = dx (ia + ib),   Im A = -((y_z - y_w) ia + (y_z + y_w) ib),
    d_wy = 2 y_w Im(1/Q) = dx (ib - ia),

as 2 i y_w / Q = 1/(z - w) - 1/(z - wbar); at a ground y_w = 0, ia = ib
and d_wy is exactly 0.  The x_w coefficient is minus the x_z one:
phi is invariant under simultaneous real translation of both points.

Integrating z over H in the wedge of two such forms gives, for a and b
in the closed half plane,

    F(a, b) = int_H dphi(z, a) ^ dphi(z, b) = 4 pi arg(a - bbar) - 2 pi^2,

arg(a - bbar) = arctan2(y_a + y_b, x_a - x_b) in [0, pi] (Stokes on
phi(z, a) dphi(z, b), with phi(a, b) - phi(b, a) = 2 arg(a - bbar)).
F(0, 1) = 2 pi^2 is the order-1 weight 1/2; F(a, a) = 0, and the mirror
z -> 1 - zbar negates F.  The sampled integrand (integrand._Plan) integrates
every source vertex out with it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AngleGradient:
    """Partial derivatives of phi(z, w) in (x_z, y_z, x_w, y_w)."""

    d_zx: float
    d_zy: float
    d_wx: float
    d_wy: float


def _check_pair(z: complex, w: complex):
    if z.imag < 0 or w.imag < 0:
        raise DomainError("points must lie in the closed upper half plane")
    if z.imag <= 0:
        raise DomainError("z must be interior (Im z > 0)")
    if z == w:
        raise DomainError("phi is undefined at z = w")
    if z == w.conjugate():
        raise DomainError("phi is undefined at z = conj(w)")


def angle_phi(z, w) -> float:
    """Angle phi(z, w) in [0, 2*pi).

    z must be interior; w may sit anywhere in the closed half plane
    except at z or its mirror image.
    """
    zc, wc = complex(z), complex(w)
    _check_pair(zc, wc)
    val = cmath.phase((zc - wc) * (zc - wc.conjugate())) % TWO_PI
    # the mod of a tiny negative phase can round up to exactly 2*pi
    return 0.0 if val >= TWO_PI else val


def dphi(z, w) -> AngleGradient:
    """All four first derivatives of phi; exact rational expressions.

    w may be a boundary (ground) point: the y_w derivative then
    vanishes identically, which is the Neumann condition.
    """
    zc, wc = complex(z), complex(w)
    _check_pair(zc, wc)
    dx, ym, yp = zc.real - wc.real, zc.imag - wc.imag, zc.imag + wc.imag
    re, im, d_wy = angle_form(dx, ym, yp, 1.0 / (dx * dx + ym * ym),
                              1.0 / (dx * dx + yp * yp))
    return AngleGradient(d_zx=im, d_zy=re, d_wx=-im, d_wy=d_wy)


# ---------------------------------------------------------------------------
# The one formula for dphi's coefficients, read by dphi and integrand._Plan
# ---------------------------------------------------------------------------

def angle_form(dx, ym, yp, ia, ib):
    """(Re A, Im A, d_wy) of dphi from dx = x_z - x_w, ym = y_z - y_w,
    yp = y_z + y_w, ia = 1/(dx^2 + ym^2) and ib = 1/(dx^2 + yp^2).

    Only +, -, * and unary minus: elementwise over floats or arrays, and
    integrand._Plan compiles it over symbolic entries.  No domain checks.
    """
    return dx * (ia + ib), -(ym * ia + yp * ib), dx * (ib - ia)


def source_form(dx, sy, out=None, *, apart=False):
    """F(a, b) = int_H dphi(z, a) ^ dphi(z, b), z over H in dx ^ dy, from
    a - bbar = dx + i sy (dx = x_a - x_b, sy = y_a + y_b).

    a, b lie in the closed half plane; a = b gives 0, including a = b on
    the axis, where arg is undefined.  apart=True promises a - bbar != 0
    on every element whose value counts (a or b aerial, or two distinct
    fixed grounds) and skips the search for a = b.  Elementwise over
    arrays or scalars, into out when given; no domain checks.
    """
    import numpy as np          # not at import: only integrals need numpy
    f = np.multiply(4.0 * math.pi, np.arctan2(sy, dx, out=out), out=out)
    f = np.subtract(f, 2.0 * math.pi ** 2, out=out)
    if apart or np.min(sy) > 0 or np.count_nonzero(dx) == np.size(dx):
        return f                # a - bbar != 0 everywhere
    zero = np.logical_and(np.equal(dx, 0), np.equal(sy, 0))
    return np.positive(np.where(zero, 0.0, f), out=out)
