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

    dphi = Im(A) dx_z + Re(A) dy_z - Im(A) dx_w + 2 y_w Im(1/Q) dy_w,

with A = (2z - w - wbar)/Q.  The x_w coefficient is minus the x_z one
because phi is invariant under simultaneous real translation of both
points.

Integrating z over H in the wedge of two such forms gives, for a and b
in the closed half plane,

    F(a, b) = int_H dphi(z, a) ^ dphi(z, b) = 4 pi arg(a - bbar) - 2 pi^2,

arg in [0, pi] (Stokes on phi(z, a) dphi(z, b), with
phi(a, b) - phi(b, a) = 2 arg(a - bbar)).  F(0, 1) = 2 pi^2 is the
order-1 weight 1/2; F(a, a) = 0, and the mirror z -> 1 - zbar negates
F.  The weights integrand integrates every source vertex out with it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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
    a, d_wy = angle_form(zc, wc)
    return AngleGradient(d_zx=float(a.imag), d_zy=float(a.real),
                         d_wx=float(-a.imag), d_wy=float(d_wy))


# ---------------------------------------------------------------------------
# The one formula for dphi's coefficients, read by dphi and weights._Plan
# ---------------------------------------------------------------------------

def angle_form(z, w):
    """(A, d_wy) with dphi = Im A dx_z + Re A dy_z - Im A dx_w + d_wy dy_w.

    z is interior.  A complex w takes the general formula; a real w is a
    ground position, where Q = (z - w)^2, A = 2/(z - w) and d_wy = 0
    (Neumann).  Elementwise over arrays or scalars; no domain checks.
    """
    # isinstance first: np.iscomplexobj is slow on Python floats
    if isinstance(w, float) or not np.iscomplexobj(w):
        return 2.0 / (z - w), 0.0
    q = (z - w) * (z - np.conjugate(w))
    a = (2.0 * z - w - np.conjugate(w)) / q
    return a, 2.0 * w.imag * (1.0 / q).imag


def source_form(a, b):
    """F(a, b) = int_H dphi(z, a) ^ dphi(z, b), z over H in dx ^ dy.

    a, b lie in the closed half plane (complex or real ground
    positions); a = b gives 0, including the real a = b where arg is
    undefined.  Elementwise over arrays or scalars; no domain checks.
    """
    d = a - np.conjugate(b)
    return np.where(d == 0, 0.0, 4.0 * math.pi * np.angle(d)
                    - 2.0 * math.pi ** 2)
