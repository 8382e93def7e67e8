"""Truncated formal power series in the deformation parameter.

Coefficients are polynomials with Gaussian-rational coefficients, so a
series is exact up to its truncation order.  The parameter is kept
formal: products truncate, nothing is ever evaluated at a numeric
value unless asked.
"""
from __future__ import annotations

from .errors import DimensionMismatchError, json_int
from .poly import Polynomial
from .rational import QI


class FormalSeries:
    """Polynomial coefficients of 1, h, ..., h^order (h formal)."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need {order + 1} coefficients for order {order}, "
                f"got {len(coeffs)}")
        for c in coeffs:
            if c.dim != dim:
                raise DimensionMismatchError(
                    f"coefficient dim {c.dim} != series dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, dim: int, order: int) -> "FormalSeries":
        return cls(dim, order, (Polynomial.zero(dim),) * (order + 1))

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "FormalSeries":
        rest = (Polynomial.zero(p.dim),) * order
        return cls(p.dim, order, (p,) + rest)

    # -- structure -----------------------------------------------------
    def coefficient(self, power: int) -> Polynomial:
        if not 0 <= power <= self.order:
            raise IndexError(f"power {power} outside 0..{self.order}")
        return self.coeffs[power]

    def truncate(self, order: int) -> "FormalSeries":
        if order >= self.order:
            pad = (Polynomial.zero(self.dim),) * (order - self.order)
            return FormalSeries(self.dim, order, self.coeffs + pad)
        return FormalSeries(self.dim, order, self.coeffs[:order + 1])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # -- ring operations (orders must match; truncating product) -------
    def _check(self, other):
        if self.dim != other.dim or self.order != other.order:
            raise DimensionMismatchError("series shapes differ")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = FormalSeries.from_polynomial(other, self.order)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check(other)
        return FormalSeries(self.dim, self.order,
                            (a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries(self.dim, self.order,
                            (-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            other = FormalSeries.from_polynomial(other, self.order)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check(other)
        return FormalSeries(self.dim, self.order,
                            (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            self._check(other)
            out = [Polynomial.zero(self.dim) for _ in range(self.order + 1)]
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j in range(self.order + 1 - i):
                    b = other.coeffs[j]
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return FormalSeries(self.dim, self.order, out)
        if isinstance(other, Polynomial):
            return FormalSeries(self.dim, self.order,
                                (c * other for c in self.coeffs))
        c = QI.try_coerce(other)
        if c is None:
            return NotImplemented
        return FormalSeries(self.dim, self.order,
                            (p * c for p in self.coeffs))

    __rmul__ = __mul__

    # -- symmetries ----------------------------------------------------
    def conjugate(self) -> "FormalSeries":
        """Complex-conjugate every coefficient (h kept fixed)."""
        return FormalSeries(self.dim, self.order,
                            (c.conjugate() for c in self.coeffs))

    def parameter_flip(self) -> "FormalSeries":
        """Substitute h -> -h."""
        return FormalSeries(
            self.dim, self.order,
            (c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)))

    # -- misc ------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.dim == other.dim and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        nz = sum(1 for c in self.coeffs if not c.is_zero())
        return (f"FormalSeries(dim={self.dim}, order={self.order}, "
                f"{nz} nonzero coefficients)")

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order,
            "coeffs": [c.to_json_obj() for c in self.coeffs],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "FormalSeries":
        dim = json_int(obj["dim"], "dim")
        return FormalSeries(
            dim, json_int(obj["order"], "order"),
            (Polynomial.from_json_obj(dim, c) for c in obj["coeffs"]))
