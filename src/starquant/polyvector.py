"""Antisymmetric polyvector fields, their bracket, and the Jacobi check.

A field of degree p on R^d stores one polynomial component per strictly
increasing (p+1)-tuple of indices; arbitrary index tuples are recovered
through the permutation sign.  Degree 0 is a vector field, degree 1 a
bivector.

The bracket extends the Lie bracket of vector fields by the graded
Leibnitz rule.  Writing a field as a superfunction
A = sum_{i1<...<ia} A^{i1..ia} xi_{i1}..xi_{ia} in odd coordinates
xi_i, the bracket of ranks a = p_a+1 and b = p_b+1 is

    [A, B] = sum_l (dA/dxi_l)(dB/dx_l)
             - (-1)^((a-1)(b-1)) sum_l (dB/dxi_l)(dA/dx_l),

which reproduces the Lie bracket on vectors and is a graded derivation
of the wedge product in its second slot.  Degree([A,B]) = p_a + p_b;
[A, A] = 0 for a bivector A is exactly the Jacobi identity of its
component matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import DimensionMismatchError, ParseError, json_int
from .poly import Polynomial


def sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sort an index tuple, returning (sorted, permutation sign).

    None when an index repeats (the antisymmetric component vanishes).
    All sign bookkeeping in the package funnels through here.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # insertion sort; parity = number of swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class PolyVectorField:
    __slots__ = ("dim", "degree", "components")

    def __init__(self, dim: int, degree: int,
                 components: Mapping[tuple[int, ...], Polynomial] | None = None):
        if dim < 0:
            raise DimensionMismatchError("dimension must be non-negative")
        if degree < 0:
            raise DimensionMismatchError("degree must be >= 0")
        if degree > dim - 1:
            # rank would exceed the dimension; only the zero field exists
            components = {}
        clean: dict[tuple[int, ...], Polynomial] = {}
        for idx, poly in (components or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != degree + 1:
                raise DimensionMismatchError(f"index tuple {idx} has wrong length")
            if any(not 0 <= i < dim for i in idx):
                raise DimensionMismatchError(f"index {idx} out of range for dim {dim}")
            if list(idx) != sorted(set(idx)):
                raise DimensionMismatchError(f"storage tuple {idx} must be strictly increasing")
            if poly.dim != dim:
                raise DimensionMismatchError("component polynomial has wrong dimension")
            if not poly.is_zero():
                clean[idx] = poly
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVectorField is immutable")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(dim: int, degree: int) -> "PolyVectorField":
        return PolyVectorField(dim, degree, {})

    # -- component access --------------------------------------------------
    def component(self, indices: tuple[int, ...]) -> Polynomial:
        """Full-tensor component with antisymmetry sign folded in."""
        res = sort_with_sign(tuple(indices))
        if res is None:
            return Polynomial.zero(self.dim)
        key, sign = res
        poly = self.components.get(key)
        if poly is None:
            return Polynomial.zero(self.dim)
        return poly if sign == 1 else -poly

    def iter_full_components(self) -> Iterator[tuple[tuple[int, ...], Polynomial]]:
        """All nonzero full-tensor components (every index ordering)."""
        import itertools
        for key, poly in self.components.items():
            for perm in itertools.permutations(key):
                _, sign = sort_with_sign(perm)  # never None here
                yield perm, poly if sign == 1 else -poly

    # -- linear structure -----------------------------------------------------
    def _check(self, other: "PolyVectorField"):
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatchError("mismatched fields")

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        self._check(other)
        comps = dict(self.components)
        for k, p in other.components.items():
            comps[k] = comps[k] + p if k in comps else p
        return PolyVectorField(self.dim, self.degree, comps)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyVectorField(self.dim, self.degree,
                               {k: -p for k, p in self.components.items()})

    def __mul__(self, scalar):
        return PolyVectorField(self.dim, self.degree,
                               {k: p * scalar for k, p in self.components.items()})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return (isinstance(other, PolyVectorField) and self.dim == other.dim
                and self.degree == other.degree and self.components == other.components)

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.components)))

    def __repr__(self):
        return f"PolyVectorField(dim={self.dim}, degree={self.degree}, {len(self.components)} comps)"

    # -- serialization -------------------------------------------------------
    def to_json_obj(self) -> dict:
        comps = []
        for idx in sorted(self.components):
            comps.append({"indices": [i + 1 for i in idx],
                          "poly": self.components[idx].to_json_obj()})
        return {"dim": self.dim, "degree": self.degree, "components": comps}

    @staticmethod
    def from_json_obj(obj: dict) -> "PolyVectorField":
        try:
            dim = json_int(obj["dim"], "dim")
            degree = json_int(obj["degree"], "degree")
            comps = {}
            for entry in obj["components"]:
                idx = tuple(json_int(i, "index") - 1
                            for i in entry["indices"])
                if idx in comps:
                    raise ParseError(f"repeated indices {entry['indices']}")
                comps[idx] = Polynomial.from_json_obj(dim, entry["poly"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polyvector field object: {exc}") from exc
        return PolyVectorField(dim, degree, comps)


# ---------------------------------------------------------------------------
# Wedge and bracket via the odd-coordinate calculus
# ---------------------------------------------------------------------------

def wedge(a: PolyVectorField, b: PolyVectorField) -> PolyVectorField:
    if a.dim != b.dim:
        raise DimensionMismatchError("wedge of fields on different spaces")
    out_degree = a.degree + b.degree + 1
    comps: dict[tuple[int, ...], Polynomial] = {}
    if out_degree > a.dim - 1:
        return PolyVectorField.zero(a.dim, min(out_degree, a.dim - 1))
    for t1, p1 in a.components.items():
        for t2, p2 in b.components.items():
            merged = sort_with_sign(t1 + t2)
            if merged is None:
                continue
            key, sign = merged
            term = (p1 * p2) if sign == 1 else -(p1 * p2)
            comps[key] = comps[key] + term if key in comps else term
    return PolyVectorField(a.dim, out_degree, comps)


def _xi_derivative(components, l: int):
    """Left odd derivative d/dxi_l of a superfunction dict."""
    out = {}
    for key, poly in components.items():
        if l not in key:
            continue
        pos = key.index(l)
        rest = key[:pos] + key[pos + 1:]
        term = poly if pos % 2 == 0 else -poly
        out[rest] = out.get(rest, Polynomial.zero(poly.dim)) + term
    return out

def _half_bracket(a_comps, b_comps, dim: int):
    """sum_l (d a/dxi_l)(d b/dx_l) on superfunction dicts."""
    out: dict[tuple[int, ...], Polynomial] = {}
    for l in range(dim):
        da = _xi_derivative(a_comps, l)
        if not da:
            continue
        for t1, p1 in da.items():
            for t2, p2 in b_comps.items():
                dp2 = p2.diff(l)
                if dp2.is_zero():
                    continue
                merged = sort_with_sign(t1 + t2)
                if merged is None:
                    continue
                key, sign = merged
                term = (p1 * dp2) if sign == 1 else -(p1 * dp2)
                if key in out:
                    out[key] = out[key] + term
                else:
                    out[key] = term
    return out


def schouten(a: PolyVectorField, b: PolyVectorField) -> PolyVectorField:
    """Bracket of degrees (p_a, p_b) -> degree p_a + p_b.

    Written through the odd-coordinate calculus: with u = sum_l
    (d_xi_l A)(d_x_l B) and v the same with the roles swapped,

        [A, B] = (-1)^p_a u - (-1)^((p_a+1) p_b) v.

    The sign placement comes from converting the right derivative in
    the canonical odd Poisson bracket to the left derivative used
    here.  Anchors: vector fields give the Lie bracket, and [A, -] is
    a graded derivation of the wedge product.  Graded antisymmetry:
    [A,B] = -(-1)^(p_a p_b) [B,A].
    """
    if a.dim != b.dim:
        raise DimensionMismatchError("bracket of fields on different spaces")
    dim = a.dim
    out_degree = a.degree + b.degree
    if out_degree > dim - 1:
        return PolyVectorField.zero(dim, min(out_degree, dim - 1))
    t1 = _half_bracket(a.components, b.components, dim)
    t2 = _half_bracket(b.components, a.components, dim)
    sign_u = -1 if a.degree % 2 else 1
    sign_v = 1 if ((a.degree + 1) * b.degree) % 2 else -1
    comps = {}
    for k, p in t1.items():
        comps[k] = p if sign_u == 1 else -p
    for k, p in t2.items():
        adj = p if sign_v == 1 else -p
        comps[k] = comps[k] + adj if k in comps else adj
    return PolyVectorField(dim, out_degree, comps)


# ---------------------------------------------------------------------------
# Jacobi residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiReport:
    """Nonzero cyclic residuals of a candidate Poisson bivector."""

    dim: int
    residuals: dict = field(default_factory=dict)  # (i,j,k) -> Polynomial

    @property
    def ok(self) -> bool:
        return not self.residuals

    def summary(self) -> str:
        if self.ok:
            return "jacobi: all residuals vanish"
        worst = max(self.residuals.items(), key=lambda kv: kv[1].max_abs_coeff())
        ijk = "".join(str(i + 1) for i in worst[0])
        return (f"jacobi: {len(self.residuals)} nonzero residuals, "
                f"e.g. component ({ijk}) = {worst[1]!r}")

    def to_json_obj(self) -> dict:
        res = []
        for ijk in sorted(self.residuals):
            res.append({"indices": [i + 1 for i in ijk],
                        "poly": self.residuals[ijk].to_json_obj()})
        return {"dim": self.dim, "ok": self.ok, "residuals": res}


def validate_poisson(alpha: PolyVectorField) -> JacobiReport:
    """Cyclic Jacobi residuals R^{ijk} = sum_l alpha^{il} d_l alpha^{jk} + cyc.

    A term alpha^{xl} d_l alpha^{yz} needs both entries nonzero, so only
    the triples and columns l that the nonzero components reach are
    visited, in the order of the dense loops: the cost follows the
    components, not dim^4."""
    if alpha.degree != 1:
        raise DimensionMismatchError("validate_poisson expects a bivector")
    d = alpha.dim
    rows: dict[int, set[int]] = {}      # x -> the l with alpha^{xl} != 0
    for a, b in alpha.components:
        rows.setdefault(a, set()).add(b)
        rows.setdefault(b, set()).add(a)
    # (x, y, z) is (i, j, k), (j, k, i) or (k, i, j)
    triples = {t for y, row in rows.items() for z in row for x in rows
               for t in ((x, y, z), (z, x, y), (y, z, x))}
    cols = sorted(set().union(*rows.values()))
    residuals = {}
    for i, j, k in sorted(triples):
        r = Polynomial.zero(d)
        for l in cols:
            for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                a_xl = alpha.component((x, l))
                if a_xl.is_zero():
                    continue
                d_yz = alpha.component((y, z)).diff(l)
                if d_yz.is_zero():
                    continue
                r = r + a_xl * d_yz
        if not r.is_zero():
            residuals[(i, j, k)] = r
    return JacobiReport(dim=d, residuals=residuals)
