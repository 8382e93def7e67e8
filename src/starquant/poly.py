"""Sparse multivariate polynomials over Q[i].

Terms map exponent tuples to :class:`QI` coefficients; zero
coefficients are dropped eagerly so equality and is_zero are exact
structural checks.  Scalars may be given as int, Fraction, float
(converted exactly), complex or QI; exponents must be non-negative
ints.  Polynomial(dim, terms) validates and coerces every term; the
ring operations and diff, whose results already hold nonzero QI values
on valid exponent tuples, build them through the unchecked _trusted.
derivative memoises d^multi on the polynomial (its _jet slot), so the
orbits of one graph sum differentiate each argument once.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, ParseError, json_int
from .rational import QI, ZERO


def _exp_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


class Polynomial:
    __slots__ = ("dim", "terms", "_jet")

    def __init__(self, dim: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if dim < 0:
            raise DimensionMismatchError("dimension must be non-negative")
        clean: dict[tuple[int, ...], QI] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != dim or not all(type(e) is int and e >= 0
                                           for e in exps):
                raise DimensionMismatchError(f"bad exponent tuple {exps} for dim {dim}")
            q = QI.coerce(c)
            if not q.is_zero():
                clean[exps] = clean[exps] + q if exps in clean else q
                if clean[exps].is_zero():
                    del clean[exps]
        _set_dim(self, dim)
        _set_terms(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim, {})

    @staticmethod
    def constant(dim: int, c) -> "Polynomial":
        return Polynomial(dim, {(0,) * dim: c})

    @staticmethod
    def monomial(dim: int, exps: Iterable[int], c=1) -> "Polynomial":
        return Polynomial(dim, {tuple(exps): c})

    @staticmethod
    def variable(dim: int, i: int) -> "Polynomial":
        if not 0 <= i < dim:
            raise DimensionMismatchError(f"variable index {i} out of range")
        exps = [0] * dim
        exps[i] = 1
        return Polynomial(dim, {tuple(exps): 1})

    # -- ring operations -------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if QI.try_coerce(other) is None:
                return NotImplemented
            other = Polynomial.constant(self.dim, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = terms[e] + c
                if s.is_zero():
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return _trusted(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            if QI.try_coerce(other) is None:
                return NotImplemented
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = QI.try_coerce(other)
            if c is None:
                return NotImplemented
            if c.is_zero():
                return Polynomial.zero(self.dim)
            return _trusted(self.dim, {e: q * c for e, q in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], QI] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _exp_add(e1, e2)
                c = c1 * c2     # nonzero: Q[i] is a field
                if e in out:
                    s = out[e] + c
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
                else:
                    out[e] = c
        return _trusted(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.dim, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus ---------------------------------------------------------
    def diff(self, i: int) -> "Polynomial":
        out: dict[tuple[int, ...], QI] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ee = list(e)
            ee[i] -= 1
            out[tuple(ee)] = c * e[i]
        return _trusted(self.dim, out)

    def derivative(self, multi: tuple) -> "Polynomial":
        """d^multi of self for a sorted multi-index, memoised on self
        with every prefix of multi.  The memo is made on first use and
        lives as long as self; equality and hash ignore it."""
        if not multi:
            return self
        try:
            jet = self._jet
        except AttributeError:
            jet = {}
            _set_jet(self, jet)
        d = jet.get(multi)
        if d is None:
            d = self.derivative(multi[:-1])
            if d.terms:
                d = d.diff(multi[-1])
            jet[multi] = d
        return d

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.dim == other.dim and self.terms == other.terms
        origin = (0,) * self.dim
        eq = self.terms.get(origin, ZERO).__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return eq and self.terms.keys() <= {origin}

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def eval_exact(self, point) -> QI:
        """Evaluate at exact rational coordinates."""
        xs = [QI.coerce(x) for x in point]
        powers = {}
        total = QI(0)
        for e, c in self.terms.items():
            v = c
            for i, (x, k) in enumerate(zip(xs, e)):
                if k:
                    if (i, k) not in powers:
                        powers[i, k] = x ** k
                    v = v * powers[i, k]
            total = total + v
        return total

    def conjugate(self) -> "Polynomial":
        return Polynomial(self.dim, {e: c.conjugate() for e, c in self.terms.items()})

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)*{mono}")
        return "Polynomial[" + " + ".join(bits) + "]"

    # -- serialization -------------------------------------------------------
    def to_json_obj(self) -> list:
        out = []
        for e in sorted(self.terms):
            c = self.terms[e]
            entry = {"exps": list(e), "num": c.re.numerator, "den": c.re.denominator}
            if c.im != 0:
                entry["im_num"] = c.im.numerator
                entry["im_den"] = c.im.denominator
            out.append(entry)
        return out

    @staticmethod
    def from_json_obj(dim: int, obj: list) -> "Polynomial":
        """Inverse of to_json_obj; integer fields, exponents unique."""
        terms = {}
        for entry in obj:
            exps = tuple(json_int(e, "exponent") for e in entry["exps"])
            if exps in terms:
                raise ParseError(f"repeated exponents {list(exps)}")
            num = json_int(entry["num"], "num")
            den = json_int(entry.get("den", 1), "den")
            im_num = json_int(entry.get("im_num", 0), "im_num")
            im_den = json_int(entry.get("im_den", 1), "im_den")
            if den == 0 or im_den == 0:
                raise ParseError(f"zero denominator in term {entry!r}")
            terms[exps] = QI(Fraction(num, den), Fraction(im_num, im_den))
        return Polynomial(dim, terms)


_set_dim = Polynomial.dim.__set__
_set_terms = Polynomial.terms.__set__
_set_jet = Polynomial._jet.__set__


def _trusted(dim: int, terms: dict) -> Polynomial:
    """Polynomial(dim, terms) without re-checking: terms already maps
    valid exponent tuples to nonzero QI values, and is not shared."""
    p = object.__new__(Polynomial)
    _set_dim(p, dim)
    _set_terms(p, terms)
    return p
