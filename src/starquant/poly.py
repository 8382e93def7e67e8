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

Exact sums of many terms (a product of polynomials, an operator
applied to its arguments, a star coefficient, a graph sum) go through
the private accumulator _Sum.  It keeps one running raw triple
(a, b, d), value (a + b i)/d, per monomial, adds each term's triple to
it in integers over the lcm of the two denominators, and normalises
each output coefficient once, by rational._make, when the sum is
read: one gcd per output monomial instead of one QI and one gcd per
ring operation.  A running sum that hits 0 drops its monomial, and a
later term re-adds it at the end, as Polynomial.__add__ does; a
product's raw terms are complete before they join the sum, so every
result holds the values and the term order of the op-by-op ring
operations.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, ParseError, json_int
from .rational import QI, ZERO, _make


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
        out = _Sum(self.dim)
        out.add_product((self, other))
        return out.polynomial()

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
            k = e[i]
            if k == 0:
                continue
            ee = list(e)
            ee[i] = k - 1
            a, b, d = c._abd
            out[tuple(ee)] = _make(a * k, b * k, d)
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


def _merge(sums: dict, e: tuple, a: int, b: int, d: int) -> None:
    """Add the raw triple (a + b i)/d to sums[e], a list [A, B, D] of
    the running sum (A + B i)/D over the lcm of the denominators seen;
    e is dropped when the sum hits 0 and re-added at the end later."""
    s = sums.get(e)
    if s is None:
        sums[e] = [a, b, d]
        return
    A, B, D = s
    if D != d:
        if D % d == 0:
            k = D // d
            a *= k
            b *= k
        elif d % D == 0:
            k = d // D
            A *= k
            B *= k
            s[2] = d
        else:
            g = gcd(D, d)
            k, D = d // g, D // g
            A *= k
            B *= k
            a *= D
            b *= D
            s[2] = D * d
    A += a
    B += b
    if A or B:
        s[0] = A
        s[1] = B
    else:
        del sums[e]


def _times(into: dict, left, right: Polynomial) -> None:
    """into += left x right: left holds (exponents, raw triple (a, b,
    d)) pairs, and each product joins into as _merge adds it."""
    get = into.get
    rterms = right.terms.items()
    for e1, (a1, b1, d1) in left:
        for e2, c2 in rterms:
            a2, b2, d2 = c2._abd
            e = tuple(map(add, e1, e2))
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            s = get(e)
            if s is None:
                into[e] = [a, b, d]
            elif s[2] == d:     # _merge's common case, inline
                a += s[0]
                b += s[1]
                if a or b:
                    s[0] = a
                    s[1] = b
                else:
                    del into[e]
            else:
                _merge(into, e, a, b, d)


class _Sum:
    """An exact sum of polynomial terms on R^dim, normalised once.

    sums maps each monomial to its running raw triple [a, b, d] (see
    _merge); polynomial() builds each coefficient with rational._make.
    Terms join in the order the op-by-op ring operations add them, so
    the result has their values and their term order.
    """

    __slots__ = ("dim", "sums")

    def __init__(self, dim: int):
        self.dim = dim
        self.sums = {}

    def add(self, p: Polynomial, scale: QI | None = None) -> None:
        """self += p x scale (scale 1 when None)."""
        sums = self.sums
        if scale is None:
            for e, c in p.terms.items():
                a, b, d = c._abd
                _merge(sums, e, a, b, d)
            return
        x, y, z = scale._abd
        if not (x or y):
            return
        for e, c in p.terms.items():
            a, b, d = c._abd
            _merge(sums, e, a * x - b * y, a * y + b * x, d * z)

    def add_product(self, factors) -> None:
        """self += the product of the polynomials factors, multiplied
        left to right, each partial product summed in full before the
        next factor (so it drops what (f g) h drops)."""
        first, *rest = factors
        if not rest:
            self.add(first)
            return
        *rest, last = rest
        cur = [(e, c._abd) for e, c in first.terms.items()]
        for q in rest:
            nxt = {}
            _times(nxt, cur, q)
            cur = nxt.items()
        if not self.sums:
            _times(self.sums, cur, last)
            return
        into = {}
        _times(into, cur, last)
        sums = self.sums
        for e, (a, b, d) in into.items():
            _merge(sums, e, a, b, d)

    def polynomial(self) -> Polynomial:
        """The sum as a Polynomial, each coefficient normalised once."""
        return _trusted(self.dim, {e: _make(a, b, d)
                                   for e, (a, b, d) in self.sums.items()})
