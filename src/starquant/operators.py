"""Polydifferential operators attached to admissible graphs.

A graph with n aerial and m ground vertices, plus one polyvector field
per aerial vertex (tensor rank = number of outgoing edges), defines an
m-ary operator: every edge carries a summed coordinate index, the
out-edges of an aerial vertex select a full tensor component of its
field, and every in-edge differentiates whatever sits at the target
vertex.  Summing over all index assignments gives the operator.

The sum is organised per vertex: only nonzero full components of each
field are enumerated, so sparse fields cost far less than the dense
d^(edge count) labeling sum.

Graph sums (star products and u_n alike) go through orbit_operators,
which counts a family's graphs per graphs.orbit_representative orbit,
canonicalising only those with sorted out-edges, and builds one
operator per orbit.  Its cache is the one place where built operators
outlive a call; applied values are never kept.
Derivatives of the arguments are read through Polynomial.derivative,
memoised on each argument for as long as it lives, so every orbit of a
star product or u_n differentiates its arguments once.
PolyDiffOperator.apply sums every term's product c_T d^(T_1) arg_1 ...
in one poly._Sum, so each coefficient of the result is normalised once
rather than after every product and every addition.
"""
from __future__ import annotations

import functools
import itertools
import math

from .errors import (ArityMismatchError, DegreeMismatchError,
                     DimensionMismatchError)
from .graphs import (DEFAULT_CAP, KGraph, count_graphs, orbit_representative,
                     serialize)
from .poly import Polynomial, _Sum
from .rational import QI


class PolyDiffOperator:
    """Finite sum  c_T(x) * prod_k d^(T_k) arg_k  over multi-indices.

    ``terms`` maps a tuple of ``arity`` sorted derivative multi-indices
    (one per argument slot) to its polynomial coefficient.  Keys that
    sort to the same multi-indices name the same derivatives, so their
    coefficients are summed; zero coefficients are dropped on
    construction, so ``not self.terms`` means the operator is zero.
    """

    __slots__ = ("arity", "dim", "terms")

    def __init__(self, arity: int, dim: int, terms: dict):
        if arity < 0:
            raise ArityMismatchError("operator arity must be nonnegative")
        clean = {}
        for key, poly in terms.items():
            if len(key) != arity:
                raise ArityMismatchError(
                    f"term key {key} does not match arity {arity}")
            if poly.dim != dim:
                raise DimensionMismatchError(
                    f"coefficient dim {poly.dim}, operator dim {dim}")
            if poly.is_zero():
                continue
            key = tuple(tuple(sorted(multi)) for multi in key)
            poly = clean[key] + poly if key in clean else poly
            if poly.is_zero():
                del clean[key]
            else:
                clean[key] = poly
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyDiffOperator is immutable")

    @classmethod
    def zero(cls, arity: int, dim: int) -> "PolyDiffOperator":
        return cls(arity, dim, {})

    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, args) -> Polynomial:
        """The operator on args, reading d^a args[k] through
        args[k].derivative(a).  Every term's product joins one exact
        sum, normalised once per output monomial; the result has the
        values and term order of multiplying and adding term by term."""
        args = tuple(args)
        if len(args) != self.arity:
            raise ArityMismatchError(
                f"operator takes {self.arity} arguments, got {len(args)}")
        for a in args:
            if a.dim != self.dim:
                raise DimensionMismatchError(
                    f"argument dim {a.dim}, operator dim {self.dim}")
        out = _Sum(self.dim)
        for key, coeff in self.terms.items():
            factors = [coeff]
            for multi, arg in zip(key, args):
                factor = arg.derivative(multi)
                if factor.is_zero():
                    break
                factors.append(factor)
            else:
                out.add_product(factors)
        return out.polynomial()

    def __mul__(self, scalar):
        c = QI.try_coerce(scalar)
        if c is None:
            return NotImplemented
        return PolyDiffOperator(
            self.arity, self.dim, {k: p * c for k, p in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOperator):
            return NotImplemented
        return (self.arity == other.arity and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self):
        return (f"PolyDiffOperator(arity={self.arity}, dim={self.dim}, "
                f"{len(self.terms)} terms)")


def build_operator(graph: KGraph, fields, dim: int | None = None
                   ) -> PolyDiffOperator:
    """Operator of ``graph`` with ``fields[i]`` at aerial vertex i.

    Field ranks must match the out-degrees.  ``dim`` is only needed for
    the edgeless order-0 graph, where there is no field to read it off.
    """
    fields = tuple(fields)
    if len(fields) != graph.n:
        raise ArityMismatchError(
            f"graph has {graph.n} aerial vertices, got {len(fields)} fields")
    dims = {f.dim for f in fields}
    if dim is not None:
        dims.add(dim)
    if len(dims) != 1:
        raise DimensionMismatchError(
            "fields on different spaces" if dims else
            "order-0 graph needs an explicit dim")
    d = dims.pop()
    for i, f in enumerate(fields):
        want = len(graph.out_edges[i])
        if f.degree + 1 != want:
            raise DegreeMismatchError(
                f"vertex {i + 1} has {want} out-edges but the attached "
                f"field has rank {f.degree + 1}")

    in_pairs: dict[int, list] = {v: [] for v in range(graph.n + graph.m)}
    for src, slot, tgt in graph.edges():
        in_pairs[tgt].append((src, slot))

    per_vertex = [list(f.iter_full_components()) for f in fields]
    if any(not opts for opts in per_vertex):
        return PolyDiffOperator.zero(graph.m, d)

    terms: dict[tuple, Polynomial] = {}
    for choice in itertools.product(*per_vertex):
        idx = tuple(c[0] for c in choice)
        coeff = Polynomial.constant(d, 1)
        dead = False
        for i in range(graph.n):
            poly = choice[i][1]
            for src, slot in in_pairs[i]:
                poly = poly.diff(idx[src][slot])
                if poly.is_zero():
                    dead = True
                    break
            if dead:
                break
            coeff = coeff * poly
        if dead:
            continue
        key = tuple(
            tuple(sorted(idx[src][slot]
                         for src, slot in in_pairs[graph.n + k]))
            for k in range(graph.m))
        terms[key] = terms[key] + coeff if key in terms else coeff
    return PolyDiffOperator(graph.m, d, terms)


class OrbitOperators:
    """Operators of the admissible graphs with fields[i] at aerial
    vertex i and m grounds, built once per orbit.  orbits lists
    (representative, serial, k) of the orbits with nonzero operator, in
    enumerate_graphs order: each of the k members g has sign x rep's
    operator and weight, (rep, sign) = orbit_representative(g, labels).
    Immutable once built, so one family serves every caller."""

    def __init__(self, fields, m: int):
        fields = tuple(fields)
        degrees = [f.degree for f in fields]
        # equal fields share a label unless of odd rank: relabelling
        # those flips the weight's sign but not the operator's
        self.labels = tuple(fields.index(f) if f.degree % 2 else i
                            for i, f in enumerate(fields))
        # a graph with sorted rows stands for the orderings of its rows;
        # those graphs, in enumerate_graphs order, are the products of
        # each vertex's sorted target tuples
        n = len(fields)
        count_graphs(n, m, degrees, cap=DEFAULT_CAP)  # enumerate_graphs' cap
        orderings = math.prod(math.factorial(p + 1) for p in degrees)
        rows = [itertools.combinations([t for t in range(n + m) if t != i],
                                       p + 1) for i, p in enumerate(degrees)]
        sizes = {}
        for out_edges in itertools.product(*rows):
            rep = orbit_representative(KGraph(n, m, out_edges),
                                       self.labels)[0]
            sizes[rep] = sizes.get(rep, 0) + orderings
        self._ops = {serialize(rep): build_operator(rep, fields)
                     for rep in sizes}
        self.orbits = tuple((rep, ser, k) for (rep, k), (ser, op) in zip(
            sizes.items(), self._ops.items()) if op.terms)

    def apply(self, orbit: str, args) -> Polynomial:
        """The orbit's operator on args."""
        return self._ops[orbit].apply(args)


# OrbitOperators(fields, m) of the last few (fields, m): star products
# and u_n on equal fields build each orbit operator once
orbit_operators = functools.lru_cache(maxsize=8)(OrbitOperators)
