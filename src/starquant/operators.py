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
which builds one operator per graphs.orbit_representative orbit of a
graph family and hands each graph its sign.  Its cache is the one place
where built operators outlive a call; applied values are never kept.
Derivatives of the arguments are read through jets (see
PolyDiffOperator.apply) that the caller keeps for one graph sum, so
every orbit of a star product or u_n differentiates its arguments once.
"""
from __future__ import annotations

import functools
import itertools

from .errors import (ArityMismatchError, DegreeMismatchError,
                     DimensionMismatchError)
from .graphs import (KGraph, enumerate_graphs, orbit_representative,
                     serialize)
from .poly import Polynomial
from .rational import QI


def derivative(p: Polynomial, multi: tuple, jet: dict) -> Polynomial:
    """d^multi p for a sorted multi-index, read from jet (multi-index ->
    derivative of p) and added to it with every prefix of multi."""
    if not multi:
        return p
    d = jet.get(multi)
    if d is None:
        d = derivative(p, multi[:-1], jet)
        if not d.is_zero():
            d = d.diff(multi[-1])
        jet[multi] = d
    return d


class PolyDiffOperator:
    """Finite sum  c_T(x) * prod_k d^(T_k) arg_k  over multi-indices.

    ``terms`` maps a tuple of ``arity`` sorted derivative multi-indices
    (one per argument slot) to its polynomial coefficient.  Zero
    coefficients are dropped on construction, so ``not self.terms``
    means the operator is zero.
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
            if not poly.is_zero():
                clean[tuple(tuple(sorted(multi)) for multi in key)] = poly
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

    def apply(self, args, jets=None) -> Polynomial:
        """The operator on args, reading d^a args[k] from jets[k].

        jets[k] maps a sorted multi-index a to d^a args[k]; derivatives
        missing from it are computed and added, so applies that share
        an argument can share its jet and differentiate it once.
        Without jets every argument gets a fresh one.
        """
        args = tuple(args)
        if len(args) != self.arity:
            raise ArityMismatchError(
                f"operator takes {self.arity} arguments, got {len(args)}")
        for a in args:
            if a.dim != self.dim:
                raise DimensionMismatchError(
                    f"argument dim {a.dim}, operator dim {self.dim}")
        if jets is None:
            jets = [{} for _ in args]
        elif len(jets) != self.arity:
            raise ArityMismatchError(
                f"operator takes {self.arity} jets, got {len(jets)}")
        out = Polynomial.zero(self.dim)
        for key, coeff in self.terms.items():
            term = coeff
            for multi, arg, jet in zip(key, args, jets):
                factor = derivative(arg, multi, jet)
                if factor.is_zero():
                    break
                term = term * factor
            else:
                out = out + term
        return out

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
    """Operators of a graph family, fields[i] at aerial vertex i, built
    once per orbit.  rows lists (graph, serial, orbit serial, sign) of
    the graphs with nonzero operator, in order: op(graph) = sign x
    op(orbit) and weight(graph) = sign x weight(orbit).  Immutable once
    built, so one family serves every caller.  The orbits of one graph
    sum act on the same arguments, so callers pass each argument's jet
    to every orbit's apply and it is differentiated once per sum."""

    def __init__(self, graphs, fields):
        fields = tuple(fields)
        # equal fields share a label unless of odd rank: relabelling
        # those flips the weight's sign but not the operator's
        labels = tuple(fields.index(f) if f.degree % 2 else i
                       for i, f in enumerate(fields))
        self._ops = {}
        rows = []
        for g in graphs:
            rep, sign = orbit_representative(g, labels)
            orbit = serialize(rep)
            if orbit not in self._ops:
                self._ops[orbit] = build_operator(rep, fields)
            if self._ops[orbit].terms:
                rows.append((g, serialize(g), orbit, sign))
        self.rows = tuple(rows)

    def apply(self, orbit: str, args, jets=None) -> Polynomial:
        """The orbit's operator on args; jets as PolyDiffOperator.apply."""
        return self._ops[orbit].apply(args, jets)


@functools.lru_cache(maxsize=8)
def orbit_operators(fields: tuple, m: int) -> OrbitOperators:
    """OrbitOperators of every admissible graph with fields[i] at aerial
    vertex i and m ground vertices, kept for the last few (fields, m)
    pairs: the operators are exact functions of them, so star products
    and u_n on equal fields build each orbit operator once."""
    return OrbitOperators(
        enumerate_graphs(len(fields), m, [f.degree for f in fields]), fields)
