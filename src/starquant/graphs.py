"""Admissible two-colour directed graphs and their enumeration.

A graph of order n on m ground vertices has aerial vertices 1..n, each
carrying an ordered tuple of outgoing edges, and ground vertices that
only receive.  The edges form a set (Kontsevich, q-alg/9709040
section 4.1): no edge starts and ends at the same vertex, and the
targets of one vertex are pairwise distinct.

Internally targets are 0-based integers: 0..n-1 aerial, n..n+m-1
ground.  The text form numbers aerial vertices from 1 and names ground
vertices L, R when m = 2 (the star-product case) and G0..G(m-1)
otherwise.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import EnumerationCapError, ParseError, json_int
from .polyvector import sort_with_sign

DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class KGraph:
    """Immutable admissible graph: ordered out-edges per aerial vertex."""

    n: int
    m: int
    out_edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ParseError("vertex counts must be non-negative")
        if len(self.out_edges) != self.n:
            raise ParseError(f"expected {self.n} out-edge tuples, got {len(self.out_edges)}")
        object.__setattr__(self, "out_edges", tuple(tuple(t) for t in self.out_edges))
        hi = self.n + self.m
        for i, targets in enumerate(self.out_edges):
            if not targets:
                raise ParseError(f"vertex {i + 1} has no outgoing edges")
            if len(set(targets)) != len(targets):
                raise ParseError(f"vertex {i + 1} has a doubled edge")
            for t in targets:
                if t == i:
                    raise ParseError(f"vertex {i + 1} has a self-loop")
                if not 0 <= t < hi:
                    raise ParseError(f"target {t} of vertex {i + 1} out of range")

    # -- basic structure ------------------------------------------------
    @property
    def degrees(self) -> tuple[int, ...]:
        """Field degrees p_i = out-degree - 1."""
        return tuple(len(t) - 1 for t in self.out_edges)

    @property
    def edge_count(self) -> int:
        return sum(len(t) for t in self.out_edges)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """(source, slot, target) triples in vertex-then-slot order."""
        for i, targets in enumerate(self.out_edges):
            for s, t in enumerate(targets):
                yield i, s, t

    # -- involutions ----------------------------------------------------
    def mirror(self) -> "KGraph":
        """Swap the two ground targets (m = 2 only)."""
        if self.m != 2:
            raise ParseError("mirror needs exactly two ground vertices")
        l, r = self.n, self.n + 1
        swap = {l: r, r: l}
        return KGraph(self.n, self.m,
                      tuple(tuple(swap.get(t, t) for t in ts) for ts in self.out_edges))

    # -- names ----------------------------------------------------------
    def _ground_name(self, k: int) -> str:
        if self.m == 2:
            return "LR"[k]
        return f"G{k}"

    def target_name(self, t: int) -> str:
        if t < self.n:
            return str(t + 1)
        return self._ground_name(t - self.n)


def serialize(g: KGraph) -> str:
    """Canonical text form, e.g. ``n=1;m=2;1:[L,R]``."""
    parts = [f"n={g.n}", f"m={g.m}"]
    for i, targets in enumerate(g.out_edges):
        names = ",".join(g.target_name(t) for t in targets)
        parts.append(f"{i + 1}:[{names}]")
    return ";".join(parts)


_VERTEX_RE = re.compile(r"^(\d+):\[([^\[\]]*)\]$")


def _parse_target(token: str, n: int, m: int) -> int:
    token = token.strip()
    if token in ("L", "R"):
        if m != 2:
            raise ParseError(f"ground name {token!r} needs m=2, got m={m}")
        return n + ("LR".index(token))
    gm = re.fullmatch(r"G(\d+)", token)
    if gm:
        k = int(gm.group(1))
        if k >= m:
            raise ParseError(f"ground vertex {token} out of range for m={m}")
        return n + k
    if token.isdecimal():
        v = int(token)
        if not 1 <= v <= n:
            raise ParseError(f"aerial target {v} out of range for n={n}")
        return v - 1
    raise ParseError(f"unrecognized target {token!r}")


def parse(text: str) -> KGraph:
    """Inverse of :func:`serialize`; raises ParseError on malformed input."""
    parts = [p for p in text.strip().split(";") if p]
    if len(parts) < 2 or not parts[0].startswith("n=") or not parts[1].startswith("m="):
        raise ParseError(f"expected 'n=..;m=..' header in {text!r}")
    try:
        n, m = int(parts[0][2:]), int(parts[1][2:])
    except ValueError as exc:
        raise ParseError(f"bad header in {text!r}") from exc
    rows: dict[int, tuple[int, ...]] = {}
    for part in parts[2:]:
        mt = _VERTEX_RE.match(part.strip())
        if not mt:
            raise ParseError(f"malformed vertex entry {part!r}")
        idx = int(mt.group(1))
        if not 1 <= idx <= n or idx in rows:
            raise ParseError(f"bad vertex index {idx}")
        tokens = [t for t in mt.group(2).split(",") if t.strip()]
        rows[idx] = tuple(_parse_target(t, n, m) for t in tokens)
    if set(rows) != set(range(1, n + 1)):
        raise ParseError("missing vertex entries")
    return KGraph(n, m, tuple(rows[i] for i in range(1, n + 1)))


def to_json_obj(g: KGraph) -> dict:
    """JSON object form: aerial targets 1-based ints, ground "G0", "G1", ..."""
    edges = []
    for targets in g.out_edges:
        edges.append([t + 1 if t < g.n else f"G{t - g.n}" for t in targets])
    return {"n": g.n, "m": g.m, "edges": edges}


def from_json_obj(obj: dict) -> KGraph:
    try:
        n, m, edges = obj["n"], obj["m"], obj["edges"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad graph object {obj!r}") from exc
    n, m = json_int(n, "n"), json_int(m, "m")
    if not (isinstance(edges, list)
            and all(isinstance(targets, list) for targets in edges)):
        raise ParseError(f"edges must be a list of target lists: {edges!r}")
    # an aerial target is a JSON integer, a ground one a name like "G0"
    rows = [tuple(_parse_target(t if isinstance(t, str) else
                                str(json_int(t, "aerial target")), n, m)
                  for t in targets) for targets in edges]
    return KGraph(n, m, tuple(rows))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def count_graphs(n: int, m: int, degrees: Sequence[int], *,
                 cap: int | None = None) -> int:
    """Closed-form count of admissible graphs with the given profile;
    EnumerationCapError as soon as a running product passes `cap`."""
    if n < 0 or m < 0:
        raise ParseError(f"vertex counts must be non-negative, got n={n}, m={m}")
    if len(degrees) != n:
        raise ParseError(f"need {n} degrees, got {len(degrees)}")
    if any(p < 0 for p in degrees):
        raise ParseError(f"degrees must be non-negative, got {list(degrees)}")
    total = 1
    for p in degrees:
        total *= math.perm(n + m - 1, p + 1)  # any target but the vertex
        if cap is not None and total > cap:
            raise EnumerationCapError(
                f"more than {cap} graphs; raise `cap` explicitly to proceed")
    return total


def enumerate_graphs(n: int, m: int, degrees: Sequence[int], *,
                     cap: int = DEFAULT_CAP) -> list[KGraph]:
    """All admissible graphs in canonical lexicographic target order.

    The order compares the flattened tuples of internal integer targets,
    so it is stable across runs and platforms.  Raises
    EnumerationCapError if the closed-form count exceeds `cap`.
    """
    count_graphs(n, m, degrees, cap=cap)
    per_vertex = []
    for i, p in enumerate(degrees):
        targets = [t for t in range(n + m) if t != i]
        per_vertex.append(sorted(itertools.permutations(targets, p + 1)))
    out = [KGraph(n, m, rows) for rows in itertools.product(*per_vertex)]
    return out


def star_graphs(order: int, *, cap: int = DEFAULT_CAP) -> list[KGraph]:
    """Order-n graphs of the binary star expansion: two ground vertices,
    every aerial vertex of out-degree two."""
    return enumerate_graphs(order, 2, [1] * order, cap=cap)


def orbit_representative(g: KGraph, labels=None) -> tuple[KGraph, int]:
    """Least graph of g's orbit under out-edge permutations and the
    aerial relabellings that keep every label (default: all equal), and
    sign = the product of the signs of the out-edge sorts.  With equal
    antisymmetric fields at equally labelled vertices op(g) = sign x
    op(rep), and for star graphs likewise the weights; an orbit reaching
    a graph with both signs has zero operator, so the sign there is
    immaterial.
    """
    n = g.n
    ground = tuple(range(n, n + g.m))
    best = None
    for perm in itertools.permutations(range(n)):
        if labels and any(labels[p] != labels[i] for i, p in enumerate(perm)):
            continue
        relabel = perm + ground
        rows = [()] * n
        sign = 1
        for i, targets in enumerate(g.out_edges):
            rows[perm[i]], s = sort_with_sign(
                tuple(relabel[t] for t in targets))
            sign *= s
        if best is None or tuple(rows) < best[0]:
            best = (tuple(rows), sign)
    return KGraph(n, g.m, best[0]), best[1]
