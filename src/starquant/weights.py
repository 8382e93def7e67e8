"""Graph weights: configuration-space integrals of wedge products of
angle 1-forms, their closed forms, and weight tables.

A graph with n aerial and m >= 2 ground vertices integrates the wedge
product over its edges e of the angle forms

    dphi(z_source(e), target(e))      (coefficients: integrand.angle_form)

over n points in the upper half plane and m-2 moving ground points
0 < t < 1, the outer two grounds pinned at 0 and 1.  Orientation is
fixed by the integrand's column convention (starquant.integrand) and
validated by the order-1 calibration (weight +1/2 for the graph
1:[L,R]).

Weights divide the raw integral by (2pi)^E n!, E = 2n + m - 2 the
edge count: the star normalisation at m = 2, and at every m the one
formality.u_n reads.

Integration lives in starquant.integrand, which integrate_graph_form
imports, and numpy with it, on the first integral of positive degree:
closed-form weights and tables read from JSON load neither.  A graph
that samples 2 dimensions gets integrand's deterministic rule, method
"cubature", whatever the configured method, budget and seed.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (ConfigError, ConvergenceWarning, DegreeMismatchError,
                     ParseError, json_int)
from .graphs import KGraph, orbit_representative, parse, serialize
from .rational import QI

_METHODS = ("qmc", "mc")              # what IntegrationConfig can ask for
# what an estimate can record: the deterministic rule is never asked for
_ENTRY_METHODS = _METHODS + ("cubature",)

# total sample budgets by form degree, powers of two so the replicates
# stay balanced; degree 2 (n = 1, m = 2) always gets the rule
_DEFAULT_BUDGET = {3: 2097152, 4: 4194304, 5: 1048576}
_FALLBACK_BUDGET = 1048576

TWO_PI = 2.0 * math.pi


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from the printed parts."""
    text = "|".join(str(p) for p in parts)
    dig = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(dig, "big")


def default_budget(dims: int) -> int:
    return _DEFAULT_BUDGET.get(dims, _FALLBACK_BUDGET)


@dataclass(frozen=True)
class IntegrationConfig:
    method: str = "qmc"
    n_samples: int | None = None      # total across replicates; None = auto
    seed: int = 0
    error_target: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        for name in ("n_samples", "seed"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n_samples is not None and self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.error_target is not None and (
                isinstance(self.error_target, bool)
                or not isinstance(self.error_target, numbers.Real)):
            raise ConfigError(f"error_target must be a real number, got "
                              f"{self.error_target!r}")
        if self.error_target is not None and not self.error_target > 0:
            raise ConfigError("error_target must be positive")


@dataclass(frozen=True)
class WeightEstimate:
    """A weight or raw integral with its error.  std_error is the
    replicate standard error for method qmc or mc, and for "cubature"
    the rule's deterministic error estimate, which overstates its error;
    bounds read both as a sigma.  n_samples counts the points the
    integrand was evaluated at (nodes, for the rule), 0 for an exact
    entry."""

    value: float
    std_error: float
    n_samples: int
    seed: int
    method: str
    exact: Fraction | None = None

    @functools.cached_property
    def qi(self) -> QI:
        """The weight as a QI: exact when known, else value read exactly
        as the dyadic rational it is; built once per estimate."""
        return QI(self.exact if self.exact is not None else self.value)

    def to_json_obj(self, graph: KGraph | None = None) -> dict:
        obj = {}
        if graph is not None:
            obj["graph"] = serialize(graph)
        obj.update({
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "method": self.method,
        })
        if self.exact is not None:
            obj["exact"] = [self.exact.numerator, self.exact.denominator]
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "WeightEstimate":
        """Inverse of to_json_obj; ParseError on a malformed field."""
        try:
            value, std_error = obj["value"], obj["std_error"]
            if any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in (value, std_error)):
                raise ParseError("value and std_error must be numbers")
            if not (math.isfinite(value) and math.isfinite(std_error)):
                raise ParseError("value and std_error must be finite")
            if std_error < 0:
                raise ParseError("std_error must be non-negative")
            n_samples, method = json_int(obj["n_samples"], "n_samples"), \
                obj["method"]
            if n_samples < 0 or method not in _ENTRY_METHODS:
                raise ParseError("n_samples must be non-negative and method "
                                 f"one of {_ENTRY_METHODS}")
            exact = obj.get("exact")
            if exact is not None:
                num, den = (json_int(q, "exact") for q in exact)
                exact = Fraction(num, den)
                if std_error != 0 or value != float(exact):
                    raise ParseError("an exact entry needs std_error 0 "
                                     "and value float(exact)")
            return WeightEstimate(float(value), float(std_error), n_samples,
                                  json_int(obj["seed"], "seed"), method, exact)
        except (KeyError, TypeError, ValueError, OverflowError,
                ZeroDivisionError) as exc:
            raise ParseError(f"bad weight estimate {obj!r}: {exc}") from exc


def _form_degree(graph: KGraph) -> int:
    """The domain dimension 2n + m - 2; m >= 2 grounds pin the gauge."""
    degree = 2 * graph.n + graph.m - 2
    if graph.m < 2:
        raise DegreeMismatchError(
            f"weights need at least 2 ground vertices, got m={graph.m}")
    if graph.edge_count != degree:
        raise DegreeMismatchError(
            f"edge count {graph.edge_count} != 2n + m - 2 = {degree}")
    return degree


def integrate_graph_form(graph: KGraph, cfg: IntegrationConfig
                         ) -> tuple[float, float, int]:
    """Raw form integral; returns (value, std_error, n_samples).

    The form degree (edge count) must equal the domain dimension
    2n + m - 2, with m >= 2.  integrand.integrate, loaded here on the
    first integral of positive degree, applies the deterministic rule to
    a graph with 2 sampled dimensions; it samples any other under
    cfg.method, seeded by cfg.seed, at a default budget that follows the
    form degree.
    """
    degree = _form_degree(graph)
    if degree == 0:
        return 1.0, 0.0, 0
    from . import integrand     # numpy and the sampler load on first use
    return integrand.integrate(graph, cfg.method,
                               cfg.n_samples or default_budget(degree),
                               cfg.seed)


# ---------------------------------------------------------------------------
# normalized weights
# ---------------------------------------------------------------------------

def weight(graph: KGraph, cfg: IntegrationConfig) -> WeightEstimate:
    """Weight: raw integral over (2pi)^E n! for a graph with m >= 2
    grounds and E = 2n + m - 2 edges; the star weight at m = 2.  The
    estimate records cfg.seed, which seeds a sampled integral.

    Two weights are stated, not integrated: the order-0 graph's (1) and
    that of a star graph the vanishing lemma covers (0, see
    exact_weight).  Each is an exact entry with n_samples 0 under
    cfg.method; integrate_graph_form still integrates either when asked.
    """
    edges = _form_degree(graph)
    if graph.n == 0 or _collapsing_set(graph):
        exact = Fraction(1 if graph.n == 0 else 0)
        return WeightEstimate(float(exact), 0.0, 0, cfg.seed, cfg.method,
                              exact=exact)
    return _on_target(_integrated(
        graph, cfg, TWO_PI ** edges * math.factorial(graph.n)), graph, cfg)


def _on_target(est: WeightEstimate, graph: KGraph,
               cfg: IntegrationConfig) -> WeightEstimate:
    """est, after a ConvergenceWarning naming graph if its std_error is
    above cfg.error_target."""
    if cfg.error_target is not None and est.std_error > cfg.error_target:
        warnings.warn(
            f"std_error {est.std_error:.3g} above target "
            f"{cfg.error_target:.3g} for {serialize(graph)}",
            ConvergenceWarning, stacklevel=3)
    return est


# Star weights solved exactly, keyed by orbit-representative serial
# (graphs.orbit_representative): every order-2 and order-3 orbit with a
# nonzero so(3) operator that no closed form in exact_weight covers.
# With W = members x w (8 members at order 2, 48 at order 3), so(3)
# associativity at hbar^2 and hbar^3 has rank 7: it fixes six of the ten
# W and leaves W_wheel - W_A - (W_B + W_C)/2 = 1/6 for the wheel and the
# three orbits A, B, C marked below.  Mirror parity
# w(mirror g) = (-1)^n w(g) gives w_B = w_C; factorisation over the parts
# that meet only at the grounds gives w_A = (2! 1!/3!) w_wheel w(1:[L,R]);
# the wheel's -1/48 is taken from the literature (the -1/6 hbar^2
# coefficient of Kontsevich, q-alg/9709040), not derived.
# tests/test_solved_weights.py re-derives every value from these
# constraints.
SOLVED_WEIGHTS = {
    "n=2;m=2;1:[2,L];2:[1,R]": Fraction(-1, 48),           # wheel
    "n=2;m=2;1:[2,L];2:[L,R]": Fraction(-1, 24),
    "n=2;m=2;1:[2,R];2:[L,R]": Fraction(1, 24),
    "n=3;m=2;1:[2,L];2:[1,R];3:[L,R]": Fraction(-1, 288),   # A
    "n=3;m=2;1:[2,L];2:[3,L];3:[L,R]": Fraction(0),
    "n=3;m=2;1:[2,L];2:[3,R];3:[L,R]": Fraction(-1, 288),   # B
    "n=3;m=2;1:[2,L];2:[L,R];3:[1,R]": Fraction(-1, 288),   # C
    "n=3;m=2;1:[2,L];2:[L,R];3:[L,R]": Fraction(-1, 144),
    "n=3;m=2;1:[2,R];2:[3,R];3:[L,R]": Fraction(0),
    "n=3;m=2;1:[2,R];2:[L,R];3:[L,R]": Fraction(1, 144),
}
_SOLVED_ORDER = max(parse(ser).n for ser in SOLVED_WEIGHTS)


@functools.lru_cache(maxsize=4096)
def exact_weight(graph: KGraph) -> Fraction | None:
    """Closed-form weight (weight's normalisation) when one is known,
    else None; memoised, as it is a pure function of the frozen graph.

    Five sources, in order:
    - one aerial vertex: a graph with n = 1 is I_p, p = m - 1, with
      its targets permuted, so its weight is sgn(pi) i_p_rational(p),
      pi taking the targets to descending position;
    and for star graphs (m = 2):
    - the vanishing lemma (Kontsevich, q-alg/9709040 section 7): zero
      when some set S of aerial vertices sends every out-edge into S
      plus at most one ground.  S's angle forms are then invariant
      under dilation about that ground, so their rows of the form
      matrix all annihilate the dilation field: they are dependent and
      the integrand is zero pointwise;
    - the order-0 graph (weight 1);
    - derivative-free graphs (every edge lands on a ground vertex),
      whose integral factorizes into order-1 blocks;
    - the solved table SOLVED_WEIGHTS: a graph of order at most 3 whose
      orbit representative is listed gets sign x its value
      (orbit_representative's sign); the order test spares larger
      graphs the orbit search.  These values are exact solutions of
      associativity and the other constraints named there, with the
      wheel weight an input from the literature.
    Anything else is None: star products and u_n sample it.
    `starquant weight` without --exact never calls this, but weight()
    states the lemma's zeros through the same predicate, _collapsing_set;
    every other graph is integrated.
    """
    n, m = graph.n, graph.m
    if m < 2 or graph.edge_count != 2 * n + m - 2:
        return None
    if n == 1:
        # pairs of targets out of descending order: sgn(pi) = (-1)^ascents
        ascents = sum(a < b for a, b in itertools.combinations(
            graph.out_edges[0], 2))
        return (-1) ** ascents * i_p_rational(m - 1)
    if m != 2:
        return None
    if _collapsing_set(graph):
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    left, right = n, n + 1
    sign = 1
    for targets in graph.out_edges:
        if targets == (left, right):
            continue
        if targets == (right, left):
            sign = -sign
            continue
        break
    else:
        return Fraction(sign, 2 ** n * math.factorial(n))
    if n > _SOLVED_ORDER:
        return None
    rep, sign = orbit_representative(graph)
    solved = SOLVED_WEIGHTS.get(serialize(rep))
    return None if solved is None else sign * solved


def _collapsing_set(graph: KGraph) -> bool:
    """The vanishing lemma's hypothesis (exact_weight), its one source:
    is graph a star graph in which some set S of aerial vertices sends
    every out-edge into S plus at most one ground vertex?"""
    n = graph.n
    if graph.m != 2:
        return False
    for size in range(2, n + 1):
        for s in itertools.combinations(range(n), size):
            out = {t for v in s for t in graph.out_edges[v]}.difference(s)
            if len(out) <= 1 and all(t >= n for t in out):
                return True
    return False


def _by_rule(graph: KGraph, method: str) -> bool:
    """Does weight integrate graph by integrand's deterministic rule?
    integrand is loaded only for a graph that weight integrates."""
    if graph.n == 0 or _collapsing_set(graph):
        return False
    from . import integrand
    return integrand.method_of(graph, method) == "cubature"


def _integrated(graph: KGraph, cfg: IntegrationConfig,
                norm: float = 1.0) -> WeightEstimate:
    """The raw integral of a graph with n >= 1 over norm, recording cfg.seed
    and the method integrand.integrate applied."""
    from . import integrand
    raw, raw_se, n_used = integrate_graph_form(graph, cfg)
    return WeightEstimate(raw / norm, raw_se / norm, n_used, cfg.seed,
                          integrand.method_of(graph, cfg.method))


def i_p_integral(p: int, cfg: IntegrationConfig) -> WeightEstimate:
    """Raw angle-form integral over one aerial point and p+1 grounds,
    wedge factors ordered by descending ground position; cfg.seed.

    Closed form: (-1)^p (2pi)^(p+1) / (p+1)!, so this doubles as a
    calibration target for the moving-ground machinery.
    """
    if p < 1:
        raise DegreeMismatchError("i_p_integral needs p >= 1")
    m = p + 1
    targets = tuple(1 + k for k in reversed(range(m)))
    return _integrated(KGraph(1, m, (targets,)), cfg)


def i_p_rational(p: int) -> Fraction:
    """Closed form divided by (2pi)^(p+1); valid for p >= 0."""
    if p < 0:
        raise DegreeMismatchError("i_p is defined for p >= 0")
    return Fraction((-1) ** p, math.factorial(p + 1))


# ---------------------------------------------------------------------------
# weight tables
# ---------------------------------------------------------------------------

class WeightTable:
    """Ordered map graph serialization -> WeightEstimate.

    derived keeps values computed from the entries alone (the star
    engine's weight reads and orbit sums) until the entries next
    change: put and every entry ensure adds drop them all.
    """

    def __init__(self):
        self._entries: dict[str, tuple[KGraph, WeightEstimate]] = {}
        self._derived: dict = {}

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def get(self, graph: KGraph) -> WeightEstimate | None:
        return self.lookup(serialize(graph))

    def lookup(self, ser: str) -> WeightEstimate | None:
        """The entry of the graph whose serialization is ser, or None."""
        hit = self._entries.get(ser)
        return hit[1] if hit else None

    def graphs(self):
        """(serialization, graph) of each entry, in table order."""
        return ((ser, g) for ser, (g, _) in self._entries.items())

    def derived(self, key, compute):
        """The value kept under key, else compute()'s, kept under key
        until the entries next change.  compute may add entries; its
        value is kept for the state it leaves.  key and value must
        depend on nothing but the entries and key's own contents."""
        hit = self._derived.get(key)
        if hit is None:
            hit = compute()
            self._derived[key] = hit
        return hit

    def _set(self, ser: str, graph: KGraph, est: WeightEstimate) -> None:
        self._derived.clear()
        self._entries[ser] = (graph, est)

    def put(self, graph: KGraph, est: WeightEstimate) -> None:
        self._set(serialize(graph), graph, est)

    def ensure(self, graphs, cfg: IntegrationConfig,
               use_exact: bool = False, *,
               pooled: dict | None = None) -> "WeightTable":
        """Fill in missing graphs once each; existing entries are kept.

        With use_exact, graphs with a known closed form get exact
        entries first; the rest then go through weight() one after
        another in the calling thread, in list order (so the vanishing
        lemma's zeros are exact either way).  pooled maps a graph's
        serialization to the number k of graphs its one entry stands in
        for (an orbit representative's readers); a missing graph listed
        there is integrated once at k times the per-graph budget
        (cfg.n_samples or default_budget).  Every entry runs under cfg
        with that budget and records the seed stable_seed(cfg.seed,
        serialization), which the deterministic rule does not read.

        The rule integrates each orbit once per call: a graph it covers
        (integrand.method_of) gets sign x the value of its orbit
        representative (graphs.orbit_representative), with the
        representative's std_error, n_samples and method.  Every sampled
        graph keeps an integral of its own, so sampled entries stay
        independent estimates.  Each entry added drops the values kept
        by derived; a call that adds none keeps them.
        """
        pending = {ser: g for g in graphs
                   if (ser := serialize(g)) not in self._entries}
        rest = []
        for ser, g in pending.items():
            closed = exact_weight(g) if use_exact else None
            if closed is None:
                rest.append((ser, g))
            else:
                self._set(ser, g, WeightEstimate(
                    float(closed), 0.0, 0, stable_seed(cfg.seed, ser),
                    cfg.method, exact=closed))
        rules = {}      # orbit representative serial -> its rule estimate
        for ser, g in rest:
            budget = cfg.n_samples or default_budget(_form_degree(g))
            g_cfg = replace(cfg, seed=stable_seed(cfg.seed, ser),
                            n_samples=(pooled or {}).get(ser, 1) * budget)
            if not _by_rule(g, cfg.method):
                self._set(ser, g, weight(g, g_cfg))
                continue
            rep, sign = orbit_representative(g)
            rule = rules.get(rep_ser := serialize(rep))
            if rule is None:
                rule = rules[rep_ser] = weight(
                    rep, replace(g_cfg, error_target=None))
            self._set(ser, g, _on_target(replace(
                rule, value=sign * rule.value, seed=g_cfg.seed), g, cfg))
        return self

    def to_json_obj(self) -> list:
        return [est.to_json_obj(g) for g, est in self]

    @staticmethod
    def from_json_obj(obj: list) -> "WeightTable":
        if not isinstance(obj, list):
            raise ParseError("a weight table is a JSON list of entries")
        table = WeightTable()
        for entry in obj:
            graph = entry.get("graph") if isinstance(entry, dict) else None
            if not isinstance(graph, str):
                raise ParseError(f"entry without a graph: {entry!r}")
            g = parse(graph)
            if table.lookup(ser := serialize(g)) is not None:
                raise ParseError(f"repeated entry for {ser}")
            table.put(g, WeightEstimate.from_json_obj(entry))
        return table

    def to_csv(self) -> str:
        lines = ["graph,value,std_error,n_samples,seed,method"]
        for g, est in self:
            lines.append(f"{serialize(g)},{est.value!r},{est.std_error!r},"
                         f"{est.n_samples},{est.seed},{est.method}")
        return "\n".join(lines) + "\n"
