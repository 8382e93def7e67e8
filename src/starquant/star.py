"""Star product assembly and its verifiers.

The hbar^n coefficient of f * g is (i/2)^n sum over order-n star
graphs of weight x operator value.  Weights come from a shared
WeightTable; their statistical errors are pushed through every
derived quantity, so each report carries a per-power bound.

Orbit sharing.  Every aerial vertex carries the same antisymmetric
bivector, so each of the k_r members of an orbit r of
operators.orbit_operators has sign x its representative's operator
and weight: the hbar^n sum runs over orbits, against the orbit weight
W_r = sum of sign x weight over the members, summed exactly.  The
families, and the weight reads of _resolve_weights, are shared with
formality.py's u_n.  A member with a table entry of its own reads it;
the others read their representative's, filled once per orbit: exact
from weights.exact_weight (the vanishing lemma, the order-0 and
derivative-free graphs, the solved orbits of weights.SOLVED_WEIGHTS)
when it has a closed form, else by one pooled integral.  so(3)
products and checks through hbar^3 therefore integrate nothing, and
their bounds are 0, unless the table holds sampled entries of their
graphs.  A product applies each orbit once per argument pair and
reads each series coefficient's derivatives from its memo
(Polynomial.derivative), which lives as long as the coefficient; an
orbit whose applies are all zero adds no term.  Jacobi is proved once
per Poisson structure (_jacobi_report).

Error model.  Every quantity derived here is a Measured value: an
exact value plus, per error source, its exact first-order
sensitivity.  A star coefficient is linear in the orbit weights and a
composite like (f*g)*h - f*(g*h) is at most quadratic, so forward-mode
derivatives d/dW_r carried through each star product are exact.  A
sampled table entry e enters W_r with coefficient c_e (its member's
sign, plus k_r - o_r for the representative's entry when o_r members
read their own), so its sensitivity is c_e x d/dW_r.
Entries are sampled with independent seeds, so quadrature_bound adds
(|c_e| std_error x probe sup of d/dW_r)^2 entry by entry, the sup
taken over the lattice PROBE^d = {-1, 0, 1}^d once per orbit: an
entry shared by k members counts (k sigma)^2, not k sigma^2.
u_n in formality.py bounds its table entries the same way.
"""
from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError, DimensionMismatchError, DomainError
from .graphs import orbit_representative, parse, serialize
from .operators import orbit_operators
from .poly import Polynomial
from .polyvector import PolyVectorField, validate_poisson
from .rational import QI, ZERO
from .series import FormalSeries
from .weights import IntegrationConfig, WeightTable

_JACOBI_MODES = ("require", "warn")

_HALF_I = QI(0, Fraction(1, 2))

PROBE = (-1, 0, 1)      # sup norms are taken over PROBE^d


@dataclass(frozen=True)
class StarConfig:
    """Assembly knobs: truncation order, weight table, tolerances.

    Weights are read as _resolve_weights reads them, so a graph with a
    closed form is sampled through a sampled table entry of its own.
    jacobi "warn" downgrades a failed Jacobi identity from an error to
    a warning for experiments on non-Poisson bivectors.
    """

    order: int = 2
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    table: WeightTable | None = None
    policy: float = 3.0
    jacobi: str = "require"

    def __post_init__(self):
        if isinstance(self.order, bool) or not isinstance(self.order, int):
            raise ConfigError(
                f"truncation order must be an integer, got {self.order!r}")
        if self.order < 0:
            raise ConfigError("truncation order must be >= 0")
        if isinstance(self.policy, bool) \
                or not isinstance(self.policy, numbers.Real):
            raise ConfigError(
                f"tolerance policy must be a real number, got {self.policy!r}")
        if not 0 < self.policy < math.inf:
            raise ConfigError("tolerance policy must be positive and finite")
        if self.jacobi not in _JACOBI_MODES:
            raise ConfigError(f"unknown jacobi mode {self.jacobi!r}")


@dataclass(frozen=True)
class ResidualRow:
    power: int
    residual: Polynomial
    residual_max: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    """Per-hbar-power residuals of an identity, with verdicts.

    A power passes when every residual coefficient magnitude is at
    most policy x propagated error; a zero bound therefore demands an
    exactly zero residual.
    """

    identity: str
    policy: float
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def summary(self) -> str:
        """One line: the verdict and the row with the largest residual,
        among the failing rows when some row fails."""
        verdict = "pass" if self.ok else "FAIL"
        rows = self.rows if self.ok else [r for r in self.rows if not r.passed]
        worst = max(rows, key=lambda r: r.residual_max, default=None)
        if worst is None:
            return f"{self.identity}: {verdict} (no powers)"
        return (f"{self.identity}: {verdict} at policy {self.policy:g} "
                f"(worst power {worst.power}: residual {worst.residual_max:.3g}"
                f" vs bound {worst.bound:.3g})")

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "policy": self.policy,
            "ok": self.ok,
            "powers": [{
                "power": r.power,
                "residual_max": r.residual_max,
                "bound": r.bound,
                "passed": r.passed,
                "residual": r.residual.to_json_obj(),
            } for r in self.rows],
        }


@dataclass(frozen=True)
class StarExpansion:
    """Series plus per-power error bounds and the table that fed them:
    supplied entries plus one per orbit a graph without its own read."""

    series: FormalSeries
    bounds: tuple
    table: WeightTable


def probe_sup(p: Polynomial) -> float:
    """Max |p| over the probe lattice, exact until the final abs.

    On PROBE = {-1, 0, 1} the power x^k is 1 for k = 0, x for odd k
    and x^2 (0 or 1) for even k > 0, so p's terms are first summed
    exactly into a 3^d table indexed by exponent class per axis (0,
    odd, even).  Each axis is then folded in turn: classes (c0, c1, c2)
    become the values (c0 - c1 + c2, c0, c0 + c1 + c2) at x = -1, 0, 1.
    After the last axis the table holds p at every lattice point, for
    3^d d exact operations in all.
    """
    if p.is_zero():
        return 0.0
    table = [ZERO] * 3 ** p.dim
    for exps, c in p.terms.items():
        at = 0
        for k in exps:
            at = 3 * at + (0 if k == 0 else 2 - k % 2)     # 1 odd, 2 even
        table[at] = table[at] + c
    step = 1
    for _ in range(p.dim):
        for block in range(0, len(table), 3 * step):
            for i in range(block, block + step):
                c0, c1, c2 = table[i], table[i + step], table[i + 2 * step]
                even = c0 + c2
                table[i], table[i + step], table[i + 2 * step] = \
                    even - c1, c0, even + c1
        step *= 3
    return max(abs(v) for v in table)


class Measured:
    """An exact value and its exact first-order sensitivities.

    value is a Polynomial or a FormalSeries; sens maps each error
    source to the derivative of value with respect to it, of the same
    type, in first-seen order.  Sums and scalar multiples act on both.
    """

    __slots__ = ("value", "sens")

    def __init__(self, value, sens: dict | None = None):
        self.value = value
        self.sens = sens or {}

    def __add__(self, other: "Measured") -> "Measured":
        sens = dict(self.sens)
        for s, p in other.sens.items():
            sens[s] = sens[s] + p if s in sens else p
        return Measured(self.value + other.value, sens)

    def __mul__(self, c) -> "Measured":
        return Measured(self.value * c,
                        {s: p * c for s, p in self.sens.items()})

    def __sub__(self, other: "Measured") -> "Measured":
        return self + other * QI(-1)

    def coefficient(self, power: int) -> "Measured":
        """The hbar^power coefficient of a series-valued measurement."""
        return Measured(self.value.coefficient(power),
                        {s: p.coefficient(power)
                         for s, p in self.sens.items()})


def quadrature_bound(m: Measured, sources) -> float:
    """sqrt of the sum over (source, sigma) pairs, in order, of
    (sigma x probe sup of m's sensitivity to source)^2.

    A source may repeat (graphs sharing an orbit); its sup is taken
    once, and not at all when m does not depend on it.
    """
    sups = {}
    acc = 0.0
    for src, sigma in sources:
        if src not in sups:
            p = m.sens.get(src)
            sups[src] = 0.0 if p is None or p.is_zero() \
                else probe_sup(p)
        acc += (sigma * sups[src]) ** 2
    return math.sqrt(acc)


@functools.lru_cache(maxsize=8)
def _jacobi_report(alpha: PolyVectorField):
    """validate_poisson(alpha), proved once per equal bivector."""
    return validate_poisson(alpha)


@functools.lru_cache(maxsize=None)
def _orbit_of(ser: str, labels: tuple) -> tuple:
    """(orbit serial, sign, out-edges) of the graph serialised as ser,
    by graphs.orbit_representative with labels, once per process; a
    graph of another order keeps its own serial."""
    g = parse(ser)
    rep, sign = orbit_representative(g, labels) if g.n == len(labels) \
        else (g, 1)
    return serialize(rep), sign, g.out_edges


def _resolve_weights(families, cfg: StarConfig, table: WeightTable) -> list:
    """(r, entry serial, c_e, weight as QI, std_error) for each table
    entry read by families, triples (j, an OrbitOperators, the orbits
    (rep, serial, k) of it to read), r = (j, orbit serial), in the
    enumerate_graphs order of each entry's own graph, family by family.

    An orbit member with a table entry of its own reads it, with
    coefficient its sign.  The k - o others read the representative's,
    as their weights are sign x its weight: it adds coefficient k - o.
    Missing representatives get one entry each: exact when exact_weight
    has a closed form, else integrated once at k - o times the
    per-graph budget.  c_e sums an entry's reads."""
    reads, pooled = {}, {}  # (family index, out-edges) -> [r, serial, c_e]
    for i, (j, ops, orbits) in enumerate(families):
        rest = {orbit: [rep, k] for rep, orbit, k in orbits}
        for ser in table.serials():
            orbit, sign, edges = _orbit_of(ser, ops.labels)
            if orbit in rest:
                reads[i, edges] = [(j, orbit), ser, sign]
                rest[orbit][1] -= 1
        for orbit, (rep, k) in rest.items():
            if k:
                reads.setdefault((i, rep.out_edges),
                                 [(j, orbit), orbit, 0])[2] += k
                pooled[orbit] = k
    table.ensure([parse(ser) for ser in pooled if table.lookup(ser) is None],
                 cfg.integration, use_exact=True, pooled=pooled)
    out = []
    for _, (r, ser, c) in sorted(reads.items()):
        est = table.lookup(ser)
        out.append((r, ser, c, QI(est.exact if est.exact is not None
                                  else est.value), est.std_error))
    return out


class _Engine:
    """Orbit operators plus weight table for one bivector and config.

    families[j] is orbit_operators((alpha,) * j, 2), the order-j family
    every call on an equal bivector shares, and scales[j] is (i/2)^j,
    the factor of its orbit terms.  After ensure_weights, weights holds
    the exact orbit weight W_r of every orbit r = (order, orbit serial)
    and sources lists (r, |c_e| std_error) once per distinct sampled
    table entry e, in _resolve_weights' order; both belong to
    this engine alone.  star_series carries d/dW_r for the orbits named
    in sources.
    """

    def __init__(self, alpha: PolyVectorField, cfg: StarConfig):
        if alpha.degree != 1:
            raise DimensionMismatchError("star products need a bivector")
        report = _jacobi_report(alpha)
        if not report.ok:
            if cfg.jacobi == "require":
                raise DomainError(report.summary())
            warnings.warn(report.summary(), stacklevel=3)
        self.cfg = cfg
        self.dim = alpha.dim
        self.table = cfg.table if cfg.table is not None else WeightTable()
        self.families = {j: orbit_operators((alpha,) * j, 2)
                         for j in range(1, cfg.order + 1)}
        self.scales = [_HALF_I ** j for j in range(cfg.order + 1)]
        self.weights = {}
        self.sources = []

    def ensure_weights(self) -> None:
        """Sum orbit weights W_r; a sampled entry read with coefficient
        c is one source (r, |c| x std_error)."""
        sources = []
        for r, _, c, w, sigma in _resolve_weights(
                [(j, ops, ops.orbits) for j, ops in self.families.items()],
                self.cfg, self.table):
            self.weights[r] = self.weights.get(r, QI(0)) + c * w
            if sigma:
                sources.append((r, abs(c) * sigma))
        self.sources = sources

    def exact(self, p: Polynomial) -> Measured:
        """p as an error-free series of the engine's order; p must live
        on the bivector's space."""
        if p.dim != self.dim:
            raise DimensionMismatchError(
                f"argument on R^{p.dim}, bivector on R^{self.dim}")
        return Measured(FormalSeries.from_polynomial(p, self.cfg.order))

    def _orbit_term(self, r: tuple, F: FormalSeries, G: FormalSeries
                    ) -> FormalSeries | None:
        """T_r(F, G): (i/2)^j op_r(F_k, G_l) at hbar^(j+k+l), r of
        order j; None when every such apply is zero."""
        j, orbit = r
        N, ops, c = self.cfg.order, self.families[j], self.scales[j]
        coeffs = None
        for k in range(N - j + 1):
            fk = F.coefficient(k)
            if fk.is_zero():
                continue
            for l in range(N - j - k + 1):
                gl = G.coefficient(l)
                if gl.is_zero():
                    continue
                p = ops.apply(orbit, (fk, gl))
                if not p.is_zero():
                    if coeffs is None:
                        coeffs = [Polynomial.zero(self.dim)] * (N + 1)
                    coeffs[j + k + l] = coeffs[j + k + l] + p * c
        return None if coeffs is None else FormalSeries(self.dim, N, coeffs)

    def _star(self, F: FormalSeries, G: FormalSeries,
              terms: dict | None = None) -> FormalSeries:
        """F*G + sum over orbits r of W_r T_r(F, G), with T_r read from
        terms when given (it then holds every orbit with W_r != 0) and
        computed by _orbit_term when not."""
        out = F * G
        for r, w in self.weights.items():
            if not w.is_zero():
                t = terms[r] if terms is not None \
                    else self._orbit_term(r, F, G)
                if t is not None:
                    out = out + t * w
        return out

    def star_series(self, A: Measured, B: Measured) -> Measured:
        """Bilinear star of two measured series of order cfg.order.

        d(A*B)/dW_r = T_r(A, B) + dA*B + A*dB, exact because the star
        is linear in each W_r; each T_r(A, B) is computed once and
        serves both the value and d/dW_r, which is kept for every
        sampled r even when it is zero.
        """
        sampled = {r for r, _ in self.sources}
        terms = {r: self._orbit_term(r, A.value, B.value)
                 for r, w in self.weights.items()
                 if r in sampled or not w.is_zero()}
        sens = {}
        for r, _ in self.sources:
            if r in sens:
                continue
            d = terms[r]
            if d is None:
                d = FormalSeries.zero(self.dim, self.cfg.order)
            if r in A.sens:
                d = d + self._star(A.sens[r], B.value)
            if r in B.sens:
                d = d + self._star(A.value, B.sens[r])
            sens[r] = d
        return Measured(self._star(A.value, B.value, terms), sens)

    def bounds(self, m: Measured) -> tuple:
        """Per-power quadrature bound of a measured series."""
        return tuple(quadrature_bound(m.coefficient(k), self.sources)
                     for k in range(self.cfg.order + 1))


def star_expansion(f: Polynomial, g: Polynomial, alpha: PolyVectorField,
                   cfg: StarConfig) -> StarExpansion:
    """Star product of two polynomials with per-power error bounds.

    For polynomial inputs the hbar^n coefficient touches only order-n
    graphs, so its bound is the quadrature over them of
    std_error x probe sup of (i/2)^n x the operator value.
    """
    eng = _Engine(alpha, cfg)
    F, G = eng.exact(f), eng.exact(g)
    eng.ensure_weights()
    out = eng.star_series(F, G)
    return StarExpansion(out.value, eng.bounds(out), eng.table)


def star(f: Polynomial, g: Polynomial, alpha: PolyVectorField,
         cfg: StarConfig | None = None) -> FormalSeries:
    return star_expansion(f, g, alpha, cfg or StarConfig()).series


def moyal_reference(f: Polynomial, g: Polynomial, alpha: PolyVectorField,
                    order: int) -> FormalSeries:
    """Constant-coefficient oracle: exponential bidifferential series.

    hbar^n coefficient is (1/n!) (i/2)^n a^{i1 j1}...a^{in jn}
    d_{i...}f d_{j...}g, computed by iterating the first-order
    contraction.  Rejects non-constant bivectors.
    """
    if alpha.degree != 1:
        raise DimensionMismatchError("moyal_reference needs a bivector")
    if alpha.dim != f.dim or alpha.dim != g.dim:
        raise DimensionMismatchError("argument dimensions disagree")
    if order < 0:
        raise ConfigError("truncation order must be >= 0")
    dim = alpha.dim
    origin = (0,) * dim
    entries = []
    for idx, comp in alpha.iter_full_components():
        if not (comp.is_zero() or comp.degree() == 0):
            raise ConfigError("moyal_reference needs a constant bivector")
        c = comp.terms.get(origin)
        if c is not None:
            entries.append((idx, c))
    coeffs = [f * g]
    pairs = [(QI(1), f, g)]
    for n in range(1, order + 1):
        step = []
        for mult, a, b in pairs:
            for (i, j), c in entries:
                da = a.diff(i)
                if da.is_zero():
                    continue
                db = b.diff(j)
                if db.is_zero():
                    continue
                step.append((mult * c, da, db))
        pairs = step
        total = Polynomial.zero(dim)
        for mult, a, b in pairs:
            total = total + (a * b) * mult
        coeffs.append(total * (_HALF_I ** n * QI(Fraction(1, math.factorial(n)))))
    return FormalSeries(dim, order, coeffs)


def _verdict_rows(residuals, bounds, policy) -> tuple:
    """One row per power k: residuals[k] passes when its largest
    coefficient magnitude is at most policy x bounds[k]."""
    rows = []
    for k, (p, bound) in enumerate(zip(residuals, bounds)):
        m = p.max_abs_coeff()
        rows.append(ResidualRow(k, p, m, bound, m <= policy * bound))
    return tuple(rows)


def check_associativity(f: Polynomial, g: Polynomial, h: Polynomial,
                        alpha: PolyVectorField,
                        cfg: StarConfig) -> ResidualReport:
    """Residual of (f*g)*h - f*(g*h) through hbar^order with bounds."""
    eng = _Engine(alpha, cfg)
    F, G, H = (eng.exact(p) for p in (f, g, h))
    eng.ensure_weights()
    resid = eng.star_series(eng.star_series(F, G), H) \
        - eng.star_series(F, eng.star_series(G, H))
    return ResidualReport("associativity", cfg.policy,
                          _verdict_rows(resid.value.coeffs, eng.bounds(resid),
                                        cfg.policy))


@dataclass(frozen=True)
class CenterProbeReport:
    """Exact centrality test plus the star commutator as data.

    ok reflects only part (a): the contraction a^{ij} d_j f vanishing
    identically.  The commutator rows are informational; nothing
    beyond hbar^1 is expected to vanish for a general star product.
    """

    central: bool
    gradient: tuple
    commutator: FormalSeries
    bounds: tuple

    @property
    def ok(self) -> bool:
        return self.central

    def summary(self) -> str:
        head = "central" if self.central else "NOT central"
        tail = max((p.max_abs_coeff() for p in self.commutator.coeffs),
                   default=0.0)
        return (f"center probe: {head}; commutator max coefficient "
                f"{tail:.3g}")

    def to_json_obj(self) -> dict:
        return {
            "central": self.central,
            "ok": self.ok,
            "gradient": [p.to_json_obj() for p in self.gradient],
            "commutator": self.commutator.to_json_obj(),
            "bounds": list(self.bounds),
        }


def poisson_center_probe(f: Polynomial, g: Polynomial,
                         alpha: PolyVectorField,
                         cfg: StarConfig) -> CenterProbeReport:
    """Is f Poisson-central, and how does its star commutator look?

    Part (a) is exact: every component of a^{ij} d_j f must vanish
    identically.  Part (b) reports f*g - g*f with propagated bounds.
    """
    if alpha.degree != 1:
        raise DimensionMismatchError("center probe needs a bivector")
    if alpha.dim != f.dim or alpha.dim != g.dim:
        raise DimensionMismatchError("argument dimensions disagree")
    dim = alpha.dim
    row = {}                # i -> the j with a^{ij} != 0, ascending
    for i, j in sorted(alpha.components):
        row.setdefault(i, []).append(j)
        row.setdefault(j, []).append(i)
    gradient = []
    for i in range(dim):
        comp = Polynomial.zero(dim)
        for j in sorted(row.get(i, ())):
            comp = comp + alpha.component((i, j)) * f.diff(j)
        gradient.append(comp)
    central = all(p.is_zero() for p in gradient)

    eng = _Engine(alpha, cfg)
    eng.ensure_weights()
    F, G = eng.exact(f), eng.exact(g)
    comm = eng.star_series(F, G) - eng.star_series(G, F)
    return CenterProbeReport(central, tuple(gradient), comm.value,
                             eng.bounds(comm))
