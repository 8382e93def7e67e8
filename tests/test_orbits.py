"""Orbits of graphs under aerial relabelling and out-edge permutations,
and the orbit-shared star assembly checked against a graph-by-graph
reference."""
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from starquant.errors import ParseError
from starquant.graphs import (KGraph, count_graphs, enumerate_graphs,
                              orbit_representative, parse, serialize,
                              star_graphs)
from starquant.operators import build_operator
from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField, sort_with_sign
from starquant.rational import QI
from starquant.series import FormalSeries
from starquant.star import (StarConfig, check_associativity,
                            poisson_center_probe, probe_sup, star_expansion)
from starquant.weights import (IntegrationConfig, WeightEstimate, WeightTable,
                               exact_weight)

from helpers import (dense_integrand, member_rows, random_linear_bivector,
                     random_polynomial, so3_alpha, without_solved_weights)

HALF_I = QI(0, Fraction(1, 2))
star_mod = importlib.import_module("starquant.star")  # star() shadows it
operators_mod = importlib.import_module("starquant.operators")
weights_mod = importlib.import_module("starquant.weights")


def dim2_alpha() -> PolyVectorField:
    """(x0^2 + x1) d0 ^ d1; every bivector in dimension 2 is Poisson."""
    return PolyVectorField(2, 1, {
        (0, 1): Polynomial.monomial(2, (2, 0)) + Polynomial.variable(2, 1)})


def transform(g: KGraph, perm, swaps) -> KGraph:
    """Relabel aerial vertex i as perm[i] and swap the out-edges of the
    (old) vertices flagged in swaps."""
    n = g.n
    relabel = tuple(perm) + (n, n + 1)
    rows = [()] * n
    for i, (a, b) in enumerate(g.out_edges):
        pair = (relabel[a], relabel[b])
        rows[perm[i]] = pair[::-1] if swaps[i] else pair
    return KGraph(n, 2, tuple(rows))


class TestOrbitMap:
    @pytest.mark.parametrize("order,count", [(1, 1), (2, 6), (3, 44)])
    def test_orbit_counts(self, order, count):
        reps = {orbit_representative(g)[0] for g in star_graphs(order)}
        assert len(reps) == count

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_representative_is_idempotent(self, order):
        for g in star_graphs(order):
            rep, sign = orbit_representative(g)
            assert sign in (1, -1)
            assert orbit_representative(rep) == (rep, 1)

    @pytest.mark.parametrize("order", [2, 3])
    def test_members_share_the_representative(self, order):
        rng = random.Random(order)
        for g in star_graphs(order):
            perm = list(range(order))
            rng.shuffle(perm)
            swaps = [rng.random() < 0.5 for _ in range(order)]
            h = transform(g, perm, swaps)
            assert orbit_representative(h)[0] == orbit_representative(g)[0]

    def test_trivector_sign_is_the_permutation_sign(self):
        x = [Polynomial.variable(3, i) for i in range(3)]
        tri = PolyVectorField(3, 2, {(0, 1, 2): x[0] * x[1] + x[2]})
        rep_op = build_operator(KGraph(1, 3, ((1, 2, 3),)), [tri])
        assert rep_op.terms
        for targets in itertools.permutations((1, 2, 3)):
            g = KGraph(1, 3, (targets,))
            rep, sign = orbit_representative(g)
            assert rep == KGraph(1, 3, ((1, 2, 3),))
            assert sign == sort_with_sign(targets)[1]
            assert build_operator(g, [tri]) == rep_op * sign

    def test_accepts_three_grounds_and_keeps_labels(self):
        assert orbit_representative(enumerate_graphs(1, 3, [2])[0]) == (
            KGraph(1, 3, ((1, 2, 3),)), 1)
        g = KGraph(2, 3, ((4, 2), (3, 0)))
        # equal labels may swap the vertices, distinct ones may not
        assert orbit_representative(g) == (KGraph(2, 3, ((1, 3), (2, 4))), 1)
        assert orbit_representative(g, labels=(0, 1)) == (
            KGraph(2, 3, ((2, 4), (0, 3))), 1)

    def test_rejects_doubled_edges(self):
        with pytest.raises(ParseError):
            orbit_representative(KGraph(1, 2, ((1, 1),)))


def two_bivectors():
    rng = random.Random(7)
    return random_linear_bivector(rng), random_linear_bivector(rng)


def vector_field():
    """x1 d0 + x0 x2 d2 on R^3: rank one, so equal copies stay apart."""
    x = [Polynomial.variable(3, i) for i in range(3)]
    return PolyVectorField(3, 0, {(0,): x[1], (2,): x[0] * x[2]})


# (fields, m) of a family, and its number of orbits
FAMILIES = {
    "so3-1": (lambda: ((so3_alpha(),), 2), 1),
    "so3-2": (lambda: ((so3_alpha(),) * 2, 2), 6),
    "so3-3": (lambda: ((so3_alpha(),) * 3, 2), 44),
    "ab-m2": (lambda: (two_bivectors(), 2), 9),
    "ab-m3": (lambda: (two_bivectors(), 3), 36),
    "aa-m3": (lambda: ((two_bivectors()[0],) * 2, 3), 21),
    "vv-so3": (lambda: ((vector_field(),) * 2 + (so3_alpha(),), 2), 96),
}


class TestOrbitFamily:
    @pytest.mark.parametrize("case", FAMILIES)
    def test_against_the_per_graph_definition(self, case):
        """A family canonicalises only its sorted graphs, yet matches the
        per-graph definition: it builds one operator per orbit of
        orbit_representative over enumerate_graphs, in that order;
        .orbits lists the orbits with a nonzero operator, in that order,
        with their member counts k; and the k plus the members of the
        zero orbits add up to count_graphs."""
        make, count = FAMILIES[case]
        fields, m = make()
        family = operators_mod.orbit_operators(fields, m)
        degrees = [f.degree for f in fields]
        reps = {}
        for g in enumerate_graphs(len(fields), m, degrees):
            rep = serialize(orbit_representative(g, family.labels)[0])
            reps[rep] = reps.get(rep, 0) + 1
        assert list(family._ops) == list(reps) and len(reps) == count
        members = {}
        for *_, orbit, _ in member_rows(fields, m):
            members[orbit] = members.get(orbit, 0) + 1
        assert [(serialize(rep), ser, k) for rep, ser, k in family.orbits] \
            == [(ser, ser, k) for ser, k in members.items()]
        assert members and all(family._ops[ser].terms for ser in members)
        zero = [k for ser, k in reps.items() if not family._ops[ser].terms]
        assert sum(k for *_, k in family.orbits) + sum(zero) \
            == count_graphs(len(fields), m, degrees)


@pytest.fixture
def build_calls(monkeypatch):
    """Graphs passed to build_operator, with the shared orbit-operator
    family cache empty at the start and cleared again at the end."""
    calls = []

    def counting(graph, fields, dim=None):
        calls.append(graph)
        return build_operator(graph, fields, dim)

    monkeypatch.setattr(operators_mod, "build_operator", counting)
    operators_mod.orbit_operators.cache_clear()
    yield calls
    operators_mod.orbit_operators.cache_clear()


def family_state(family) -> tuple:
    """Everything an OrbitOperators family holds, by value."""
    return family.orbits, dict(family._ops), sorted(vars(family))


class TestOperatorSigns:
    @pytest.mark.parametrize("order,alpha", [
        (2, so3_alpha()), (2, dim2_alpha()), (3, dim2_alpha())])
    def test_member_is_signed_representative(self, order, alpha):
        fields = [alpha] * order
        rep_ops = {}
        nonzero = 0
        for g in star_graphs(order):
            rep, sign = orbit_representative(g)
            if rep not in rep_ops:
                rep_ops[rep] = build_operator(rep, fields)
            op = build_operator(g, fields)
            assert op == rep_ops[rep] * sign, serialize(g)
            nonzero += bool(op.terms)
        assert nonzero  # the check is not vacuous

    def test_equal_odd_rank_fields_stay_apart(self):
        """Relabelling two equal vector fields (one out-edge each) flips
        a two-ground integrand's sign but not the operator's, so their
        vertices are kept apart: every row's weight is still sign x its
        orbit representative's, which pooled weight reads assume."""
        d = 4
        x = [Polynomial.variable(d, i) for i in range(d)]
        v = PolyVectorField(d, 0, {(0,): x[1], (2,): x[3] * x[0]})
        q = PolyVectorField(d, 3, {(0, 1, 2, 3): x[0] * x[2] + x[1]})
        g = parse("n=3;m=2;1:[L];2:[R];3:[1,2,L,R]")
        relabelled = parse("n=3;m=2;1:[R];2:[L];3:[2,1,L,R]")
        u = np.random.default_rng(0).random((16, 6))
        np.testing.assert_allclose(
            dense_integrand(relabelled, u[:, [2, 3, 0, 1, 4, 5]]),
            -dense_integrand(g, u), rtol=1e-12)
        assert build_operator(relabelled, [v, v, q]) \
            == build_operator(g, [v, v, q])
        orbit = {ser: o for _, ser, o, _ in member_rows((v, v, q), 2)}
        assert orbit[serialize(g)] != orbit[serialize(relabelled)]

    def test_engine_builds_one_operator_per_orbit(self, build_calls):
        """The engine's families of orders 1..3 build each of the
        1 + 6 + 44 orbit operators at most once, and list exactly the
        orbits of the star graphs whose operator is nonzero, each with
        its member count."""
        families = star_mod._Engine(so3_alpha(), StarConfig(order=3)).families
        assert len(build_calls) <= 1 + 6 + 44
        assert len(set(build_calls)) == len(build_calls)
        ops = {rep: build_operator(rep, [so3_alpha()] * rep.n)
               for rep in build_calls}
        for order, family in families.items():
            members = {}
            for g in star_graphs(order):
                rep = orbit_representative(g)[0]
                if ops[rep].terms:
                    members[rep] = members.get(rep, 0) + 1
            assert [(rep, k) for rep, _, k in family.orbits] == list(
                members.items())

    def test_equal_bivectors_share_operators_across_calls(self, build_calls):
        """Two order-3 products on equal but distinct so(3) objects build
        each of the 1 + 6 + 44 orbit operators once, not twice."""
        cfg = StarConfig(order=3, table=WeightTable(),
                         integration=IntegrationConfig(seed=5, n_samples=256))
        x = [Polynomial.variable(3, i) for i in range(3)]
        first = star_expansion(x[0] * x[1], x[2], so3_alpha(), cfg)
        assert len(build_calls) == 51
        again = star_expansion(x[0] * x[1], x[2], so3_alpha(), cfg)
        assert len(build_calls) == 51
        assert again == first

    def test_shared_operators_keep_no_applied_values(self, build_calls):
        """A product reads the cached families without changing them: no
        applied value, row or operator is added by applying them."""
        cfg = StarConfig(order=2, table=WeightTable(),
                         integration=IntegrationConfig(seed=5, n_samples=256))
        x = [Polynomial.variable(3, i) for i in range(3)]
        families = [operators_mod.orbit_operators((so3_alpha(),) * order, 2)
                    for order in (1, 2)]
        before = [family_state(f) for f in families]
        built = len(build_calls)
        star_expansion(x[0] * x[1], x[2] * x[0], so3_alpha(), cfg)
        assert len(build_calls) == built
        assert [family_state(f) for f in families] == before
        assert all(f.orbits for f in families)


# -- graph-by-graph reference assembly ------------------------------------

class Reference:
    """Star assembly with one operator per graph, no orbit sharing.

    A graph reads its own table entry, else its orbit representative's
    times its orbit sign, the way the engine resolves them; wmap holds
    every graph's weight.  entries lists each distinct sampled entry once,
    as (order, std_error, c, readers): readers pairs each graph reading it
    with the factor its weight takes of the entry's, and c = sum over
    readers of factor x orbit sign is how often the entry enters its orbit
    weight.  The bounds perturb each entry as one source, by 1/c so that
    the float arithmetic of the engine's (|c| std_error sup)^2 terms is
    repeated term for term."""

    def __init__(self, alpha, table, order):
        self.dim, self.order = alpha.dim, order
        self.rows = {}
        self.wmap = {}
        self.entries = {}
        self.values = {}
        for j in range(1, order + 1):
            self.rows[j] = []
            for g in star_graphs(j):
                op = build_operator(g, [alpha] * j)
                if not op.terms:
                    continue
                ser = serialize(g)
                self.rows[j].append((op, ser))
                rep, sign = orbit_representative(g)
                key, factor = ser, 1
                est = table.get(g)
                if est is None:
                    key, factor = serialize(rep), sign
                    est = table.get(rep)
                exact = est.exact if est.exact is not None else Fraction(
                    est.value)
                self.wmap[ser] = QI(exact * factor)
                if est.std_error:
                    _, sigma, c, readers = self.entries.get(
                        key, (j, est.std_error, 0, []))
                    readers.append((ser, factor))
                    self.entries[key] = (j, sigma, c + factor * sign,
                                         readers)

    def series(self, F, G, wmap):
        N = self.order
        out = F.truncate(N) * G.truncate(N)
        coeffs = [out.coefficient(k) for k in range(N + 1)]
        for j in range(1, N + 1):
            scale = HALF_I ** j
            for op, ser in self.rows[j]:
                for k, l in itertools.product(range(N + 1), repeat=2):
                    if j + k + l <= N:
                        args = (F.coefficient(k), G.coefficient(l))
                        if (ser, args) not in self.values:
                            self.values[ser, args] = op.apply(args)
                        p = self.values[ser, args]
                        coeffs[j + k + l] = coeffs[j + k + l] \
                            + p * (scale * wmap[ser])
        return FormalSeries(self.dim, N, coeffs)

    def probe_bounds(self, value):
        ops = {ser: op for j in self.rows for op, ser in self.rows[j]}
        acc = [0.0] * (self.order + 1)
        for j, sigma, c, readers in self.entries.values():
            p = Polynomial.zero(self.dim)
            for ser, factor in readers:
                p = p + value(ops[ser]) * QI(Fraction(factor, c))
            acc[j] += (abs(c) * sigma * probe_sup(p)) ** 2
        return (0.0,) + tuple(math.sqrt(acc[j]) / 2 ** j
                              for j in range(1, self.order + 1))

    def sensitivity_bounds(self, evaluate):
        acc = [0.0] * (self.order + 1)
        for _, sigma, c, readers in self.entries.values():
            up, down = dict(self.wmap), dict(self.wmap)
            for ser, factor in readers:
                step = QI(Fraction(factor, c))
                up[ser] = self.wmap[ser] + step
                down[ser] = self.wmap[ser] - step
            diff = (evaluate(up) - evaluate(down)) * QI(Fraction(1, 2))
            for k in range(self.order + 1):
                acc[k] += (abs(c) * sigma * probe_sup(diff.coefficient(k))) ** 2
        return tuple(math.sqrt(a) for a in acc)


CASES = {"so3": so3_alpha, "dim2": dim2_alpha}


@pytest.fixture(scope="module", params=sorted(
    [*CASES, *(f"{case}-{own}" for case in CASES
               for own in ("mixed", "per-graph"))]))
def seeded(request):
    """A bivector, its input polynomials, and a small seeded order-2
    table filled by one star product on the sampled path: with one
    pooled entry per sampled orbit, pre-filled ("-per-graph") with every
    graph's own entry, or ("-mixed") with the own entries of 16 of the 38
    graphs, some of them representatives, and none for the rest."""
    case, _, own = request.param.partition("-")
    alpha = CASES[case]()
    x = [Polynomial.variable(alpha.dim, i) for i in range(alpha.dim)]
    polys = (x[0] * x[1], x[1], x[0] * x[0])
    cfg = StarConfig(order=2, table=WeightTable(),
                     integration=IntegrationConfig(seed=17, n_samples=4096))
    with without_solved_weights():
        if own:
            graphs = star_graphs(1) + star_graphs(2)
            # a mixed table lists its entries out of enumeration order,
            # so the order in which they are read shows in the bounds
            cfg.table.ensure(graphs if own == "per-graph"
                             else random.Random(9).sample(graphs, 16),
                             cfg.integration, use_exact=True)
            assert {orbit_representative(gr)[0] == gr for gr, est in cfg.table
                    if est.std_error} == {True, False}
        star_expansion(polys[0], polys[1], alpha, cfg)
    return alpha, polys, cfg, Reference(alpha, cfg.table, 2)


@pytest.mark.usefixtures("sampled_weights")
class TestReferenceAssembly:
    def test_tables_pool_or_not(self, seeded):
        """The pooled tables share an entry among an orbit's members; the
        per-graph tables give every member its own."""
        *_, cfg, ref = seeded
        shares = [abs(c) for _, _, c, _ in ref.entries.values()]
        own = all(cfg.table.get(parse(ser)) is not None
                  for rows in ref.rows.values() for _, ser in rows)
        assert shares and (max(shares) == 1) == own

    def test_star_expansion(self, seeded):
        alpha, (f, g, _), cfg, ref = seeded
        exp = star_expansion(f, g, alpha, cfg)
        F, G = (FormalSeries.from_polynomial(p, 2) for p in (f, g))
        assert exp.series == ref.series(F, G, ref.wmap)
        assert exp.bounds == ref.probe_bounds(lambda op: op.apply((f, g)))
        assert any(exp.bounds)

    def test_check_associativity(self, seeded):
        alpha, (f, g, h), cfg, ref = seeded
        report = check_associativity(f, g, h, alpha, cfg)
        F, G, H = (FormalSeries.from_polynomial(p, 2) for p in (f, g, h))

        def residual(w):
            return (ref.series(ref.series(F, G, w), H, w)
                    - ref.series(F, ref.series(G, H, w), w))

        base = residual(ref.wmap)
        bounds = ref.sensitivity_bounds(residual)
        assert len(report.rows) == 3
        for row in report.rows:
            p = base.coefficient(row.power)
            assert row.residual == p
            assert row.residual_max == p.max_abs_coeff()
            assert row.bound == bounds[row.power]
            assert row.passed == (p.max_abs_coeff()
                                  <= cfg.policy * bounds[row.power])
        assert any(bounds)

    def test_poisson_center_probe(self, seeded):
        alpha, (f, g, _), cfg, ref = seeded
        rep = poisson_center_probe(f, g, alpha, cfg)
        F, G = (FormalSeries.from_polynomial(p, 2) for p in (f, g))
        assert rep.commutator == (ref.series(F, G, ref.wmap)
                                  - ref.series(G, F, ref.wmap))
        assert rep.bounds == ref.probe_bounds(
            lambda op: op.apply((f, g)) - op.apply((g, f)))


@pytest.mark.usefixtures("sampled_weights")
class TestProbeBudget:
    def test_associativity_probes_each_orbit_once_per_power(
            self, seeded, monkeypatch):
        """A sampled graph's sensitivity is sign x its orbit's, so the
        bound probes at most one polynomial per sampled orbit and power."""
        alpha, (f, g, h), cfg, _ = seeded
        calls = []

        def counting(p):
            calls.append(p)
            return probe_sup(p)

        monkeypatch.setattr(star_mod, "probe_sup", counting)
        check_associativity(f, g, h, alpha, cfg)
        sampled = {orbit_representative(gr)[0] for gr, est in cfg.table
                   if est.std_error}
        assert calls
        assert len(calls) <= len(sampled) * (cfg.order + 1)


class TestApplyBudget:
    def test_associativity_applies_each_orbit_once_per_argument_pair(
            self, seeded, monkeypatch):
        """Each T_r(A, B) serves both a product's value and its d/dW_r,
        so no (orbit, arguments) pair is applied twice in one check."""
        alpha, (f, g, h), cfg, _ = seeded
        applied = []
        apply = operators_mod.OrbitOperators.apply

        def recording(self, orbit, args):
            applied.append((orbit, tuple(args)))
            return apply(self, orbit, args)

        monkeypatch.setattr(operators_mod.OrbitOperators, "apply", recording)
        check_associativity(f, g, h, alpha, cfg)
        assert applied
        assert len(set(applied)) == len(applied)


class TestDerivativeMemo:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_memo_matches_fresh_arguments(self, case, monkeypatch):
        """Every orbit of order <= 3 applied to one pair of arguments
        gives what it gives on fresh copies of them; once their
        derivative memos are filled, a second pass differentiates
        neither argument."""
        alpha = CASES[case]()
        rng = random.Random(31)
        orbits = [(ops, orbit) for ops in (
            operators_mod.orbit_operators((alpha,) * j, 2) for j in (1, 2, 3))
            for _, orbit, _ in ops.orbits]
        diffed = []
        diff = Polynomial.diff

        def recording(self, i):
            diffed.append(self)
            return diff(self, i)

        for _ in range(3):
            args = tuple(random_polynomial(rng, alpha.dim, max_degree=5,
                                           n_terms=6) for _ in range(2))
            values = [ops.apply(orbit, args) for ops, orbit in orbits]
            assert values == [
                ops.apply(orbit, [Polynomial(a.dim, a.terms) for a in args])
                for ops, orbit in orbits]
            assert any(not v.is_zero() for v in values)
            with monkeypatch.context() as mp:
                mp.setattr(Polynomial, "diff", recording)
                again = [ops.apply(orbit, args) for ops, orbit in orbits]
            assert again == values
            assert diffed == []


def pinned_table() -> WeightTable:
    """Every order-1 and order-2 star graph with a sampled entry of its
    own: dyadic values and errors from a fixed draw, so each bound is
    exact arithmetic up to its final float."""
    rng = random.Random(31)
    table = WeightTable()
    for g in star_graphs(1) + star_graphs(2):
        table.put(g, WeightEstimate(rng.randint(-64, 64) / 64,
                                    rng.randint(1, 64) / 4096, 1, 0, "qmc"))
    return table


# d/dW_r keys of the residual, in order, and its per-power bounds by hex
PINNED_SENS = (
    (1, "n=1;m=2;1:[L,R]"), (2, "n=2;m=2;1:[2,L];2:[1,L]"),
    (2, "n=2;m=2;1:[2,L];2:[1,R]"), (2, "n=2;m=2;1:[2,L];2:[L,R]"),
    (2, "n=2;m=2;1:[2,R];2:[1,R]"), (2, "n=2;m=2;1:[2,R];2:[L,R]"),
    (2, "n=2;m=2;1:[L,R];2:[L,R]"))
PINNED_BOUNDS = {
    "so3": ("0x0.0p+0", "0x0.0p+0", "0x1.bac8fc26875e0p-5"),
    "dim2": ("0x0.0p+0", "0x0.0p+0", "0x1.a7c7f533b4941p-3")}


class TestPinnedSensitivities:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_associativity_keys_and_bounds(self, case):
        """On per-graph sampled entries the associativity residual keeps
        a d/dW_r for every sampled orbit, one of them identically zero,
        in the pinned order, and its bounds are the pinned floats."""
        alpha = CASES[case]()
        x = [Polynomial.variable(alpha.dim, i) for i in range(alpha.dim)]
        f, g, h = x[0] * x[1], x[1], x[0] * x[0]
        cfg = StarConfig(order=2, table=pinned_table())
        eng = star_mod._Engine(alpha, cfg)
        F, G, H = (eng.exact(p) for p in (f, g, h))
        eng.ensure_weights()
        resid = eng.star_series(eng.star_series(F, G), H) \
            - eng.star_series(F, eng.star_series(G, H))
        assert tuple(resid.sens) == PINNED_SENS
        assert sum(d.is_zero() for d in resid.sens.values()) == 1
        assert tuple(b.hex() for b in eng.bounds(resid)) \
            == PINNED_BOUNDS[case]
        rep = check_associativity(f, g, h, alpha, cfg)
        assert tuple(r.bound.hex() for r in rep.rows) == PINNED_BOUNDS[case]


# -- orbit terms added straight into a product's sums ----------------------

def ring_star(eng, A, B):
    """eng's star of two measured series by op-by-op ring operations,
    every orbit term T_r built as a series of its own and then added
    x W_r: the values and term order of each product and each d/dW_r,
    however the engine adds its orbit terms."""
    N, dim = eng.cfg.order, eng.dim

    def term(r, F, G):
        j, orbit = r
        out = [Polynomial.zero(dim)] * (N + 1)
        for k, l in itertools.product(range(N - j + 1), repeat=2):
            if j + k + l <= N:
                p = eng.families[j].apply(
                    orbit, (F.coefficient(k), G.coefficient(l)))
                out[j + k + l] = out[j + k + l] + p * HALF_I ** j
        return out

    def add_star(out, F, G):
        for i, a in enumerate(F.coeffs):
            for j in range(N + 1 - i):
                out[i + j] = out[i + j] + a * G.coeffs[j]
        for r, w in eng.weights.items():
            if not w.is_zero():
                for n, p in enumerate(term(r, F, G)):
                    out[n] = out[n] + p * w
        return out

    sens = {}
    for r, _ in eng.sources:
        if r not in sens:
            out = term(r, A.value, B.value)
            if r in A.sens:
                out = add_star(out, A.sens[r], B.value)
            if r in B.sens:
                out = add_star(out, A.value, B.sens[r])
            sens[r] = FormalSeries(dim, N, out)
    value = add_star([Polynomial.zero(dim)] * (N + 1), A.value, B.value)
    return star_mod.Measured(FormalSeries(dim, N, value), sens)


def terms_in_order(series) -> list:
    """Each coefficient's (exponents, value) pairs in term order."""
    return [list(p.terms.items()) for p in series.coeffs]


@pytest.fixture(scope="module", params=sorted(CASES))
def order3(request):
    """An order-3 product on an empty table (so(3): every weight exact;
    dim-2: 14 sampled entries), its inputs, and the graph-by-graph
    reference on the table it filled."""
    alpha = CASES[request.param]()
    x = [Polynomial.variable(alpha.dim, i) for i in range(alpha.dim)]
    polys = (x[0] * x[1] * x[-1], x[0] * x[0] * x[1], x[1] * x[1] + x[0])
    cfg = StarConfig(order=3, table=WeightTable(),
                     integration=IntegrationConfig(seed=5, n_samples=4096))
    exp = star_expansion(polys[0], polys[1], alpha, cfg)
    return alpha, polys, cfg, exp, Reference(alpha, cfg.table, 3)


class TestDirectOrbitTerms:
    """A product adds the applies of every orbit term no d/dW_r reads
    straight into its sums; a sampled orbit's T_r is built once."""

    def test_order3_series_is_the_reference_in_term_order(self, order3):
        alpha, (f, g, _), cfg, exp, ref = order3
        F, G = (FormalSeries.from_polynomial(p, 3) for p in (f, g))
        want = ref.series(F, G, ref.wmap)
        assert exp.series == want
        assert terms_in_order(exp.series) == terms_in_order(want)
        assert not exp.series.coefficient(3).is_zero()
        assert any(exp.bounds) == (alpha.dim == 2)

    def test_nested_products_keep_values_and_term_order(self, order3):
        """(f*g)*h with its d/dW_r: equal, term by term in order, to the
        ring assembly, and in value to the graph-by-graph reference."""
        alpha, (f, g, h), cfg, _, ref = order3
        eng = star_mod._Engine(alpha, cfg)
        eng.ensure_weights()
        F, G, H = (eng.exact(p) for p in (f, g, h))
        got = eng.star_series(eng.star_series(F, G), H)
        want = ring_star(eng, ring_star(eng, F, G), H)
        assert terms_in_order(got.value) == terms_in_order(want.value)
        assert list(got.sens) == list(want.sens)
        assert bool(got.sens) == (alpha.dim == 2)
        for r, d in got.sens.items():
            assert terms_in_order(d) == terms_in_order(want.sens[r])
        F, G, H = (FormalSeries.from_polynomial(p, 3) for p in (f, g, h))
        assert got.value == ref.series(ref.series(F, G, ref.wmap), H,
                                       ref.wmap)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pinned_residual_keeps_values_and_term_order(self, case):
        """On per-graph sampled order-2 entries every orbit is sampled:
        the associativity residual and each d/dW_r equal the ring
        assembly's, in term order."""
        alpha = CASES[case]()
        x = [Polynomial.variable(alpha.dim, i) for i in range(alpha.dim)]
        eng = star_mod._Engine(alpha, StarConfig(order=2,
                                                 table=pinned_table()))
        eng.ensure_weights()
        F, G, H = (eng.exact(p) for p in (x[0] * x[1], x[1], x[0] * x[0]))

        def residual(star_series):
            resid = star_series(star_series(F, G), H) \
                - star_series(F, star_series(G, H))
            return [terms_in_order(s)
                    for s in (resid.value, *resid.sens.values())]

        got = residual(eng.star_series)
        assert got == residual(lambda A, B: ring_star(eng, A, B))
        assert len(got) == 1 + len(PINNED_SENS)

    def test_exact_order3_product_builds_no_orbit_term(self, monkeypatch):
        """No d/dW_r reads a so(3) orbit term through hbar^3 on an exact
        table, so a product builds none of them as a series."""
        built = []
        term = star_mod._Engine._orbit_term

        def counting(self, r, F, G):
            built.append(r)
            return term(self, r, F, G)

        monkeypatch.setattr(star_mod._Engine, "_orbit_term", counting)
        cfg = StarConfig(order=3, table=WeightTable())
        exp = star_expansion(*so3_pair(), so3_alpha(), cfg)
        assert exp.bounds == (0.0,) * 4
        assert not exp.series.coefficient(3).is_zero()
        assert built == []

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sampled_orbit_terms_are_built_once_per_product(
            self, case, monkeypatch):
        """On per-graph sampled order-2 entries, each product of an
        associativity check builds one T_r per sampled orbit, in the
        order of the residual's d/dW_r."""
        alpha = CASES[case]()
        x = [Polynomial.variable(alpha.dim, i) for i in range(alpha.dim)]
        products = []
        term, product = star_mod._Engine._orbit_term, \
            star_mod._Engine.star_series

        def building(self, r, F, G):
            products[-1].append(r)
            return term(self, r, F, G)

        def counting(self, A, B):
            products.append([])
            return product(self, A, B)

        monkeypatch.setattr(star_mod._Engine, "_orbit_term", building)
        monkeypatch.setattr(star_mod._Engine, "star_series", counting)
        check_associativity(x[0] * x[1], x[1], x[0] * x[0], alpha,
                            StarConfig(order=2, table=pinned_table()))
        assert products == [list(PINNED_SENS)] * 4

    def test_cold_order3_read_serialises_no_graph(self, monkeypatch):
        """Once the families are built, a cold order-3 product fills and
        reads its table from the serials they computed: serialize builds
        no text."""
        cfg = StarConfig(order=3, table=WeightTable())
        star_mod._Engine(so3_alpha(), cfg)
        star_mod._orbit_of.cache_clear()

        def refuse(g, t):
            raise AssertionError(f"serialising {g!r} again")

        monkeypatch.setattr(KGraph, "target_name", refuse)
        exp = star_expansion(*so3_pair(), so3_alpha(), cfg)
        assert len(cfg.table) == 17 and exp.bounds == (0.0,) * 4


# -- one pooled integral per sampled orbit ---------------------------------

def so3_pair():
    """x0 x1 x2 and x0^2 x1, the pair of perfbench's order-3 workload."""
    x = [Polynomial.variable(3, i) for i in range(3)]
    return x[0] * x[1] * x[2], x[0] * x[0] * x[1]


def so3_config(order, seed, per_graph):
    """An order-N so(3) config at 4096 samples on an empty table, or on
    one holding every nonzero-operator star graph's own sampled entry."""
    integration = IntegrationConfig(seed=seed, n_samples=4096)
    table = WeightTable()
    if per_graph:
        table.ensure([g for j in range(1, order + 1)
                      for g, *_ in member_rows((so3_alpha(),) * j, 2)],
                     integration)
    return StarConfig(order=order, table=table, integration=integration)


def orbit_weights(cfg):
    """Per orbit r: (W_r, sigma of W_r) after the engine fills cfg.table."""
    eng = star_mod._Engine(so3_alpha(), cfg)
    eng.ensure_weights()
    var = {}
    for r, sigma in eng.sources:
        var[r] = var.get(r, 0.0) + sigma ** 2
    return {r: (complex(w.to_complex()).real, math.sqrt(var.get(r, 0.0)))
            for r, w in eng.weights.items()}


@pytest.fixture
def integrations(monkeypatch):
    """Graphs passed to weights.integrate_graph_form."""
    calls = []
    integrate = weights_mod.integrate_graph_form

    def counting(graph, cfg):
        calls.append(graph)
        return integrate(graph, cfg)

    monkeypatch.setattr(weights_mod, "integrate_graph_form", counting)
    return calls


@pytest.mark.usefixtures("sampled_weights")
class TestPooledWeights:
    @pytest.mark.usefixtures("sampler_only")
    def test_cold_order3_integrates_each_sampled_orbit_once(
            self, integrations):
        """The 430 so(3) star graphs of orders 1-3 with a nonzero operator
        fall in 17 orbits; the 10 without a closed form are integrated
        once each, at (members) x 4096 samples, and a warm product
        integrates nothing."""
        cfg = so3_config(3, 3, per_graph=False)
        f, g = so3_pair()
        cold = star_expansion(f, g, so3_alpha(), cfg)
        members = {orbit: k for family in star_mod._Engine(
            so3_alpha(), cfg).families.values()
            for _, orbit, k in family.orbits}
        assert (len(members), sum(members.values())) == (17, 430)
        assert len(integrations) == 10
        assert {serialize(rep) for rep in integrations} == {
            orbit for orbit in members if exact_weight(parse(orbit)) is None}
        for rep in integrations:
            assert cfg.table.get(rep).n_samples == \
                members[serialize(rep)] * 4096
        warm = star_expansion(f, g, so3_alpha(), cfg)
        assert len(integrations) == 10
        assert warm == cold

    def test_numeric_fill_is_one_ensure_call(self, integrations,
                                             monkeypatch):
        """Every orbit of the order-2 families (1 order-1 and 6 order-2
        so(3) orbits) gets one entry in one WeightTable.ensure call:
        without solved weights, the 4 with a closed form first, then
        the 3 sampled ones, each integrated once, in integration
        order."""
        calls = []
        ensure = WeightTable.ensure

        def counting(table, graphs, *args, **kwargs):
            calls.append(len(graphs))
            return ensure(table, graphs, *args, **kwargs)

        monkeypatch.setattr(WeightTable, "ensure", counting)
        cfg = StarConfig(order=2, table=WeightTable(),
                         integration=IntegrationConfig(seed=3, n_samples=256))
        star_expansion(*so3_pair(), so3_alpha(), cfg)
        assert sorted(g.n for g in integrations) == [2] * 3
        assert calls == [7]
        assert [g for g, est in cfg.table if est.exact is None] \
            == integrations
        assert [est.exact is None for _, est in cfg.table] \
            == [False] * 4 + [True] * 3

    @pytest.fixture(scope="class")
    def both_tables(self):
        with without_solved_weights():
            return {per_graph: orbit_weights(so3_config(3, 11, per_graph))
                    for per_graph in (False, True)}

    def test_pooled_orbit_weights_agree_with_per_graph_sums(
            self, both_tables):
        """Every so(3) orbit weight of orders 2-3, pooled (or closed form)
        against the sum of its members' own sampled estimates, within 4
        joint sigma at one seed."""
        pooled, summed = both_tables[False], both_tables[True]
        assert pooled.keys() == summed.keys()
        sampled = 0
        for r, (w, sigma) in pooled.items():
            if r[0] < 2:
                continue
            sampled += bool(sigma)
            joint = math.hypot(sigma, summed[r][1])
            assert abs(w - summed[r][0]) <= 4 * joint + 1e-12, r
        assert sampled == 10

    @pytest.mark.usefixtures("sampler_only")
    def test_per_graph_table_keeps_the_per_graph_bytes(self):
        """With every member's own entry in the table, each entry is its
        own source with coefficient +-1, in row order: the series and
        bounds are byte-identical to those of a graph-by-graph engine
        (digests recorded from the engine before pooling; the order-3 one
        again when 6-dimensional integrands left LAPACK for the compiled
        expansion, which moved six entries by at most one ulp; both again
        when weight() made the vanishing lemma's entries exact zeros,
        which the pre-change engine reproduces with those entries
        replaced by exact zeros)."""
        f, g = so3_pair()
        exp = star_expansion(f, g, so3_alpha(), so3_config(3, 5, True))
        blob = json.dumps({"series": exp.series.to_json_obj(),
                           "bounds": list(exp.bounds)}, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "34b4c947f1f92272507ba626d9a429137a9872dfb57c4be61c15f1e50348d845")
        x = [Polynomial.variable(3, i) for i in range(3)]
        rep = check_associativity(x[0] * x[1], x[1] * x[2], x[2] * x[0],
                                  so3_alpha(), so3_config(2, 5, True))
        blob = json.dumps(rep.to_json_obj(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "237c8f136a1850fade464fb35efd4ffbb3f44ec0897d763720abc073cc4ddc6b")

    def test_shared_entry_counts_k_sigma_squared(self):
        """An entry read by k members is one source: the hbar^2 bound is
        the quadrature over distinct entries of std_error x the probe sup
        of the symmetric difference when that entry alone moves by +-1,
        all its readers together, so it counts (k sigma)^2, not k sigma^2."""
        f, g = so3_pair()
        cfg = so3_config(2, 7, per_graph=False)
        bound = star_expansion(f, g, so3_alpha(), cfg).bounds[2]
        family = star_mod._Engine(so3_alpha(), cfg).families[2]
        # the table started empty: every member reads its orbit's entry
        readers = {orbit: k for _, orbit, k in family.orbits}
        entries = [(gr, est) for gr, est in cfg.table if est.std_error]
        assert entries and all(serialize(gr) in readers for gr, _ in entries)
        perturbed, per_member = 0.0, 0.0
        for gr, est in entries:
            moved = []
            for step in (1, -1):
                table = WeightTable()
                for h, e in cfg.table:
                    table.put(h, e)
                table.put(gr, dataclasses.replace(
                    est, std_error=0.0, exact=Fraction(est.value) + step))
                moved.append(star_expansion(
                    f, g, so3_alpha(), dataclasses.replace(cfg, table=table))
                    .series.coefficient(2))
            sup = probe_sup((moved[0] - moved[1]) * QI(Fraction(1, 2)))
            perturbed += (est.std_error * sup) ** 2
            k = readers[serialize(gr)]
            per_member += k * (est.std_error * sup / k) ** 2
        assert max(readers.values()) == 8
        assert bound == pytest.approx(math.sqrt(perturbed), rel=1e-12)
        assert bound > 1.5 * math.sqrt(per_member)
