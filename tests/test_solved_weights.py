"""The solved order-2 and order-3 weights (weights.SOLVED_WEIGHTS).

Every value is re-derived here from exact constraints, with no number
taken from the table: so(3) associativity at hbar^2 and hbar^3, mirror
parity, factorisation over the parts that meet only at the grounds, and
the wheel weight -1/48 from the literature.  Held-out triples then check
the solved values exactly, and fixed-seed integrals check them
statistically.
"""
import importlib
import math
import random
from fractions import Fraction

import pytest

from starquant import weights
from starquant.formality import linfty_check
from starquant.graphs import KGraph, orbit_representative, parse, serialize
from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField
from starquant.star import StarConfig, check_associativity, star_expansion
from starquant.weights import (SOLVED_WEIGHTS, IntegrationConfig,
                               WeightEstimate, WeightTable, exact_weight,
                               weight)

from helpers import (member_rows, random_linear_bivector, random_poly,
                     so3_alpha, without_solved_weights)

star_mod = importlib.import_module("starquant.star")  # star() shadows it

# Kontsevich, q-alg/9709040: the wheel's hbar^2 term has coefficient
# -1/6 = 8 members x w, an input here, not derived
WHEEL = "n=2;m=2;1:[2,L];2:[1,R]"
WHEEL_WEIGHT = Fraction(-1, 48)

TRAINING_TRIPLES = 40       # random monomial triples the solve reads


def variables(dim=3):
    return [Polynomial.variable(dim, i) for i in range(dim)]


def held_out_triples():
    """Criterion 7's triples (random.Random(707)) and the cubic triple
    x0^2 x1, x1^2 x2, x0 x2^2; the solve reads none of them."""
    rng = random.Random(707)
    x = variables()
    triples = [(x[0], x[1], x[2])]
    triples += [tuple(random_poly(rng) for _ in range(3))
                for _ in range(5)]
    triples.append((x[0] * x[0] * x[1], x[1] * x[1] * x[2],
                    x[0] * x[2] * x[2]))
    return triples


def unknown_orbits():
    """(order, orbit serial) -> members of the so(3) orbits of orders 2-3
    with a nonzero operator and no closed form outside the solved table."""
    eng = star_mod._Engine(so3_alpha(), StarConfig(order=3))
    return {(j, orbit): k for j, family in eng.families.items()
            for rep, orbit, k in family.orbits if exact_weight(rep) is None}


def associativity_rows(members, triples):
    """Exact equations sum_r c_r w_r = b from so(3) associativity.

    Through hbar^3 the residual is affine in the orbit weights
    W_r = members x w_r, so with every W_r held at 0 by a zero table
    entry the engine's Measured value is R_0 and its sensitivity to r is
    R_r; each monomial's real and imaginary part gives one row."""
    table = WeightTable()
    for _, orbit in members:
        table.put(parse(orbit), WeightEstimate(0.0, 1.0, 1, 0, "qmc"))
    cfg = StarConfig(order=3, table=table)
    rows = []
    for f, g, h in triples:
        eng = star_mod._Engine(so3_alpha(), cfg)
        F, G, H = (eng.exact(p) for p in (f, g, h))
        eng.ensure_weights()
        assert eng.weights.keys() >= members.keys()
        resid = (eng.star_series(eng.star_series(F, G), H)
                 - eng.star_series(F, eng.star_series(G, H)))
        for power in (2, 3):
            m = resid.coefficient(power)
            monomials = set(m.value.terms).union(
                *(p.terms for p in m.sens.values()))
            for e in monomials:
                for part in ("re", "im"):
                    coeffs = {}
                    for r, k in members.items():
                        c = m.sens[r].terms.get(e) if r in m.sens else None
                        if c is not None and getattr(c, part):
                            coeffs[r[1]] = getattr(c, part) * k
                    c0 = m.value.terms.get(e)
                    rhs = -getattr(c0, part) if c0 is not None else 0
                    if coeffs or rhs:
                        rows.append((coeffs, Fraction(rhs)))
    return rows


def weight_form(g, unknowns):
    """g's weight as (coefficients over unknowns, constant), or None."""
    closed = exact_weight(g)
    if closed is not None:
        return {}, closed
    rep, sign = orbit_representative(g)
    if serialize(rep) in unknowns:
        return {serialize(rep): sign}, Fraction(0)
    return None


def mirror_rows(unknowns):
    """w(mirror g) = (-1)^n w(g) for every unknown representative g."""
    rows = []
    for orbit in unknowns:
        g = parse(orbit)
        (a, a0), (b, b0) = (weight_form(g.mirror(), unknowns),
                            weight_form(g, unknowns))
        coeffs = dict(a)
        for u, c in b.items():
            coeffs[u] = coeffs.get(u, 0) - (-1) ** g.n * c
        rows.append((coeffs, (-1) ** g.n * b0 - a0))
    return rows


def components(g):
    """g's aerial vertex sets that meet only at the grounds, each as a
    star graph with its vertices renumbered in order."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for v, targets in enumerate(g.out_edges):
        for t in targets:
            if t < g.n:
                parent[root(v)] = root(t)
    parts = {}
    for v in range(g.n):
        parts.setdefault(root(v), []).append(v)
    out = []
    for part in parts.values():
        k = len(part)
        renum = {v: i for i, v in enumerate(part)}
        out.append(KGraph(k, 2, tuple(
            tuple(renum[t] if t < g.n else k + t - g.n
                  for t in g.out_edges[v]) for v in part)))
    return out


def factorisation_rows(unknowns):
    """w(g) = (prod n_i! / n!) prod w(g_i) over g's components g_i, for
    every unknown representative g with at most one unknown factor."""
    rows = []
    for orbit in unknowns:
        g = parse(orbit)
        parts = components(g)
        forms = [weight_form(part, unknowns) for part in parts]
        if len(parts) < 2 or None in forms or sum(
                bool(c) for c, _ in forms) > 1:
            continue
        scale = Fraction(math.prod(math.factorial(p.n) for p in parts),
                         math.factorial(g.n))
        lone = {}
        for c, c0 in forms:
            if c:
                lone = c
            else:
                scale *= c0
        coeffs = {orbit: Fraction(1)}
        for u, c in lone.items():
            coeffs[u] = coeffs.get(u, 0) - scale * c
        rows.append((coeffs, Fraction(0) if lone else scale))
    return rows


def solve(rows, unknowns):
    """Exact Gauss-Jordan elimination: (rank, consistent, solution), the
    solution holding each unknown the system determines."""
    mat = [[Fraction(c.get(u, 0)) for u in unknowns] + [Fraction(b)]
           for c, b in rows]
    pivots, top = [], 0
    for col in range(len(unknowns)):
        pick = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if pick is None:
            continue
        mat[top], mat[pick] = mat[pick], mat[top]
        lead = mat[top][col]
        mat[top] = [v / lead for v in mat[top]]
        for i, row in enumerate(mat):
            if i != top and row[col]:
                f = row[col]
                mat[i] = [a - f * b for a, b in zip(row, mat[top])]
        pivots.append(col)
        top += 1
    consistent = all(not row[-1] for row in mat[top:])
    solution = {}
    for i, col in enumerate(pivots):
        if not any(mat[i][k] for k in range(len(unknowns)) if k != col):
            solution[unknowns[col]] = mat[i][-1]
    return len(pivots), consistent, solution


@pytest.fixture(scope="module")
def constraints():
    """The unknown orbits and each family of constraint rows, read on
    the sampled path so the solved table feeds none of them."""
    with without_solved_weights():
        members = unknown_orbits()
        unknowns = [orbit for _, orbit in members]
        rng = random.Random(2)
        x = variables()

        def monomial():
            p = Polynomial.constant(3, 1)
            for _ in range(rng.randint(1, 3)):
                p = p * x[rng.randrange(3)]
            return p

        triples = [tuple(monomial() for _ in range(3))
                   for _ in range(TRAINING_TRIPLES)]
        return members, unknowns, {
            "associativity": associativity_rows(members, triples),
            "mirror": mirror_rows(unknowns),
            "factorisation": factorisation_rows(unknowns),
            "wheel": [({WHEEL: Fraction(1)}, WHEEL_WEIGHT)],
        }


class TestSolvedTable:
    def test_unknowns_are_the_table_keys(self, constraints):
        members, unknowns, _ = constraints
        assert set(unknowns) == set(SOLVED_WEIGHTS)
        assert sorted(members.values()) == [8] * 3 + [48] * 7

    def test_constraints_rederive_the_table(self, constraints):
        """Associativity leaves rank 7 of 10; mirror parity, then
        factorisation, then the wheel value each add one; the system is
        consistent throughout and its solution is the committed table."""
        _, unknowns, families = constraints
        rows, ranks = [], []
        for name in ("associativity", "mirror", "factorisation", "wheel"):
            rows += families[name]
            rank, consistent, solution = solve(rows, unknowns)
            assert consistent, name
            ranks.append(rank)
        assert ranks == [7, 8, 9, 10]
        assert solution == SOLVED_WEIGHTS

    def test_associativity_alone_fixes_six(self, constraints):
        """Rank 7: six values, and one relation among the wheel and the
        three order-3 orbits the other constraints then fix."""
        _, unknowns, families = constraints
        rank, consistent, solution = solve(families["associativity"],
                                           unknowns)
        assert (rank, consistent) == (7, True)
        assert solution == {u: SOLVED_WEIGHTS[u] for u in (
            "n=2;m=2;1:[2,L];2:[L,R]", "n=2;m=2;1:[2,R];2:[L,R]",
            "n=3;m=2;1:[2,L];2:[3,L];3:[L,R]",
            "n=3;m=2;1:[2,L];2:[L,R];3:[L,R]",
            "n=3;m=2;1:[2,R];2:[3,R];3:[L,R]",
            "n=3;m=2;1:[2,R];2:[L,R];3:[L,R]")}

    def test_sampled_estimates_agree_within_4_sigma(self):
        """Each representative integrated at 2^20 samples, seed 0."""
        cfg = IntegrationConfig(seed=0, n_samples=1 << 20)
        for orbit, w in SOLVED_WEIGHTS.items():
            est = weight(parse(orbit), cfg)
            assert abs(est.value - float(w)) <= 4 * est.std_error, orbit

    def test_members_read_sign_times_representative(self):
        for j in (2, 3):
            for g, _, orbit, sign in member_rows((so3_alpha(),) * j, 2):
                if orbit in SOLVED_WEIGHTS:
                    assert exact_weight(g) == sign * SOLVED_WEIGHTS[orbit]

    def test_order4_skips_the_orbit_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("orbit_representative at order 4")

        monkeypatch.setattr(weights, "orbit_representative", no_search)
        exact_weight.cache_clear()
        try:
            g = parse("n=4;m=2;1:[2,L];2:[3,L];3:[4,L];4:[1,R]")
            assert exact_weight(g) is None
        finally:
            exact_weight.cache_clear()


class TestExactAssociativity:
    @pytest.mark.parametrize("triple", range(7))
    def test_held_out_triples_are_exactly_associative(self, triple):
        f, g, h = held_out_triples()[triple]
        rep = check_associativity(f, g, h, so3_alpha(),
                                  StarConfig(order=3))
        assert rep.ok
        assert all(r.residual.is_zero() and r.bound == 0 for r in rep.rows)

    @pytest.mark.parametrize("orbit", sorted(SOLVED_WEIGHTS))
    def test_perturbed_value_breaks_associativity(self, orbit, monkeypatch):
        """One value off by 1/1000 leaves some held-out triple with a
        nonzero exact residual at hbar^2 or hbar^3."""
        moved = dict(SOLVED_WEIGHTS)
        moved[orbit] += Fraction(1, 1000)
        monkeypatch.setattr(weights, "SOLVED_WEIGHTS", moved)
        exact_weight.cache_clear()
        try:
            cfg = StarConfig(order=3)
            broken = []
            for f, g, h in held_out_triples():
                rep = check_associativity(f, g, h, so3_alpha(), cfg)
                broken += [r.power for r in rep.rows
                           if not r.residual.is_zero()]
                if broken:
                    break
            assert broken and set(broken) <= {2, 3}
            assert not rep.ok
        finally:
            exact_weight.cache_clear()

    def test_criterion9_pair_is_exactly_coherent(self):
        """Criterion 9's random linear bivectors (random.Random(909)):
        the L-infinity residual is exactly 0 at bound 0."""
        rng = random.Random(909)
        fields = [random_linear_bivector(rng), random_linear_bivector(rng)]
        rep = linfty_check(fields, variables(),
                           StarConfig(order=2, table=WeightTable()))
        assert rep.ok
        assert all(r.residual.is_zero() and r.bound == 0 for r in rep.rows)

    def test_cold_order3_product_integrates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(weights, "integrate_graph_form",
                            lambda *a, **k: calls.append(a))
        x = variables()
        cfg = StarConfig(order=3, table=WeightTable(),
                         integration=IntegrationConfig(seed=0))
        exp = star_expansion(x[0] * x[1] * x[2], x[0] * x[0] * x[1],
                             so3_alpha(), cfg)
        assert calls == []
        assert exp.bounds == (0.0,) * 4
        assert len(cfg.table) and all(est.exact is not None
                                      for _, est in cfg.table)

    def test_cold_order3_table_holds_one_entry_per_orbit(self):
        """The 430 nonzero-operator so(3) star graphs of orders 1-3 read
        17 orbits: a cold product leaves one exact entry per orbit, keyed
        by its representative's serial, and a second product on the same
        table adds nothing."""
        x = variables()
        cfg = StarConfig(order=3, table=WeightTable())
        star_expansion(x[0] * x[1] * x[2], x[0] * x[0] * x[1], so3_alpha(),
                       cfg)
        orbits = {row[1] for family in star_mod._Engine(
            so3_alpha(), cfg).families.values() for row in family.orbits}
        assert len(orbits) == len(cfg.table) == 17
        assert {serialize(g) for g, _ in cfg.table} == orbits
        assert all(est.exact is not None for _, est in cfg.table)
        before = cfg.table.to_json_obj()
        star_expansion(x[1] * x[2], x[0] * x[2] * x[2], so3_alpha(), cfg)
        assert cfg.table.to_json_obj() == before


def test_nambu_structure_still_samples():
    """The Nambu bivector eps^{ijk} d_k C, C = x0^3 + x1 x2, reads order-3
    orbits outside the solved table: a cold product samples them, and
    only its hbar^3 bound is nonzero."""
    x = variables()
    alpha = PolyVectorField(3, 1, {(0, 1): x[1], (0, 2): -x[2],
                                   (1, 2): x[0] * x[0] * 3})
    cfg = StarConfig(order=3, table=WeightTable(),
                     integration=IntegrationConfig(seed=0, n_samples=64))
    exp = star_expansion(x[0] * x[1], x[2], alpha, cfg)
    assert exp.bounds[:3] == (0.0,) * 3 and exp.bounds[3] > 0
    assert any(est.exact is None for _, est in cfg.table)
