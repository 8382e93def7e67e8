"""Closed forms, ghost gating and coherence checks for the graph maps."""
import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant.errors import ConfigError, DimensionMismatchError
from starquant.formality import (
    LINFTY_RHS_SIGN,
    _u_numeric,
    ghost_argument_count,
    graded_symmetry_check,
    linfty_check,
    u_n,
)
from starquant.graphs import (enumerate_graphs, orbit_representative, parse,
                              serialize, star_graphs)
from starquant.operators import build_operator
from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField, schouten
from starquant.rational import QI
from starquant.star import StarConfig, star_expansion
from starquant.weights import IntegrationConfig, WeightTable

from helpers import member_rows, random_linear_bivector, random_poly

DIM = 3
operators_mod = importlib.import_module("starquant.operators")
formality_mod = importlib.import_module("starquant.formality")
weights_mod = importlib.import_module("starquant.weights")


def variables(dim=DIM):
    return [Polynomial.variable(dim, i) for i in range(dim)]


def so3_bivector(dim=DIM):
    x = variables(dim)
    return PolyVectorField(dim, 1, {
        (0, 1): x[2],
        (0, 2): x[1] * QI(-1),
        (1, 2): x[0],
    })


def numeric_cfg(table=None, n_samples=65536, seed=42, **kw):
    return StarConfig(
        order=2,
        table=table if table is not None else WeightTable(),
        integration=IntegrationConfig(seed=seed, n_samples=n_samples),
        **kw,
    )


class TestGhostRule:
    def test_arity_formula(self):
        assert ghost_argument_count(0, []) == 2
        assert ghost_argument_count(1, [1]) == 2
        assert ghost_argument_count(2, [1, 1]) == 2
        assert ghost_argument_count(1, [2]) == 3
        assert ghost_argument_count(2, [0, 2]) == 2

    @given(
        degrees=st.lists(st.integers(min_value=0, max_value=2),
                         min_size=0, max_size=2),
        extra=st.integers(min_value=-2, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_wrong_arity_is_exact_zero(self, degrees, extra):
        """Off-arity calls return the zero polynomial before any sampling."""
        if extra == 0:
            extra = 3
        fields = [
            PolyVectorField(DIM, p, {tuple(range(p + 1)): Polynomial.variable(DIM, 0)})
            for p in degrees
        ]
        want = ghost_argument_count(len(fields), degrees)
        count = want + extra
        if count < 1:
            count = want + abs(extra) + 1
        args = [Polynomial.variable(DIM, i % DIM) for i in range(count)]
        out = u_n(fields, args)
        assert out.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            u_n([so3_bivector(3)], [Polynomial.variable(2, 0),
                                    Polynomial.variable(2, 1)])


class TestClosedForms:
    def test_u0_is_the_product(self):
        rng = random.Random(5)
        for _ in range(5):
            f, g = random_poly(rng), random_poly(rng)
            assert (u_n([], [f, g]) + f * g * QI(-1)).is_zero()

    def test_u1_vector_field(self):
        """Degree 0 closed form is minus the directional derivative."""
        x = variables()
        vec = PolyVectorField(DIM, 0, {(0,): x[1], (2,): x[0] * x[0]})
        f = x[0] * x[2] + x[1]
        got = u_n([vec], [f])
        expect = (x[1] * f.diff(0) + x[0] * x[0] * f.diff(2)) * QI(-1)
        assert (got + expect * QI(-1)).is_zero()

    def test_u1_bivector(self):
        rng = random.Random(11)
        alpha = so3_bivector()
        for _ in range(5):
            f, g = random_poly(rng), random_poly(rng)
            got = u_n([alpha], [f, g])
            expect = Polynomial.zero(DIM)
            for (i, j), comp in alpha.components.items():
                expect = expect + comp * (f.diff(i) * g.diff(j)
                                          + f.diff(j) * g.diff(i) * QI(-1))
            expect = expect * QI(Fraction(1, 2))
            assert (got + expect * QI(-1)).is_zero()

    def test_u1_trivector(self):
        x = variables()
        tri = PolyVectorField(DIM, 2, {(0, 1, 2): x[0]})
        f0, f1, f2 = x[0] * x[0], x[1], x[2] * x[1]
        got = u_n([tri], [f0, f1, f2])
        expect = Polynomial.zero(DIM)
        for idx, comp in tri.iter_full_components():
            term = comp
            for slot, j in enumerate(idx):
                term = term * [f0, f1, f2][slot].diff(j)
            expect = expect + term
        expect = expect * QI(Fraction(-1, 6))
        assert (got + expect * QI(-1)).is_zero()


@pytest.mark.usefixtures("sampled_weights")
class TestStarCrossPath:
    """The diagonal of the graph maps against the star expansion."""

    def test_first_order_matches_exactly(self):
        rng = random.Random(23)
        alpha = so3_bivector()
        cfg = numeric_cfg()
        for _ in range(5):
            f, g = random_poly(rng), random_poly(rng)
            exp = star_expansion(f, g, alpha, cfg)
            diag = u_n([alpha], [f, g], cfg) * QI(0, 1)
            resid = exp.series.coefficient(1) + diag * QI(-1)
            assert resid.is_zero()

    def test_moyal_second_order_exact(self):
        """Constant coefficients: shared exact weights collapse both routes."""
        dim = 2
        one = Polynomial.constant(dim, QI(1))
        alpha = PolyVectorField(dim, 1, {(0, 1): one})
        x, y = Polynomial.variable(dim, 0), Polynomial.variable(dim, 1)
        f, g = x * x, y * y
        cfg = numeric_cfg()
        exp = star_expansion(f, g, alpha, cfg)
        diag = u_n([alpha, alpha], [f, g], cfg) * QI(-1)
        assert (exp.series.coefficient(2) + diag * QI(-1)).is_zero()

    def test_so3_second_order_statistical(self):
        """Argument reversal maps to mirror graphs with independent draws."""
        from starquant.star import quadrature_bound

        alpha = so3_bivector()
        x = variables()
        f, g = x[0] * x[0], x[1] * x[2]
        cfg = numeric_cfg(n_samples=131072)
        exp = star_expansion(f, g, alpha, cfg)
        measured = _u_numeric([alpha, alpha], [f, g], cfg)
        diag = measured.value * QI(-1)
        resid = exp.series.coefficient(2) + diag * QI(-1)
        sources = [(s, cfg.table.lookup(s).std_error) for s in measured.sens]
        bound = exp.bounds[2] + quadrature_bound(measured, sources)
        assert bound > 0
        assert resid.max_abs_coeff() <= cfg.policy * bound


def graph_by_graph_u(fields, args, table):
    """u_n with one build_operator per graph, no orbit sharing, reading
    each graph's own entry of table: the value and the per-graph
    sensitivities d/dw."""
    n = len(fields)
    degrees = [f.degree for f in fields]
    rational = QI(Fraction((-1) ** n, math.prod(
        math.factorial(p + 1) for p in degrees)))
    value, sens = Polynomial.zero(args[0].dim), {}
    for g in enumerate_graphs(n, len(args), degrees):
        applied = build_operator(g, fields).apply(tuple(reversed(args)))
        if applied.is_zero():
            continue
        est = table.get(g)
        w = est.exact if est.exact is not None else Fraction(est.value)
        value = value + applied * (rational * QI(w))
        if est.std_error:
            sens[serialize(g)] = applied * rational
    return value, sens


def _vector():
    x = variables()
    return PolyVectorField(DIM, 0, {(0,): x[1], (2,): x[0] * x[0]})


def _trivector():
    x = variables()
    return PolyVectorField(DIM, 2, {(0, 1, 2): x[0] * x[1] + x[2]})


@pytest.mark.usefixtures("sampled_weights")
class TestOrbitSharedGraphSum:
    """_u_numeric builds one operator per orbit and signs each graph."""

    @pytest.mark.parametrize("case", ["so3_diagonal", "two_bivectors",
                                      "vector_trivector",
                                      "bivector_trivector"])
    def test_matches_graph_by_graph_sum(self, case):
        x = variables()
        rng = random.Random(61)
        fields, args = {
            "so3_diagonal": ([so3_bivector()] * 2,
                             [x[0] * x[0], x[1] * x[2]]),
            "two_bivectors": ([random_linear_bivector(rng),
                               random_linear_bivector(rng)],
                              [x[0] * x[1], x[2] * x[2]]),
            "vector_trivector": ([_vector(), _trivector()],
                                 [x[0] * x[1], x[2] * x[2]]),
            "bivector_trivector": ([so3_bivector(), _trivector()],
                                   [x[0] * x[1], x[2], x[2]]),
        }[case]
        cfg = numeric_cfg(n_samples=4096)
        # one entry per graph, so graph_by_graph_u reads each graph's
        # own entry
        cfg.table.ensure(enumerate_graphs(len(fields), len(args),
                                          [f.degree for f in fields]),
                         cfg.integration, use_exact=True)
        got = _u_numeric(fields, args, cfg)
        value, sens = graph_by_graph_u(fields, args, cfg.table)
        assert sens  # sampled graphs contribute
        assert got.value == value
        assert got.sens == sens
        assert list(got.sens) == list(sens)  # bounds add in this order


class TestGradedSymmetry:
    def test_identical_fields_cancel_exactly(self):
        alpha = so3_bivector()
        x = variables()
        rep = graded_symmetry_check([alpha, alpha], [x[0], x[1] * x[2]],
                                    numeric_cfg())
        row = rep.rows[0]
        assert rep.ok
        assert row.residual_max == 0.0
        assert row.bound == 0.0

    @pytest.mark.usefixtures("sampled_weights")
    def test_two_bivectors(self):
        """Even swap: u(a1,a2) - u(a2,a1) within the propagated spread."""
        rng = random.Random(31)
        a1 = random_linear_bivector(rng)
        a2 = random_linear_bivector(rng)
        x = variables()
        rep = graded_symmetry_check([a1, a2], [x[0] * x[1], x[2]],
                                    numeric_cfg(n_samples=131072))
        assert rep.ok
        assert rep.rows[0].bound > 0

    def test_vector_trivector_odd_swap(self):
        """(p-1)(q-1) odd for degrees (0, 2): the swap costs a sign."""
        x = variables()
        vec = PolyVectorField(DIM, 0, {(0,): x[1], (2,): x[0] * x[0]})
        tri = PolyVectorField(DIM, 2,
                              {(0, 1, 2): Polynomial.constant(DIM, QI(1)) + x[2]})
        rep = graded_symmetry_check([vec, tri], [x[0] * x[1], x[2] * x[2]],
                                    numeric_cfg())
        assert rep.ok
        assert rep.rows[0].bound > 0
        assert "graded symmetry" in rep.summary()

    def test_rejects_non_adjacent_and_short(self):
        alpha = so3_bivector()
        with pytest.raises(ConfigError):
            graded_symmetry_check([alpha], [Polynomial.variable(DIM, 0),
                                            Polynomial.variable(DIM, 1)])


class TestCoherence:
    def test_single_field_is_exact_cocycle(self):
        """n=1 at three arguments vanishes symbolically, term by term."""
        rng = random.Random(47)
        alpha = so3_bivector()
        cfg = numeric_cfg()
        for _ in range(3):
            args = [random_poly(rng) for _ in range(3)]
            rep = linfty_check([alpha], args, cfg)
            row = rep.rows[0]
            assert row.residual_max == 0.0
            assert row.bound == 0.0

    @pytest.mark.usefixtures("sampled_weights")
    def test_two_random_bivectors(self):
        """Both sides alive: compositions against the bracket term."""
        rng = random.Random(7)
        a1 = random_linear_bivector(rng)
        a2 = random_linear_bivector(rng)
        assert not schouten(a1, a2).is_zero()
        rep = linfty_check([a1, a2], variables(),
                           numeric_cfg(n_samples=131072))
        row = rep.rows[0]
        assert rep.ok
        assert row.bound > 0
        assert "linfty" in rep.summary()

    def test_diagonal_jacobi_cancels(self):
        """a1 = a2 Poisson kills the bracket; composition side self-cancels."""
        alpha = so3_bivector()
        rep = linfty_check([alpha, alpha], variables(), numeric_cfg())
        assert rep.rows[0].residual_max == 0.0

    def test_zero_field_trivial(self):
        a1 = so3_bivector()
        a2 = PolyVectorField(DIM, 1, {})
        rep = linfty_check([a1, a2], variables(), numeric_cfg())
        row = rep.rows[0]
        assert row.residual_max == 0.0
        assert row.bound == 0.0

    def test_repeated_check_builds_no_operator(self, monkeypatch):
        """Operators are shared across checks: a second linfty_check on
        equal (but distinct) fields builds nothing and agrees exactly."""
        calls = []
        build = operators_mod.build_operator

        def counting(graph, fields, dim=None):
            calls.append(graph)
            return build(graph, fields, dim)

        def fields():
            rng = random.Random(7)
            return [random_linear_bivector(rng), random_linear_bivector(rng)]

        monkeypatch.setattr(operators_mod, "build_operator", counting)
        operators_mod.orbit_operators.cache_clear()
        try:
            first = linfty_check(fields(), variables(),
                                 numeric_cfg(n_samples=1024))
            assert calls
            built = len(calls)
            again = linfty_check(fields(), variables(),
                                 numeric_cfg(n_samples=1024))
            assert len(calls) == built
            assert again == first
        finally:
            operators_mod.orbit_operators.cache_clear()

    def test_rhs_sign_is_frozen(self):
        assert LINFTY_RHS_SIGN == -1

    @pytest.mark.parametrize("sign,residual", [(-1, 0), (1, Fraction(4, 3))])
    def test_rhs_sign_exact(self, monkeypatch, sign, residual):
        """Every order-2 two-ground weight is exact, so the coherence
        identity on two random linear bivectors holds exactly at the
        calibrated sign, with bound 0, and the other sign misses it by
        4/3."""
        rng = random.Random(7)
        fields = [random_linear_bivector(rng), random_linear_bivector(rng)]
        monkeypatch.setattr(formality_mod, "LINFTY_RHS_SIGN", sign)
        rep = linfty_check(fields, variables(),
                           StarConfig(order=2, table=WeightTable()))
        row = rep.rows[0]
        assert (row.residual_max, row.bound) == (float(residual), 0.0)
        assert rep.ok == (sign == -1)

    def test_arity_guards(self):
        alpha = so3_bivector()
        with pytest.raises(ConfigError):
            linfty_check([alpha, alpha, alpha], variables())
        with pytest.raises(ConfigError):
            linfty_check([alpha], [Polynomial.variable(DIM, 0)])
        with pytest.raises(ConfigError):
            linfty_check([], variables())


def dim2_beta():
    """(x0^2 + x1) d0 ^ d1, whose order-3 orbits are not all solved, and
    the coordinates of R^2."""
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return PolyVectorField(2, 1, {(0, 1): x0 * x0 + x1}), x0, x1


class TestClosedFormCovariance:
    """star._resolve_weights lets a row without its own table entry read
    its orbit representative's, closed form or sampled, which holds only
    while every closed form is covariant: exact_weight(g) is None exactly
    when the representative's is, and is otherwise sign x its value."""

    @pytest.mark.parametrize("solved", [True, False],
                             ids=["solved", "unsolved"])
    @pytest.mark.parametrize("family", ["star1", "star2", "star3",
                                        "bivector_trivector",
                                        "trivector_bivector"])
    def test_rows_read_sign_times_the_representative(self, family, solved,
                                                     request):
        if not solved:
            request.getfixturevalue("sampled_weights")
        fields, m = {
            "star1": ((so3_bivector(),), 2),
            "star2": ((so3_bivector(),) * 2, 2),
            "star3": ((so3_bivector(),) * 3, 2),
            "bivector_trivector": ((so3_bivector(), _trivector()), 3),
            "trivector_bivector": ((_trivector(), so3_bivector()), 3),
        }[family]
        rows = member_rows(fields, m)
        assert rows
        for g, ser, orbit, sign in rows:
            want = weights_mod.exact_weight(parse(orbit))
            got = weights_mod.exact_weight(g)
            assert (got is None) == (want is None), ser
            assert want is None or got == sign * want, ser


class TestWeightReading:
    """u_n reads two-ground weights as the star engine does: cfg.weights
    is honoured, and each orbit reads one table entry, its
    representative's, exact where a closed form exists; a check without
    a table gets one of its own."""

    def test_default_config_reads_closed_forms(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        integrate = weights_mod.integrate_graph_form
        monkeypatch.setattr(weights_mod, "integrate_graph_form", counting)
        rng = random.Random(7)
        fields = [random_linear_bivector(rng), random_linear_bivector(rng)]
        row = linfty_check(fields, variables()).rows[0]
        assert (row.residual_max, row.bound) == (0.0, 0.0)
        assert calls == []

    def test_default_u_n_reads_a_table(self):
        rng = random.Random(13)
        alpha = so3_bivector()
        for _ in range(3):
            f, g = random_poly(rng), random_poly(rng)
            assert u_n([alpha, alpha], [f, g]) == u_n(
                [alpha, alpha], [f, g], StarConfig(table=WeightTable()))

    def test_auto_pools_one_entry_per_orbit(self):
        """264 graphs of 6 unsolved orbits read 6 sampled entries, each
        the orbit representative's."""
        beta, x0, x1 = dim2_beta()
        cfg = StarConfig(table=WeightTable(),
                         integration=IntegrationConfig(seed=0, n_samples=4096))
        rep = graded_symmetry_check([beta] * 3, [x0 * x1, x1], cfg)
        sampled = [g for g, est in cfg.table if est.exact is None]
        assert len(sampled) == 6
        assert all(orbit_representative(g)[0] == g for g in sampled)
        assert rep.ok

    def test_three_grounds_pool_one_entry_per_orbit(self, monkeypatch):
        """48 sampled graphs at three grounds, over both field orders,
        read 4 orbit entries, each integrated once at its members'
        summed budget."""
        calls = []

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return integrate(graph, *args, **kwargs)

        integrate = weights_mod.integrate_graph_form
        monkeypatch.setattr(weights_mod, "integrate_graph_form", counting)
        x = variables()
        fields = (so3_bivector(), _trivector())
        cfg = numeric_cfg(n_samples=65536)
        rep = graded_symmetry_check(list(fields), [x[0] * x[1], x[2], x[2]],
                                    cfg)
        assert rep.ok and rep.rows[0].bound > 0
        assert len(calls) == 4
        orbits = {row[1] for family in (fields, fields[::-1])
                  for row in operators_mod.orbit_operators(family, 3).orbits}
        assert {serialize(g) for g in calls} <= orbits
        assert sum(est.n_samples for _, est in cfg.table) == 48 * 65536

    def test_numeric_mode_samples(self):
        """Sampled entries of their own for graphs with closed forms are
        read, and bound, in place of the closed forms."""
        rng = random.Random(7)
        fields = [random_linear_bivector(rng), random_linear_bivector(rng)]
        integration = IntegrationConfig(seed=0, n_samples=4096)
        table = WeightTable().ensure(star_graphs(2), integration)
        cfg = StarConfig(table=table, integration=integration)
        assert linfty_check(fields, variables(), cfg).rows[0].bound > 0
