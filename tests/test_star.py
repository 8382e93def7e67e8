"""Star assembly: exact low orders, the constant-coefficient oracle,
conjugation parity, associativity reports, and the center probe."""
import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant import graphs as graphs_mod
from starquant import weights as weights_mod
from starquant.errors import (ConfigError, DimensionMismatchError,
                              DomainError)
from starquant.formality import linfty_check
from starquant.graphs import parse, star_graphs
from starquant.operators import orbit_operators
from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField, validate_poisson
from starquant.rational import QI
from starquant.series import FormalSeries
from starquant.star import (PROBE, ResidualReport, ResidualRow,
                            StarConfig, check_associativity,
                            moyal_reference, poisson_center_probe, probe_sup,
                            star, star_expansion)
from starquant.weights import IntegrationConfig, WeightTable, exact_weight

from helpers import (broken_alpha, member_rows, random_linear_bivector,
                     random_polynomial, so3_alpha)

star_mod = importlib.import_module("starquant.star")  # star() shadows it

HALF_I = QI(0, Fraction(1, 2))


def first_order_term(f, g, alpha):
    out = Polynomial.zero(f.dim)
    for idx, comp in alpha.iter_full_components():
        out = out + comp * f.diff(idx[0]) * g.diff(idx[1])
    return out * HALF_I


def moyal_plane():
    return PolyVectorField(2, 1, {(0, 1): Polynomial.constant(2, 1)})


SMALL_BUDGET = IntegrationConfig(seed=42, n_samples=65536)


@pytest.fixture(scope="module")
def small_table():
    """One reduced-budget table shared by every numeric test in here: a
    sampled entry of its own for every star graph through order 2, so
    closed forms are sampled too."""
    return WeightTable().ensure(star_graphs(1) + star_graphs(2),
                                SMALL_BUDGET, use_exact=False)


def numeric_cfg(table, order=2):
    return StarConfig(order=order, table=table, integration=SMALL_BUDGET)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StarConfig(order=-1)
        with pytest.raises(ConfigError):
            StarConfig(policy=0.0)
        with pytest.raises(ConfigError):
            StarConfig(jacobi="ignore")

    @pytest.mark.parametrize("order", [1.5, 2.0, True, "2", None])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ConfigError, match="order must be an integer"):
            StarConfig(order=order)

    @pytest.mark.parametrize("policy", [float("inf"), 1e309, float("nan"),
                                        -1.0])
    def test_policy_must_be_positive_and_finite(self, policy):
        with pytest.raises(ConfigError, match="policy"):
            StarConfig(policy=policy)

    @pytest.mark.parametrize("policy", ["3", True, None, 3j])
    def test_policy_must_be_a_real_number(self, policy):
        with pytest.raises(ConfigError, match="policy must be a real number"):
            StarConfig(policy=policy)


class TestStarBasics:
    def test_zero_alpha_is_plain_product(self):
        f = Polynomial.monomial(2, (2, 1))
        g = Polynomial.monomial(2, (0, 1))
        s = star(f, g, PolyVectorField.zero(2, 1), StarConfig(order=2))
        assert s == FormalSeries.from_polynomial(f * g, 2)

    def test_order_zero_truncation(self):
        x = Polynomial.variable(3, 0)
        y = Polynomial.variable(3, 1)
        s = star(x, y, so3_alpha(), StarConfig(order=0))
        assert s == FormalSeries.from_polynomial(x * y, 0)

    def test_first_order_exact(self):
        import random
        rng = random.Random(5)
        alpha = so3_alpha()
        cfg = StarConfig(order=1)
        for _ in range(5):
            f = random_polynomial(rng, 3)
            g = random_polynomial(rng, 3)
            s = star(f, g, alpha, cfg)
            assert s.coefficient(0) == f * g
            assert s.coefficient(1) == first_order_term(f, g, alpha)

    def test_rejects_non_bivector(self):
        f = Polynomial.variable(3, 0)
        v = PolyVectorField(3, 0, {(0,): Polynomial.constant(3, 1)})
        with pytest.raises(DimensionMismatchError):
            star(f, f, v, StarConfig(order=1))

    @pytest.mark.parametrize("alpha", [PolyVectorField.zero(4096, 1),
                                       so3_alpha()], ids=["zero", "so3"])
    def test_rejects_arguments_off_the_bivector_space(self, alpha):
        """x1 + 1 on R^2 is refused by star_expansion and
        check_associativity, with a zero bivector too, before any weight
        is integrated."""
        f = Polynomial.variable(2, 0) + Polynomial.constant(2, 1)
        table = WeightTable()
        cfg = StarConfig(order=2, table=table,
                         integration=IntegrationConfig(seed=1, n_samples=64))
        with pytest.raises(DimensionMismatchError, match="R\\^2"):
            star_expansion(f, f, alpha, cfg)
        with pytest.raises(DimensionMismatchError, match="R\\^2"):
            check_associativity(f, f, f, alpha, cfg)
        assert len(table) == 0

    def test_jacobi_gate(self):
        f = Polynomial.variable(3, 0)
        g = Polynomial.variable(3, 1)
        bad = broken_alpha()
        with pytest.raises(DomainError):
            star(f, g, bad, StarConfig(order=1))
        cfg = StarConfig(order=1, jacobi="warn")
        with pytest.warns(UserWarning, match="jacobi"):
            s = star(f, g, bad, cfg)
        assert s.coefficient(1) == first_order_term(f, g, bad)

    @pytest.fixture
    def jacobi_calls(self, monkeypatch):
        """Bivectors passed to validate_poisson, with the star module's
        Jacobi memo empty at the start and cleared again at the end."""
        calls = []

        def counting(alpha):
            calls.append(alpha)
            return validate_poisson(alpha)

        monkeypatch.setattr(star_mod, "validate_poisson", counting)
        star_mod._jacobi_report.cache_clear()
        yield calls
        star_mod._jacobi_report.cache_clear()

    def test_jacobi_proved_once_per_bivector(self, jacobi_calls):
        """Two checks on equal but distinct so(3) objects prove the
        Jacobi identity once."""
        x = [Polynomial.variable(3, i) for i in range(3)]
        cfg = StarConfig(order=1)
        for _ in range(2):
            assert check_associativity(x[0], x[1], x[2], so3_alpha(), cfg).ok
        assert jacobi_calls == [so3_alpha()]

    def test_jacobi_gate_on_every_call(self, jacobi_calls):
        f = Polynomial.variable(3, 0)
        g = Polynomial.variable(3, 1)
        for _ in range(2):
            with pytest.raises(DomainError, match="jacobi"):
                star(f, g, broken_alpha(), StarConfig(order=1))
        cfg = StarConfig(order=1, jacobi="warn")
        for _ in range(2):
            with pytest.warns(UserWarning, match="jacobi"):
                star(f, g, broken_alpha(), cfg)
        assert len(jacobi_calls) == 1

    def test_expansion_bounds_shape(self, small_table):
        x = Polynomial.variable(3, 0)
        y = Polynomial.variable(3, 1)
        exp = star_expansion(x * x, y, so3_alpha(), numeric_cfg(small_table))
        assert len(exp.bounds) == 3
        assert exp.bounds[0] == 0.0
        assert exp.bounds[1] > 0.0
        assert exp.table is small_table


class TestTablePrecedence:
    """A row reads its graph's own table entry when the table has one,
    else its orbit representative's, closed form or sampled."""

    F, G = (Polynomial.variable(3, 0) * Polynomial.variable(3, 1)
            * Polynomial.variable(3, 2),
            Polynomial.variable(3, 0) ** 2 * Polynomial.variable(3, 1))

    def member(self):
        """An order-2 so(3) row (graph, serial, orbit, sign) with a
        nonzero closed form, other than its orbit's representative,
        whose orbit operator acts on (F, G)."""
        ops = orbit_operators((so3_alpha(),) * 2, 2)
        return next(row for row in member_rows((so3_alpha(),) * 2, 2)
                    if row[1] != row[2] and exact_weight(row[0])
                    and not ops.apply(row[2], (self.F, self.G)).is_zero())

    def test_own_sampled_entry_wins(self):
        g, ser, orbit, _ = self.member()
        table = WeightTable().ensure([g], IntegrationConfig(seed=3,
                                                            n_samples=256))
        own = table.lookup(ser)
        exp = star_expansion(self.F, self.G, so3_alpha(),
                             StarConfig(order=2, table=table))
        assert table.lookup(ser) is own and own.std_error > 0
        assert exp.bounds[:2] == (0.0, 0.0) and exp.bounds[2] > 0
        assert table.lookup(orbit).exact is not None

    def test_members_read_a_sampled_representative_entry(self):
        """A supplied sampled entry of a closed-form orbit's
        representative is read by each of the k members without an entry
        of its own: one source of k x its std_error, and no member gets
        an entry."""
        _, ser, orbit, _ = self.member()
        table = WeightTable().ensure([parse(orbit)], IntegrationConfig(
            seed=3, n_samples=256))
        sigma = table.lookup(orbit).std_error
        eng = star_mod._Engine(so3_alpha(), StarConfig(order=2, table=table))
        eng.ensure_weights()
        k = next(k for _, o, k in eng.families[2].orbits if o == orbit)
        assert k > 1 and sigma > 0
        assert eng.sources == [((2, orbit), k * sigma)]
        assert table.lookup(ser) is None

    def test_an_added_entry_replaces_the_kept_reads(self):
        """Reads kept for a table state are dropped when ensure adds an
        entry: a member that read its exact representative (bound 0)
        reads its own sampled entry once the table has one."""
        g, ser, orbit, _ = self.member()
        table = WeightTable()
        cfg = StarConfig(order=2, table=table)
        before = star_expansion(self.F, self.G, so3_alpha(), cfg)
        assert before.bounds == (0.0, 0.0, 0.0)
        assert table.lookup(orbit).exact is not None
        table.ensure([g], IntegrationConfig(seed=3, n_samples=256))
        assert table.lookup(ser).std_error > 0
        after = star_expansion(self.F, self.G, so3_alpha(), cfg)
        assert after.bounds[:2] == (0.0, 0.0) and after.bounds[2] > 0


class TestReadsPerTableState:
    """Weight reads are resolved once per state of the table's entries,
    from the graphs the table and the families hold."""

    @staticmethod
    def inputs():
        """so(3), six argument triples and one pair of linear bivectors
        with the coordinates, as in a verify run of six associativity
        checks and one coherence check."""
        rng = random.Random(707)
        x = [Polynomial.variable(3, i) for i in range(3)]
        triples = [tuple(x)] + [tuple(random_polynomial(rng, 3)
                                      for _ in range(3)) for _ in range(5)]
        rng = random.Random(909)
        fields = [random_linear_bivector(rng), random_linear_bivector(rng)]
        return triples, fields, x

    @staticmethod
    def verify(triples, fields, args, cfg):
        """The reports, as JSON, of six associativity checks and one
        coherence check, each on cfg() (called once per check)."""
        reports = [check_associativity(f, g, h, so3_alpha(), cfg())
                   for f, g, h in triples]
        reports.append(linfty_check(fields, args, cfg()))
        return [rep.to_json_obj() for rep in reports]

    def test_each_distinct_read_is_computed_once(self, small_table,
                                                 monkeypatch):
        """Six associativity checks and one coherence check on one table
        that holds every graph's own entry compute each distinct read,
        and the engine's orbit sums, once, and report what checks on
        tables of their own report."""
        triples, fields, args = self.inputs()

        def own_table():
            return numeric_cfg(WeightTable.from_json_obj(
                small_table.to_json_obj()))

        alone = self.verify(triples, fields, args, own_table)
        reads, sums = [], []
        read, summed = star_mod._read_weights, star_mod._orbit_weights

        def reading(families, cfg, table):
            reads.append(star_mod._family_key(families))
            return read(families, cfg, table)

        def summing(rows):
            sums.append(rows)
            return summed(rows)

        monkeypatch.setattr(star_mod, "_read_weights", reading)
        monkeypatch.setattr(star_mod, "_orbit_weights", summing)
        cfg = own_table()
        entries = len(cfg.table)
        shared = self.verify(triples, fields, args, lambda: cfg)
        assert len(cfg.table) == entries
        assert len(reads) >= 2 and len(set(reads)) == len(reads)
        assert len(sums) == 1
        assert shared == alone

    def test_cold_order3_product_parses_nothing(self, monkeypatch):
        """A cold order-3 product fills its table from the families'
        KGraphs and reads it from the table's own."""
        def refuse(text):
            raise AssertionError(f"parse({text!r}) on the read path")

        for mod in (graphs_mod, weights_mod, star_mod):
            if hasattr(mod, "parse"):
                monkeypatch.setattr(mod, "parse", refuse)
        x = [Polynomial.variable(3, i) for i in range(3)]
        table = WeightTable()
        exp = star_expansion(x[0] * x[1] * x[2], x[0] * x[0] * x[1],
                             so3_alpha(), StarConfig(order=3, table=table))
        assert len(table) == 17
        assert exp.bounds == (0.0,) * 4


class TestMoyal:
    def test_frozen_square_pair(self):
        f = Polynomial.monomial(2, (2, 0))
        g = Polynomial.monomial(2, (0, 2))
        m = moyal_reference(f, g, moyal_plane(), 2)
        assert m.coefficient(0) == f * g
        assert m.coefficient(1) == Polynomial.monomial(2, (1, 1), QI(0, 2))
        assert m.coefficient(2) == Polynomial.constant(2, QI(Fraction(-1, 2)))

    def test_linear_pair(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        m = moyal_reference(x, y, moyal_plane(), 2)
        assert m.coefficient(0) == x * y
        assert m.coefficient(1) == Polynomial.constant(2, HALF_I)
        assert m.coefficient(2).is_zero()

    def test_equal_arguments_kill_first_order(self):
        f = Polynomial.monomial(2, (1, 2))
        m = moyal_reference(f, f, moyal_plane(), 1)
        assert m.coefficient(1).is_zero()

    def test_rejects_non_constant(self):
        with pytest.raises(ConfigError):
            moyal_reference(Polynomial.variable(3, 0),
                            Polynomial.variable(3, 1), so3_alpha(), 1)

    @pytest.mark.parametrize("exps_f,exps_g", [((2, 1), (1, 2)), ((3, 0), (1, 1))])
    def test_star_matches_termwise(self, exps_f, exps_g):
        f = Polynomial.monomial(2, exps_f)
        g = Polynomial.monomial(2, exps_g)
        a = moyal_plane()
        want = moyal_reference(f, g, a, 3)
        # derivative graphs vanish symbolically, so nothing is sampled
        cfg = StarConfig(order=3, table=WeightTable())
        exp = star_expansion(f, g, a, cfg)
        assert exp.series == want
        assert exp.bounds == (0.0,) * 4
        assert all(est.exact is not None for _, est in cfg.table)


class TestConjugationParity:
    def test_exact_first_order(self):
        import random
        rng = random.Random(9)
        alpha = so3_alpha()
        cfg = StarConfig(order=1)
        for _ in range(5):
            f = random_polynomial(rng, 3)
            g = random_polynomial(rng, 3)
            assert star(f, g, alpha, cfg).parameter_flip() \
                == star(g, f, alpha, cfg)

    def test_numeric_second_order(self, small_table):
        x = Polynomial.variable(3, 0)
        y = Polynomial.variable(3, 1)
        cfg = numeric_cfg(small_table)
        a = star_expansion(x * x, y, so3_alpha(), cfg)
        b = star_expansion(y, x * x, so3_alpha(), cfg)
        resid = a.series.parameter_flip() - b.series
        for k in range(3):
            allow = cfg.policy * (a.bounds[k] + b.bounds[k])
            assert resid.coefficient(k).max_abs_coeff() <= allow


class TestAssociativity:
    def test_exact_first_order(self):
        x = [Polynomial.variable(3, i) for i in range(3)]
        rep = check_associativity(x[0] * x[0], x[1], x[2], so3_alpha(),
                                  StarConfig(order=1))
        assert rep.ok
        assert all(r.bound == 0.0 and r.residual_max == 0.0 for r in rep.rows)

    def test_exact_moyal_third_order(self):
        f = Polynomial.monomial(2, (2, 0))
        g = Polynomial.monomial(2, (1, 1))
        h = Polynomial.monomial(2, (0, 2))
        rep = check_associativity(f, g, h, moyal_plane(),
                                  StarConfig(order=3))
        assert rep.ok
        assert all(r.residual_max == 0.0 and r.bound == 0.0
                   for r in rep.rows)

    def test_numeric_so3(self, small_table):
        x = [Polynomial.variable(3, i) for i in range(3)]
        cfg = numeric_cfg(small_table)
        rep = check_associativity(x[0] * x[0], x[1], x[2], so3_alpha(), cfg)
        assert rep.ok
        assert rep.rows[2].bound > 0.0

    def test_report_shape(self, small_table):
        x = [Polynomial.variable(3, i) for i in range(3)]
        rep = check_associativity(x[0], x[1], x[2], so3_alpha(),
                                  numeric_cfg(small_table))
        assert "associativity" in rep.summary()
        obj = rep.to_json_obj()
        assert obj["ok"] is True and len(obj["powers"]) == 3
        assert {"power", "residual_max", "bound", "passed", "residual"} \
            <= set(obj["powers"][0])


class TestResidualSummary:
    @staticmethod
    def report(*rows):
        return ResidualReport("associativity", 3.0, tuple(
            ResidualRow(k, Polynomial.zero(3), m, b, m <= 3.0 * b)
            for k, m, b in rows))

    def test_names_the_failing_row(self):
        """The passing hbar^3 row has the larger residual; the failing
        hbar^2 row is the one named."""
        rep = self.report((2, 0.003, 0.0), (3, 0.1, 0.05))
        assert not rep.ok
        assert rep.summary() == ("associativity: FAIL at policy 3 (worst "
                                 "power 2: residual 0.003 vs bound 0)")

    def test_passing_report_names_the_largest_residual(self):
        rep = self.report((2, 0.003, 0.01), (3, 0.1, 0.05))
        assert rep.ok
        assert "worst power 3: residual 0.1 vs bound 0.05" in rep.summary()


class TestCenterProbe:
    def test_casimir_is_central(self, small_table):
        x = [Polynomial.variable(3, i) for i in range(3)]
        casimir = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
        rep = poisson_center_probe(casimir, x[0], so3_alpha(),
                                   numeric_cfg(small_table))
        assert rep.ok and rep.central
        assert all(p.is_zero() for p in rep.gradient)
        # commutator with a central element starts at hbar^2
        assert rep.commutator.coefficient(0).is_zero()
        assert rep.commutator.coefficient(1).is_zero()
        obj = rep.to_json_obj()
        assert obj["central"] is True and len(obj["gradient"]) == 3

    def test_coordinate_is_not_central(self, small_table):
        x = [Polynomial.variable(3, i) for i in range(3)]
        rep = poisson_center_probe(x[0], x[1], so3_alpha(),
                                   numeric_cfg(small_table))
        assert not rep.ok
        assert rep.gradient[0].is_zero()
        assert rep.gradient[1] == Polynomial.monomial(3, (0, 0, 1), -1)
        assert rep.gradient[2] == Polynomial.monomial(3, (0, 1, 0))
        assert "NOT central" in rep.summary()

    def test_zero_alpha_commutes(self):
        f = Polynomial.monomial(2, (2, 1))
        g = Polynomial.monomial(2, (1, 1))
        rep = poisson_center_probe(f, g, PolyVectorField.zero(2, 1),
                                   StarConfig(order=2))
        assert rep.central and rep.commutator.is_zero()
        assert rep.bounds == (0.0, 0.0, 0.0)


class TestProbeSup:
    def test_known_polynomial(self):
        p = Polynomial.monomial(2, (2, 0)) \
            + Polynomial.monomial(2, (1, 1), -2)
        assert probe_sup(p) == 3.0

    def test_zero(self):
        assert probe_sup(Polynomial.zero(3)) == 0.0

    def test_modulus_of_complex_coefficients(self):
        p = Polynomial.constant(2, QI(3, 4))
        assert probe_sup(p) == 5.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pointwise_exact_evaluation(self, data):
        """The class-folded sup equals the max of |p| evaluated exactly
        at each lattice point, bit for bit, for rational coefficients
        and for float-derived dyadic ones as sampled weights give."""
        dim = data.draw(st.integers(1, 4))
        big = st.integers(-10**12, 10**12)
        den = st.integers(1, 10**15)
        real = st.floats(-1e6, 1e6, allow_nan=False)
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 6)] * dim),
            st.one_of(
                st.builds(lambda a, b, c, d: QI(Fraction(a, b),
                                                Fraction(c, d)),
                          big, den, big, den),
                st.builds(QI, real, st.one_of(st.just(0.0), real))),
            max_size=12))
        p = Polynomial(dim, terms)
        want = max((abs(p.eval_exact(pt))
                    for pt in itertools.product(PROBE, repeat=dim)),
                   default=0.0)
        assert probe_sup(p).hex() == want.hex()
