"""Weight integrator: determinant kernels, calibration weights,
moving-ground integrals, tables, determinism, and the sampling guard."""
import itertools
import json
import math
import random
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import dense_integrand, dphi, per_replicate_integral
from scipy.stats import qmc

from starquant import integrand, weights
from starquant.errors import (ConfigError, ConvergenceWarning,
                              DegreeMismatchError, ParseError,
                              SamplingError)
from starquant.graphs import (KGraph, orbit_representative, parse,
                              serialize, star_graphs)
from starquant.integrand import (MAX_DIMS, _BLOCK_ROWS, _direction_bits,
                                 _draws, sampled_dims)
from starquant.weights import (TWO_PI, IntegrationConfig, WeightEstimate,
                               WeightTable, _collapsing_set, default_budget,
                               exact_weight, i_p_integral, i_p_rational,
                               integrate_graph_form, stable_seed, weight)

ORDER1 = parse("n=1;m=2;1:[L,R]")
ORDER1_M = parse("n=1;m=2;1:[R,L]")
# two order-2 graphs with 4 sampled dimensions
WHEEL = parse("n=2;m=2;1:[2,L];2:[1,R]")
MOYAL2 = parse("n=2;m=2;1:[L,R];2:[L,R]")


def plan_values(graph, u):
    """Integrand values of unit-cube samples u from one integrand plan;
    NaN marks guarded rows."""
    plan = integrand._Plan(graph, max(1, min(len(u), _BLOCK_ROWS)))
    return plan(u, np.empty(len(u)))


def sampled_integral(graph, cfg):
    """integrate_graph_form's sampler called directly, as integrate gives
    a graph with 2 sampled dimensions the deterministic rule."""
    return integrand._sample(graph, cfg.method, cfg.n_samples, cfg.seed)


def sobol_points(dims, seeds, n):
    """The qmc points of _draws, written in chunks of _BLOCK_ROWS rows
    into one buffer of columns laid out (dims, seeds, rows) as in
    integrate_graph_form; returned as shape (len(seeds), n, dims)."""
    fill = _draws("qmc", dims, seeds, n)
    cols = np.empty((dims, len(seeds), n))
    for c in range(0, n, _BLOCK_ROWS):
        fill(0, c, cols[..., c:c + _BLOCK_ROWS])
    return cols.transpose(1, 2, 0)


class TestStableSeed:
    def test_deterministic_and_distinct(self):
        a = stable_seed(1, "x")
        assert a == stable_seed(1, "x")
        assert a != stable_seed(1, "y")
        assert a != stable_seed(2, "x")
        assert 0 <= a < 2 ** 64

    def test_concatenation_ambiguity_avoided(self):
        assert stable_seed("ab", "c") != stable_seed("a", "bc")


class TestDetKernels:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_lapack(self, k):
        """The plans' Laplace expansion, evaluated over numpy arrays."""
        rng = np.random.default_rng(100 + k)
        m = rng.normal(size=(257, k, k))
        got = integrand._laplace(lambda i, j: m[:, i, j], k)
        want = np.linalg.det(m)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(method="bogus")
        with pytest.raises(ConfigError):
            IntegrationConfig(n_samples=0)
        with pytest.raises(ConfigError):
            IntegrationConfig(error_target=0.0)

    def test_cubature_is_not_a_config_method(self):
        """An estimate can record the deterministic rule, but nobody asks
        for it: integrate picks it by the sampled dimension count."""
        with pytest.raises(ConfigError, match="unknown method"):
            IntegrationConfig(method="cubature")

    @pytest.mark.parametrize("field,bad", [
        ("n_samples", 2.5), ("n_samples", True), ("n_samples", "64"),
        ("seed", 1.5), ("seed", True), ("seed", "1")])
    def test_counts_and_seeds_are_integers(self, field, bad):
        """A float budget is not rounded, and a float seed would make
        an estimate its own table loader refuses."""
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            IntegrationConfig(**{field: bad})

    @pytest.mark.parametrize("bad", ["1", True, 1j])
    def test_error_target_is_a_real_number(self, bad):
        with pytest.raises(ConfigError,
                           match="error_target must be a real number"):
            IntegrationConfig(error_target=bad)

    def test_budgets(self):
        assert default_budget(2) == 1048576
        assert default_budget(3) == 2097152
        assert default_budget(4) == 4194304
        assert default_budget(9) == 1048576


@pytest.mark.usefixtures("sampler_only")
class TestWeightCalibration:
    """The sampler's order-1 calibration (its 2 dimensions otherwise go
    to the deterministic rule, which TestCubature checks)."""

    def test_order1_half(self):
        w = weight(ORDER1, IntegrationConfig(seed=42))
        assert abs(w.value - 0.5) <= 3 * w.std_error
        assert w.std_error <= 1e-3
        assert w.exact is None and w.method == "qmc"

    def test_order1_mirror_sign(self):
        cfg = IntegrationConfig(seed=42)
        w = weight(ORDER1, cfg)
        m = weight(ORDER1_M, cfg)
        comb = math.hypot(w.std_error, m.std_error)
        assert abs(m.value + 0.5) <= 3 * m.std_error
        assert abs(w.value + m.value) <= 3 * comb

    def test_disjoint_seeds_agree(self):
        a = weight(ORDER1, IntegrationConfig(seed=101))
        b = weight(ORDER1, IntegrationConfig(seed=202))
        comb = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3 * comb

    def test_rerun_bit_identical(self):
        cfg = IntegrationConfig(seed=9, n_samples=65536)
        a = weight(ORDER1, cfg)
        b = weight(ORDER1, cfg)
        assert a == b

    def test_plain_mc_route(self):
        cfg = IntegrationConfig(method="mc", seed=5, n_samples=262144)
        w = weight(ORDER1, cfg)
        assert w.method == "mc"
        assert abs(w.value - 0.5) <= 5 * w.std_error

    def test_error_target_warning(self):
        cfg = IntegrationConfig(seed=1, n_samples=4096, error_target=1e-9)
        with pytest.warns(ConvergenceWarning):
            weight(ORDER1, cfg)


class TestShortCircuits:
    def test_order0_exact_one(self):
        w = weight(KGraph(0, 2, ()), IntegrationConfig())
        assert w.value == 1.0 and w.exact == Fraction(1)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            weight(parse("n=1;m=2;1:[L]"), IntegrationConfig())
        with pytest.raises(DegreeMismatchError):
            weight(parse("n=1;m=3;1:[G0,G1]"), IntegrationConfig())
        with pytest.raises(DegreeMismatchError):
            weight(KGraph(1, 1, ((1,),)), IntegrationConfig())

    def test_raw_integral_validations(self):
        with pytest.raises(DegreeMismatchError):
            integrate_graph_form(KGraph(1, 1, ((1,),)), IntegrationConfig())
        v, se, n = integrate_graph_form(KGraph(0, 2, ()), IntegrationConfig())
        assert (v, se, n) == (1.0, 0.0, 0)


class TestExactWeights:
    def test_small_cases(self):
        assert exact_weight(KGraph(0, 2, ())) == 1
        assert exact_weight(ORDER1) == Fraction(1, 2)
        assert exact_weight(ORDER1_M) == Fraction(-1, 2)

    def test_derivative_free_products(self):
        assert exact_weight(parse("n=2;m=2;1:[L,R];2:[L,R]")) == Fraction(1, 8)
        assert exact_weight(parse("n=2;m=2;1:[L,R];2:[R,L]")) == Fraction(-1, 8)
        assert exact_weight(parse("n=2;m=2;1:[R,L];2:[R,L]")) == Fraction(1, 8)
        assert exact_weight(
            parse("n=3;m=2;1:[L,R];2:[L,R];3:[R,L]")) == Fraction(-1, 48)

    def test_unknown_cases_are_none(self):
        assert exact_weight(parse("n=3;m=2;1:[2,3];2:[1,3];3:[L,R]")) is None
        assert exact_weight(parse("n=2;m=3;1:[2,G1];2:[G2,G1,G0]")) is None


def lemma_graphs(order):
    """Star graphs the vanishing lemma sets to 0 (star graphs have no
    doubled edge).  exact_weight gives 0 for more: solved weights can
    integrate to 0 without a pointwise zero integrand."""
    return [g for g in star_graphs(order) if _collapsing_set(g)]


class TestVanishingLemma:
    """A set S of aerial vertices whose out-edges all land in S plus at
    most one ground has a zero weight."""

    @pytest.mark.parametrize("order,graphs,orbits", [
        (1, 0, 0), (2, 8, 2), (3, 568, 17)])
    def test_counts(self, order, graphs, orbits):
        found = lemma_graphs(order)
        assert len(found) == graphs
        assert len({orbit_representative(g)[0] for g in found}) == orbits

    def test_cases(self):
        for text in ("n=2;m=2;1:[2,L];2:[1,L]",        # S = {1, 2} and L
                     "n=3;m=2;1:[2,3];2:[3,1];3:[1,2]",  # S = {1, 2, 3}
                     "n=3;m=2;1:[2,3];2:[3,R];3:[2,R]"):  # S = {2, 3} and R
            assert exact_weight(parse(text)) == 0, text
        for text in ("n=3;m=2;1:[2,3];2:[1,3];3:[L,R]",  # two grounds
                     "n=3;m=2;1:[2,L];2:[3,L];3:[1,R]"):
            assert exact_weight(parse(text)) is None, text

    @pytest.mark.parametrize("order", [2, 3])
    def test_orbits_integrate_to_zero(self, order):
        """One member of each lemma orbit, sampled at 4096 points by
        integrate_graph_form (weight() states the zero instead): the
        integrand vanishes pointwise up to rounding.  The bounds are in
        weight units, the raw integral over (2pi)^E n!."""
        reps = {orbit_representative(g)[0] for g in lemma_graphs(order)}
        for rep in sorted(reps, key=serialize):
            raw, raw_se, n_used = integrate_graph_form(
                rep, IntegrationConfig(seed=1, n_samples=4096))
            norm = TWO_PI ** rep.edge_count * math.factorial(rep.n)
            assert n_used == 4096, serialize(rep)
            assert abs(raw / norm) <= 1e-12, serialize(rep)
            assert raw_se / norm <= 1e-12, serialize(rep)

    def test_weight_is_exact_zero_without_integrating(self, monkeypatch):
        """weight() gives every order-2 and order-3 lemma graph an exact
        0 with no samples, recording the configured method and seed."""
        def no_integral(*args, **kwargs):
            raise AssertionError("integrated a lemma graph")

        monkeypatch.setattr(weights, "integrate_graph_form", no_integral)
        cfg = IntegrationConfig(method="mc", seed=4)
        found = lemma_graphs(2) + lemma_graphs(3)
        assert len(found) == 576
        for g in found:
            est = weight(g, cfg)
            assert (est.value, est.std_error, est.n_samples, est.seed,
                    est.method, est.exact) == (0.0, 0.0, 0, 4, "mc", 0), \
                serialize(g)


class TestMovingGround:
    def test_i1_closed_form(self):
        est = i_p_integral(1, IntegrationConfig(seed=3))
        want = -(2 * math.pi) ** 2 / 2
        assert abs(est.value - want) <= 3 * est.std_error
        assert est.std_error / abs(want) <= 1e-2

    def test_i2_closed_form(self):
        est = i_p_integral(2, IntegrationConfig(seed=3))
        want = (2 * math.pi) ** 3 / 6
        assert abs(est.value - want) <= 3 * est.std_error
        assert est.std_error / abs(want) <= 1e-2

    def test_p0_rejected(self):
        with pytest.raises(DegreeMismatchError):
            i_p_integral(0, IntegrationConfig())

    def test_weight_normalises_three_grounds(self):
        """weight() divides the raw integral by (2pi)^E n!, E = 3 edges
        and n = 1, at any ground count; I_2's weight is 1/6."""
        graph = parse("n=1;m=3;1:[G2,G1,G0]")
        cfg = IntegrationConfig(seed=3, n_samples=65536)
        raw, raw_se, n_used = integrate_graph_form(graph, cfg)
        norm = (2 * math.pi) ** 3 * math.factorial(1)
        w = weight(graph, cfg)
        assert (w.value, w.std_error, w.n_samples) == (
            raw / norm, raw_se / norm, n_used)
        assert abs(w.value - 1 / 6) <= 4 * w.std_error

    @pytest.mark.parametrize("p", [2, 3])
    def test_permuted_i_p_weights(self, p):
        """Every target order of I_p: exact_weight is sgn(pi) times
        i_p_rational(p), pi sorting the targets into descending position,
        within 4 sigma of the sampled weight."""
        for targets in itertools.permutations(range(1, p + 2)):
            graph = KGraph(1, p + 1, (targets,))
            want = exact_weight(graph)
            assert abs(want) == abs(i_p_rational(p))
            est = weight(graph, IntegrationConfig(seed=3, n_samples=65536))
            assert abs(est.value - want) <= 4 * est.std_error, targets

    def test_rational_prefactors(self):
        assert i_p_rational(0) == 1
        assert i_p_rational(1) == Fraction(-1, 2)
        assert i_p_rational(2) == Fraction(1, 6)
        assert i_p_rational(3) == Fraction(-1, 24)


class TestSobolBlock:
    """_draws reproduces scipy's LMS+shift scrambled Sobol' points bit
    for bit, chunks concatenated; a scipy release that changes its
    scrambling fails here.  n = 8193 takes a second chunk for every
    seed."""

    SEEDS = (0, 12345, 2 ** 63, 2 ** 64 - 1, stable_seed(7, "rep", 3))

    @pytest.mark.parametrize("dims", [2, 3, 4, 5, 6, 7, 8, 9, MAX_DIMS])
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 128, 3125, 4096, 8193])
    def test_matches_scipy(self, dims, n):
        self.check(dims, self.SEEDS, n)

    def test_order3_block(self):
        """The block of an order-3 star integral without a source vertex
        at 4096 samples: all replicate seeds, 128 rows each, 6 dims."""
        seeds = [stable_seed(7, "rep", r)
                 for r in range(integrand.N_REPLICATES)]
        self.check(6, seeds, 4096 // integrand.N_REPLICATES)

    @pytest.mark.parametrize("dims", [1, 4, 6])
    @pytest.mark.parametrize("n", [_BLOCK_ROWS + 1, 3 * _BLOCK_ROWS,
                                   5 * _BLOCK_ROWS + 77, 2 ** 17])
    def test_chunks_match_the_whole_block(self, dims, n):
        """A replicate longer than _BLOCK_ROWS, drawn chunk by chunk into
        the columns of one workspace (rows strided like a plan's ut), equals
        scipy's points bit for bit; k = 14, 15, 16 and 17 bits.  Each chunk
        is copied before the next overwrites it."""
        seed = stable_seed(5, "rep", 2)
        fill = _draws("qmc", dims, [seed], n)
        work = np.empty((dims, _BLOCK_ROWS + 3))
        chunks = []
        for c in range(0, n, _BLOCK_ROWS):
            size = min(n - c, _BLOCK_ROWS)
            cols = work[:, :size].reshape(dims, 1, size)
            assert np.shares_memory(cols, work)
            fill(0, c, cols)
            chunks.append(work[:, :size].T.copy())
        assert np.array_equal(np.concatenate(chunks),
                              self.scipy(dims, [seed], n)[0])

    @pytest.mark.parametrize("dims,n", [(1, 5), (2, 3125), (3, 8193),
                                        (5, 4096), (6, 3 * _BLOCK_ROWS)])
    def test_any_split_matches_scipy(self, dims, n):
        """Runs of points whose start or stop is off a multiple of 2^lo:
        parts of one high row, alone or around whole rows, drawn for a
        subset of the seeds, equal scipy's points."""
        k = (n - 1).bit_length()
        nl = 1 << (k - k // 2)                  # rows of the low table
        cuts = sorted({0, n} | {c for c in (1, 3, nl + 1, 2 * nl + 1)
                                if c < n})
        fill = _draws("qmc", dims, self.SEEDS, n)
        cols = np.empty((dims, len(self.SEEDS) - 1, n))
        for p, q in zip(cuts, cuts[1:]):
            fill(1, p, cols[..., p:q])
        assert np.array_equal(cols.transpose(1, 2, 0),
                              self.scipy(dims, self.SEEDS, n)[1:])

    def test_direction_table_matches_scipy(self):
        """Every row of the Joe-Kuo table: all 30 unscrambled direction
        numbers of all MAX_DIMS dimensions, against scipy's own."""
        sv = qmc.Sobol(d=MAX_DIMS, scramble=False)._sv.astype(np.int64)
        want = (sv[:, None, :] >> np.arange(29, -1, -1)[:, None]) & 1
        assert np.array_equal(_direction_bits(MAX_DIMS, 30), want)

    def test_dimension_cap(self):
        with pytest.raises(ConfigError, match=f"at most {MAX_DIMS}"):
            sobol_points(MAX_DIMS + 1, [0], 4)

    def test_point_cap(self):
        """Direction numbers have 30 bits: a 31st column would be zero
        and repeat points, so k = 31 is refused before any allocation."""
        assert _direction_bits(2, 30).shape == (2, 30, 30)
        with pytest.raises(ConfigError, match="2\\^30 points"):
            _direction_bits(2, 31)

    @staticmethod
    def scipy(dims, seeds, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.stack([
                qmc.Sobol(d=dims, scramble=True, seed=s).random(n)
                for s in seeds])

    def check(self, dims, seeds, n):
        want = self.scipy(dims, seeds, n)
        got = sobol_points(dims, seeds, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_integers_are_top_bits_of_raw_pcg64_halves(self, seed):
        """scipy draws its scrambling bits with default_rng(s).integers(0,
        2, size, np.uint32); _scramble reads them as the top bit of each
        32-bit half of PCG64(s).random_raw words, low half first.  A numpy
        release that draws bounded integers differently fails here."""
        size = 9 * 30 * 31
        want = np.random.default_rng(seed).integers(0, 2, size, np.uint32)
        raw = np.random.PCG64(seed).random_raw(size // 2)
        halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        assert np.array_equal(halves >> 31, want)


class TestBlockedReplicates:
    """The sampler draws and evaluates replicates in blocks; the
    per-replicate loop in helpers is the reference, exactly."""

    GRAPHS = ["n=1;m=2;1:[L,R]", "n=2;m=2;1:[2,L];2:[1,R]",
              "n=3;m=2;1:[2,L];2:[3,R];3:[L,R]", "n=1;m=3;1:[G2,G1,G0]",
              "n=1;m=4;1:[G3,G2,G1,G0]"]

    @pytest.mark.parametrize("method", ["qmc", "mc"])
    @pytest.mark.parametrize("text", GRAPHS)
    def test_graphs(self, text, method):
        cfg = IntegrationConfig(method=method, seed=11, n_samples=4096)
        graph = parse(text)
        assert (sampled_integral(graph, cfg)
                == per_replicate_integral(graph, cfg))

    @pytest.mark.parametrize("method", ["qmc", "mc"])
    @pytest.mark.parametrize("n_samples", [
        1, 31, 1000, 32 * (_BLOCK_ROWS - 1), 32 * _BLOCK_ROWS,
        32 * (2 * _BLOCK_ROWS + 5)])
    @pytest.mark.parametrize("text", ["n=1;m=2;1:[L,R]",
                                      "n=1;m=3;1:[G2,G1,G0]"])
    def test_rows_per_replicate(self, text, n_samples, method):
        cfg = IntegrationConfig(method=method, seed=8, n_samples=n_samples)
        graph = parse(text)
        assert (sampled_integral(graph, cfg)
                == per_replicate_integral(graph, cfg))

    @pytest.mark.parametrize("n_samples", [2 ** 17,
                                           32 * (2 * _BLOCK_ROWS + 5)])
    def test_one_scramble_per_integral(self, monkeypatch, n_samples):
        """Every replicate's Sobol' points come from one _scramble of all
        the seeds, whether the replicates go in groups (2^17 samples: 16
        groups of 2) or one at a time in chunks (2 _BLOCK_ROWS + 5 rows
        each)."""
        calls = []
        scramble = integrand._scramble

        def spy(dims, seeds, k):
            calls.append(len(seeds))
            return scramble(dims, seeds, k)

        monkeypatch.setattr(integrand, "_scramble", spy)
        integrate_graph_form(parse("n=2;m=2;1:[2,L];2:[1,R]"),
                             IntegrationConfig(seed=6, n_samples=n_samples))
        assert calls == [integrand.N_REPLICATES]

    @pytest.mark.parametrize("method", ["qmc", "mc"])
    def test_columns_match_rows(self, monkeypatch, method):
        """The column path (_draws into a plan's ut, then _block) and
        _Plan.__call__ on the same points as rows give bit-equal floats,
        guarded rows included."""
        monkeypatch.setattr(integrand, "_GUARD", 0.05)
        graph = parse("n=3;m=2;1:[2,L];2:[3,R];3:[L,R]")
        dims, n, per_rep = sampled_dims(graph), 4, 300
        seeds = [stable_seed(3, "rep", r) for r in range(n)]
        plan = integrand._Plan(graph, n * per_rep)
        cols = plan.ut[:, :n * per_rep].reshape(dims, n, per_rep)
        _draws(method, dims, seeds, per_rep)(0, 0, cols)
        rows = cols.transpose(1, 2, 0).reshape(-1, dims).copy()
        got = np.empty(n * per_rep)
        plan._block(got)
        want = plan(rows, np.empty(n * per_rep))
        assert 0 < np.isnan(want).sum() < len(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_memory_holds_one_replicate_of_values(self):
        """Past _BLOCK_ROWS rows per replicate the points are drawn chunk
        by chunk: going from 2^14 to 2^16 rows per replicate raises the
        traced peak by less than 1.5 x the 8 bytes per added row of the
        values buffer; a replicate's points, float64 plus their uint32
        bits, would add 12 bytes per row and dimension."""
        graph = parse("n=2;m=2;1:[2,L];2:[1,R]")        # 4 sampled dims
        peaks = []
        for rows in (2 ** 14, 2 ** 16):
            cfg = IntegrationConfig(seed=2, n_samples=32 * rows)
            tracemalloc.start()
            try:
                integrate_graph_form(graph, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1.5 * 8 * (2 ** 16 - 2 ** 14)

    @pytest.fixture
    def rejected(self, monkeypatch):
        """Guarded-row count of each replicate passed to _redraw."""
        counts = []
        redraw = integrand._redraw

        def spy(plan, vals, seed):
            counts.append(int(np.isnan(vals).sum()))
            return redraw(plan, vals, seed)

        monkeypatch.setattr(integrand, "_redraw", spy)
        return counts

    @pytest.mark.parametrize("method", ["qmc", "mc"])
    @pytest.mark.parametrize("text", ["n=1;m=2;1:[L,R]",
                                      "n=2;m=2;1:[2,L];2:[L,R]",
                                      "n=1;m=3;1:[G2,G1,G0]"])
    def test_guard_redraws(self, monkeypatch, rejected, text, method):
        monkeypatch.setattr(integrand, "_GUARD", 0.5)
        cfg = IntegrationConfig(method=method, seed=4, n_samples=8192)
        graph = parse(text)
        got = sampled_integral(graph, cfg)
        assert len(rejected) == integrand.N_REPLICATES and min(rejected) > 0
        assert got == per_replicate_integral(graph, cfg)

    @pytest.mark.parametrize("method", ["qmc", "mc"])
    @pytest.mark.parametrize("guard,every", [(0.5, True), (0.05, False)])
    def test_guard_redraws_order3(self, monkeypatch, rejected, guard, every,
                                  method):
        """An order-3 star integral at 4096 samples (one source, 4 sampled
        dims), with guarded rows in every replicate or in only some."""
        monkeypatch.setattr(integrand, "_GUARD", guard)
        cfg = IntegrationConfig(method=method, seed=4, n_samples=4096)
        graph = parse("n=3;m=2;1:[2,L];2:[3,R];3:[L,R]")
        got = integrate_graph_form(graph, cfg)
        assert min(rejected) > 0
        if every:
            assert len(rejected) == integrand.N_REPLICATES
        else:
            assert 0 < len(rejected) < integrand.N_REPLICATES
        assert got == per_replicate_integral(graph, cfg)

    @pytest.mark.parametrize("method", ["qmc", "mc"])
    def test_guard_redraws_reuse_the_plan(self, monkeypatch, method):
        """Redraws go through the integral's own plan: with guarded rows
        in every replicate (test_guard_redraws), one integral builds
        exactly one _Plan."""
        monkeypatch.setattr(integrand, "_GUARD", 0.5)
        built = []
        init = integrand._Plan.__init__

        def spy(plan, *args):
            built.append(args)
            init(plan, *args)

        monkeypatch.setattr(integrand._Plan, "__init__", spy)
        sampled_integral(parse("n=2;m=2;1:[2,L];2:[L,R]"),
                         IntegrationConfig(method=method, seed=4,
                                           n_samples=8192))
        assert len(built) == 1


class TestGuard:
    def test_coincidence_marked(self):
        # a graph without a source vertex samples both aerial points
        g = parse("n=2;m=2;1:[2,L];2:[1,R]")
        # identical aerial points in the first two sample rows
        u = np.full((3, 4), 0.3)
        u[2] = (0.2, 0.4, 0.6, 0.8)
        vals = plan_values(g, u)
        assert np.isnan(vals[0]) and np.isnan(vals[1])
        assert np.isfinite(vals[2])

    def test_boundary_sample_marked(self):
        u = np.array([[0.5, 0.0], [0.5, 0.5]])
        vals = plan_values(ORDER1, u)
        assert np.isnan(vals[0]) and np.isfinite(vals[1])

    RADIUS = 1e-3           # _GUARD in test_threshold

    @staticmethod
    def unit(z):
        """The unit-square sample (s, t) the plan maps to z."""
        return (math.atan(z.real) / math.pi + 0.5,
                z.imag / (1.0 + z.imag))

    @pytest.mark.parametrize("case", ["aerial", "mirror", "fixed ground",
                                      "moving ground"])
    def test_threshold(self, monkeypatch, case):
        """A distance of 0.5 _GUARD is rejected and one of 2 _GUARD is
        not, with _GUARD read when the block runs."""
        monkeypatch.setattr(integrand, "_GUARD", self.RADIUS)
        rows, dists = [], []
        for d in (0.5 * self.RADIUS, 2 * self.RADIUS):
            if case == "aerial":
                graph, z = (parse("n=2;m=2;1:[2,L];2:[1,R]"),
                            (0.5 + 1j, 0.5 + d + 1j))
                dists.append(abs(z[0] - z[1]))
            elif case == "mirror":      # |z_1 - z_2| = 0.8 |z_1 - zbar_2|
                graph, z = (parse("n=2;m=2;1:[2,L];2:[1,R]"),
                            (0.5 + 0.9j * d, 0.5 + 0.1j * d))
                dists.append(abs(z[0] - z[1].conjugate()))
            elif case == "fixed ground":
                graph, z = ORDER1, (1j * d,)
                dists.append(abs(z[0]))
            else:
                graph, z = parse("n=1;m=3;1:[G2,G1,G0]"), (0.5 + 1j * d,)
                dists.append(abs(z[0] - 0.5))
            row = [c for w in z for c in self.unit(w)]
            rows.append(row + [0.5] * (sampled_dims(graph) - len(row)))
        assert dists == pytest.approx([0.5 * self.RADIUS, 2 * self.RADIUS])
        vals = plan_values(graph, np.array(rows))
        assert np.isnan(vals[0]) and np.isfinite(vals[1])
        assert np.array_equal(vals, dense_integrand(graph, np.array(rows)),
                              equal_nan=True)

    def test_redraw_replaces_all(self):
        u = np.full((5, 2), 0.5)
        u[0, 1] = 0.0
        plan = integrand._Plan(ORDER1, 8)
        vals = plan(u, np.empty(len(u)))
        assert np.isnan(vals[0])
        integrand._redraw(plan, vals, seed=11)
        assert np.isfinite(vals).all()


def _linear_fields_reach(graph):
    """No aerial vertex receives two edges: the graph's operator can be
    nonzero for a linear bivector such as so(3)."""
    hits = [t for targets in graph.out_edges for t in targets if t < graph.n]
    return len(hits) == len(set(hits))


# one fixed sample of the order-3 graphs with a source that so(3) reaches
ORDER3_SO3_SAMPLE = random.Random(3).sample(
    [g for g in star_graphs(3)
     if integrand._sources(g) and _linear_fields_reach(g)], 8)


class TestSourceReduction:
    """The plan integrates source vertices out with integrand.source_form;
    with the source finder patched to find none it samples every vertex.
    The two estimates of one integral agree."""

    @staticmethod
    def both(monkeypatch, graph, n_samples):
        """Reduced and full estimates of the sampler, called directly (a
        reduced 2-dim graph otherwise gets the deterministic rule); a spy
        on _draws checks that each run sampled its own dimension count,
        so a plan or layout cached past the patch fails here instead of
        comparing a reduced estimate with itself."""
        cfg = IntegrationConfig(seed=5, n_samples=n_samples)
        sampled = []
        draws = integrand._draws

        def spy(method, dims, *args):
            sampled.append(dims)
            return draws(method, dims, *args)

        with monkeypatch.context() as patch:
            patch.setattr(integrand, "_draws", spy)
            reduced = sampled_integral(graph, cfg)
            assert set(sampled) == {sampled_dims(graph)}
            sampled.clear()
            patch.setattr(integrand, "_sources", lambda graph: ())
            full = sampled_integral(graph, cfg)
            assert set(sampled) == {2 * graph.n + graph.m - 2}
        return reduced, full

    def check(self, monkeypatch, graph, n_samples):
        (rv, rse, rn), (fv, fse, fn) = self.both(monkeypatch, graph,
                                                 n_samples)
        assert rn == fn == n_samples
        assert abs(rv - fv) <= 4 * math.hypot(rse, fse), serialize(graph)

    @pytest.mark.parametrize("graph", [
        g for g in star_graphs(2) if integrand._sources(g)], ids=serialize)
    def test_order2_source_graphs(self, monkeypatch, graph):
        assert sampled_dims(graph) == 2
        self.check(monkeypatch, graph, 65536)

    @pytest.mark.parametrize("graph", ORDER3_SO3_SAMPLE, ids=serialize)
    def test_order3_so3_sample(self, monkeypatch, graph):
        assert sampled_dims(graph) in (2, 4)
        self.check(monkeypatch, graph, 16384)

    def test_moving_ground_target(self, monkeypatch):
        """The source's targets are an aerial vertex and the moving
        ground G1."""
        graph = parse("n=2;m=3;1:[2,G1];2:[G2,G1,G0]")
        assert sampled_dims(graph) == 3
        self.check(monkeypatch, graph, 131072)

    def test_order2_source_orbits_exact(self):
        """The two order-2 orbits with a source are +-1/24."""
        cfg = IntegrationConfig(seed=2, n_samples=262144)
        for text, want in (("n=2;m=2;1:[2,L];2:[L,R]", -1 / 24),
                           ("n=2;m=2;1:[2,R];2:[L,R]", 1 / 24)):
            est = weight(parse(text), cfg)
            assert abs(est.value - want) <= 4 * est.std_error

    def test_only_out_degree_two_sources(self):
        assert integrand._sources(parse("n=2;m=2;1:[2,L];2:[L,R]")) == (0,)
        assert integrand._sources(parse("n=2;m=2;1:[2,L];2:[1,R]")) == ()
        assert integrand._sources(parse("n=3;m=2;1:[2,L];2:[L,R];3:[L,R]")) \
            == (0, 2)
        # out-degree 3: sampled, as is every I_p vertex
        assert integrand._sources(parse("n=2;m=3;1:[2,G2,G1];2:[G1,G0]")) == ()
        assert integrand._sources(parse("n=1;m=4;1:[G3,G2,G1,G0]")) == ()

    @pytest.mark.parametrize("text", ["n=1;m=2;1:[L,R]",
                                      "n=2;m=2;1:[L,R];2:[R,L]",
                                      "n=1;m=3;1:[G2,G1,G0]"])
    def test_all_source_graphs_stay_sampled(self, text):
        """A graph whose every vertex is a source keeps its full integrand
        and a nonzero sampled std_error (the sampler called directly:
        1:[L,R]'s 2 dimensions otherwise go to the deterministic rule)."""
        graph = parse(text)
        assert integrand._sources(graph) == ()
        assert sampled_dims(graph) == 2 * graph.n + graph.m - 2
        _, se, _ = sampled_integral(
            graph, IntegrationConfig(seed=1, n_samples=4096))
        assert se > 0

    def test_budget_keyed_by_form_degree(self):
        """The default budget follows 2n + m - 2, not the sampled count:
        a source reduces this graph from 5 to 3 sampled dimensions."""
        graph = parse("n=2;m=3;1:[2,G1];2:[G2,G1,G0]")
        assert sampled_dims(graph) == 3
        assert default_budget(5) != default_budget(3)
        _, _, n_used = integrate_graph_form(
            graph, IntegrationConfig(seed=1, n_samples=None))
        assert n_used == default_budget(5)

    def test_dimension_cap_counts_sampled_dims(self):
        """17 aerial vertices, 16 of them on a chain from a source: 32
        sampled dimensions, within MAX_DIMS."""
        chain = ";".join(f"{i}:[{i + 1},L]" for i in range(1, 17))
        graph = parse(f"n=17;m=2;{chain};17:[L,R]")
        assert sampled_dims(graph) == MAX_DIMS
        _, _, n_used = integrate_graph_form(
            graph, IntegrationConfig(seed=1, n_samples=64))
        assert n_used == 64


# every order-2 star graph with 2 sampled dimensions: a source vertex
# feeding the other, which sends its edges to L and R
ORDER2_RULE = [g for g in star_graphs(2) if sampled_dims(g) == 2]
# the order-3 graphs with 2 sampled dimensions and a solved weight
ORDER3_RULE = [parse("n=3;m=2;1:[2,L];2:[L,R];3:[L,R]"),
               parse("n=3;m=2;1:[2,R];2:[L,R];3:[L,R]")]


class TestCubature:
    """integrate gives every graph with 2 sampled dimensions the
    deterministic rule: a proven weight to within 1e-9 and inside the
    rule's own error estimate, whatever the method, budget or seed."""

    NODES = sum(4 * q * q for q in integrand._RULE_LEVELS)

    def test_graph_counts(self):
        assert len(ORDER2_RULE) == 16
        assert all(sampled_dims(g) == 2 for g in [ORDER1] + ORDER3_RULE)

    @pytest.mark.parametrize("graph", [ORDER1] + ORDER2_RULE + ORDER3_RULE,
                             ids=serialize)
    def test_proven_weight(self, graph):
        exact = exact_weight(graph)
        assert exact is not None and abs(exact) in (
            Fraction(1, 2), Fraction(1, 24), Fraction(1, 144))
        est = weight(graph, IntegrationConfig(seed=3))
        assert est.method == "cubature" and est.exact is None
        assert est.n_samples == self.NODES
        miss = abs(est.value - float(exact))
        assert miss <= 1e-9 and miss <= est.std_error

    def test_i_p_1(self):
        """verify ip -p 1 integrates I_1 = -(2 pi)^2 / 2 by the rule."""
        est = i_p_integral(1, IntegrationConfig(seed=0))
        norm = TWO_PI ** 2
        miss = abs(est.value - norm * float(i_p_rational(1)))
        assert est.method == "cubature"
        assert miss <= 1e-9 * norm and miss <= est.std_error

    def test_method_budget_and_seed_are_not_read(self):
        graph = ORDER2_RULE[0]
        got = {weight(graph, IntegrationConfig(method=method, seed=seed,
                                               n_samples=n_samples))
               for method in ("qmc", "mc") for seed in (0, 9)
               for n_samples in (None, 64)}
        assert len({(e.value, e.std_error, e.n_samples, e.method)
                    for e in got}) == 1

    def test_other_graphs_are_sampled(self):
        cfg = IntegrationConfig(method="mc", seed=1, n_samples=1024)
        est = weight(parse("n=2;m=2;1:[2,L];2:[1,R]"), cfg)
        assert est.method == "mc" and est.n_samples == 1024

    def test_guarded_node_raises(self, monkeypatch):
        """A node inside the coincidence guard is an error, never a
        dropped term."""
        monkeypatch.setattr(integrand, "_GUARD", 1e-6)
        with pytest.raises(SamplingError, match="rule node"):
            integrate_graph_form(ORDER1, IntegrationConfig())

    def test_error_is_never_zero(self, monkeypatch):
        """Two equal levels agree exactly; the error is then the bound on
        rounding in the fine level's sum."""
        monkeypatch.setattr(integrand, "_RULE_LEVELS", (64, 64))
        value, error, _ = integrate_graph_form(ORDER1, IntegrationConfig())
        assert 0 < error < 1e-9 * abs(value)

    @pytest.mark.parametrize("q", integrand._RULE_LEVELS)
    def test_gauss_legendre(self, q):
        """Ascending nodes inside (0, 1), exact on x^k up to k = 2q - 1."""
        x, w = integrand._gauss_legendre(q)
        assert 0 < x[0] and x[-1] < 1 and np.all(np.diff(x) > 0)
        for k in (0, 1, 2, q, 2 * q - 1):
            assert float(np.sum(w * x ** k)) == pytest.approx(1 / (k + 1),
                                                              rel=1e-13)

    @pytest.mark.parametrize("q", integrand._RULE_LEVELS)
    def test_rule_axes(self, q):
        """q nodes inside each panel, whose weights sum to its width, and
        q inside (0, 1), whose weights sum to 1; read-only."""
        s, ws, t, wt = integrand._rule_axes(q)
        assert not any(a.flags.writeable for a in (s, ws, t, wt))
        assert np.all((0 < t) & (t < 1))
        assert float(np.sum(wt)) == pytest.approx(1, rel=1e-13)
        cuts = integrand._RULE_CUTS
        assert len(s) == len(ws) == q * (len(cuts) - 1)
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            part = slice(k * q, (k + 1) * q)
            assert np.all((lo < s[part]) & (s[part] < hi))
            assert float(np.sum(ws[part])) == pytest.approx(hi - lo,
                                                            rel=1e-13)


def _i_p_graph(p):
    """i_p_integral's graph: one aerial vertex, edges to p + 1 grounds in
    descending position."""
    return KGraph(1, p + 1, (tuple(1 + k for k in reversed(range(p + 1))),))


# order-3 star graphs with 2, 4 and 6 sampled dimensions
ORDER3_PLAN_SAMPLE = random.Random(15).sample(star_graphs(3), 24)


class TestIntegrandPlan:
    """The integrand plan (entry-major layout, Laplace expansions without
    structurally zero terms, buffers reused across blocks) reproduces the
    dense integrand of helpers.dense_integrand bit for bit: every value,
    NaN position and sign bit, except the sign of an exact zero in the
    cases that use check_values."""

    @staticmethod
    def check(graph, u):
        got = plan_values(graph, u)
        want = dense_integrand(graph, u)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def check_values(graph, u):
        """check, except that a sign bit may differ on an exact zero (see
        integrand._Term); returns the plan's values."""
        got = plan_values(graph, u)
        want = dense_integrand(graph, u)
        assert np.array_equal(got, want, equal_nan=True)
        assert not np.any(got[np.signbit(got) != np.signbit(want)])
        return got

    @staticmethod
    def sobol(graph, rows=2048):
        return sobol_points(sampled_dims(graph), [stable_seed(15, "plan")],
                            rows)[0]

    @pytest.mark.parametrize("graph", star_graphs(2), ids=serialize)
    def test_order2_star_graphs(self, graph):
        self.check(graph, self.sobol(graph))

    def test_order3_sample_covers_2_4_6_dims(self):
        assert {sampled_dims(g) for g in ORDER3_PLAN_SAMPLE} == {2, 4, 6}

    @pytest.mark.parametrize("graph", ORDER3_PLAN_SAMPLE, ids=serialize)
    def test_order3_sample(self, graph):
        self.check(graph, self.sobol(graph, 1024))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_i_p_moving_grounds(self, p):
        graph = _i_p_graph(p)
        assert sampled_dims(graph) == p + 1
        self.check(graph, self.sobol(graph))

    def test_source_targets_a_moving_ground(self):
        graph = parse("n=2;m=3;1:[2,G1];2:[G2,G1,G0]")
        self.check(graph, self.sobol(graph))

    def test_structurally_singular_matrix_reads_zero(self):
        """No edge reaches the moving ground G1, so every expansion term
        has a structural zero: the plan binds a zero root and no call."""
        graph = parse("n=2;m=3;1:[2,G0];2:[G0,G2,1]")
        plan = integrand._Plan(graph, 8)
        assert plan.root is None and not plan.program
        vals = self.check_values(graph, self.sobol(graph))
        assert not np.any(vals[np.isfinite(vals)])

    @pytest.mark.parametrize("graph", star_graphs(2) + ORDER3_PLAN_SAMPLE,
                             ids=serialize)
    def test_lattice_rows(self, graph):
        """Every row of {0, 1/4, 1/2, 3/4}^k, where determinants can
        cancel exactly: equal to the reference but for the sign of an
        exact zero."""
        u = np.array(list(itertools.product((0.0, 0.25, 0.5, 0.75),
                                            repeat=sampled_dims(graph))))
        self.check_values(graph, u)

    @pytest.mark.parametrize("text,rows", [
        ("n=2;m=2;1:[2,L];2:[1,R]", [(0.3, 0.3, 0.3, 0.3),     # coincident
                                     (0.2, 0.4, 0.6, 0.8),
                                     (0.2, 0.0, 0.6, 0.8),     # t = 0
                                     (0.2, 0.4, 0.6, 1.0)]),   # t = 1
        ("n=1;m=2;1:[L,R]", [(0.5, 0.0), (0.5, 1.0), (0.5, 0.5),
                             (0.0, 0.5)]),
        ("n=1;m=3;1:[G2,G1,G0]", [(0.5, 0.5, 0.0), (0.5, 0.5, 1.0),
                                  (0.5, 0.0, 0.5), (0.3, 0.6, 0.4)]),
    ])
    def test_guard_rows(self, text, rows):
        self.check(parse(text), np.array(rows))

    @pytest.mark.parametrize("rows", [1, 7, _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("graph", [
        parse("n=2;m=2;1:[2,L];2:[1,R]"), _i_p_graph(4),
        parse("n=3;m=2;1:[2,L];2:[3,L];3:[1,R]")], ids=serialize)
    def test_redraw_sized_inputs(self, graph, rows):
        gen = np.random.Generator(np.random.PCG64(rows))
        self.check(graph, gen.random((rows, sampled_dims(graph))))

    @pytest.mark.parametrize("graph", [
        parse("n=2;m=2;1:[2,L];2:[1,R]"), _i_p_graph(3),
        parse("n=3;m=2;1:[2,L];2:[3,L];3:[1,R]")], ids=serialize)
    def test_one_plan_at_every_block_length(self, graph):
        """One plan's calls are bound per block length: lengths 1, 7,
        rows - 1 and rows, then 7 again, all on the same plan."""
        rows = 64
        plan = integrand._Plan(graph, rows)
        u = self.sobol(graph, rows)
        for n in (1, 7, rows - 1, rows, 7):
            got = plan(u[:n], np.empty(n))
            want = dense_integrand(graph, u[:n])
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_source_branch_is_chosen_at_build(self, monkeypatch):
        """source_form searches for a = bbar (np.min, np.count_nonzero)
        only for a source on two grounds one of which moves: vertex 1's
        aerial target and vertex 3's fixed grounds 0 and 1 skip it."""
        reductions = []
        for name in ("min", "count_nonzero"):
            monkeypatch.setattr(np, name, lambda *args, _f=getattr(np, name),
                                **kw: reductions.append(1) or _f(*args, **kw))
        u = np.array([(0.3, 0.4), (0.5, 0.0), (0.8, 0.6)])
        vals = plan_values(parse("n=3;m=2;1:[2,L];2:[L,R];3:[L,R]"), u)
        assert reductions == [] and np.isnan(vals[1])
        plan_values(parse("n=2;m=4;1:[G1,G2];2:[G0,G1,G2,G3]"),
                    np.array([(0.3, 0.4, 0.6, 0.6)]))
        assert reductions

    def test_source_on_coincident_grounds(self):
        """Vertex 1's targets, the moving grounds G1 and G2, coincide in
        the first row: a - bbar = 0 takes source_form's masked branch
        (F = 0) inside the plan's bound calls."""
        graph = parse("n=2;m=4;1:[G1,G2];2:[G0,G1,G2,G3]")
        u = np.array([(0.3, 0.4, 0.6, 0.6), (0.3, 0.4, 0.7, 0.2),
                      (0.8, 0.1, 0.35, 0.35)])
        self.check(graph, u)
        vals = plan_values(graph, u)
        assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] != 0.0

    @pytest.mark.parametrize("graph", star_graphs(2) + ORDER3_PLAN_SAMPLE,
                             ids=serialize)
    def test_program_folds_signs_and_doublings(self, graph):
        """Negations and doublings are folded into the plan's terms: the
        compiled program negates nothing and adds no slot to itself."""
        for ufunc, args, _ in integrand._Plan(graph, 8).program:
            assert ufunc is not np.negative
            assert not (ufunc is np.add and args[0] == args[1])


class TestBlockAllocation:
    """A block allocates nothing outside its plan's workspace: the traced
    peak of one _block over _BLOCK_ROWS samples stays below one row
    vector of float64."""

    @pytest.mark.parametrize("graph", [
        parse("n=2;m=2;1:[2,L];2:[1,R]"), _i_p_graph(3),
        parse("n=3;m=2;1:[2,L];2:[3,L];3:[1,R]")], ids=serialize)
    def test_block_peak(self, graph):
        plan = integrand._Plan(graph, _BLOCK_ROWS)
        rng = np.random.Generator(np.random.PCG64(4))
        out = np.empty(_BLOCK_ROWS)
        peaks = []
        for _ in range(2):
            plan.ut[:] = rng.random(plan.ut.shape)
            tracemalloc.start()
            try:
                plan._block(out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert np.isfinite(out).mean() > 0.99
        assert max(peaks) < 8 * _BLOCK_ROWS


def _hand_integrand(graph, row):
    """One integrand value built from scalar dphi: the documented column
    order (x_1, y_1, ..., x_n, y_n, then moving grounds by descending
    position), times the sampling Jacobian, over k_move!."""
    n, m = graph.n, graph.m
    s, t = row[0:2 * n:2], row[1:2 * n:2]
    z = [complex(math.tan(math.pi * (a - 0.5)), b / (1 - b))
         for a, b in zip(s, t)]
    jac = math.prod(math.pi * (1 + w.real ** 2) / (1 - b) ** 2
                    for w, b in zip(z, t))
    pos = [0.0] + sorted(row[2 * n:]) + [1.0]
    moving = sorted(range(1, m - 1), key=lambda k: -pos[k])
    mat = np.zeros((len(row), len(row)))
    for r, (i, _, tgt) in enumerate(graph.edges()):
        w = z[tgt] if tgt < n else pos[tgt - n]
        g = dphi(z[i], w)
        mat[r, 2 * i], mat[r, 2 * i + 1] = g.d_zx, g.d_zy
        if tgt < n:
            mat[r, 2 * tgt], mat[r, 2 * tgt + 1] = g.d_wx, g.d_wy
        elif tgt - n in moving:
            mat[r, 2 * n + moving.index(tgt - n)] = g.d_wx
    return jac * np.linalg.det(mat) / math.factorial(m - 2)


class TestAssembly:
    """Column placement and orientation of the plan, point by point."""

    @pytest.mark.parametrize("text,rows", [
        ("n=2;m=2;1:[2,L];2:[1,R]", [(0.31, 0.42, 0.77, 0.58),
                                     (0.12, 0.66, 0.45, 0.23),
                                     (0.93, 0.08, 0.36, 0.81)]),
        ("n=1;m=3;1:[G2,G1,G0]", [(0.31, 0.42, 0.77),
                                  (0.62, 0.17, 0.09),
                                  (0.48, 0.91, 0.55)]),
        ("n=1;m=4;1:[G3,G2,G1,G0]", [(0.31, 0.42, 0.77, 0.18),
                                     (0.62, 0.17, 0.09, 0.55)]),
    ])
    def test_matches_hand_built_matrix(self, text, rows):
        graph = parse(text)
        got = plan_values(graph, np.array(rows))
        want = [_hand_integrand(graph, row) for row in rows]
        assert np.all(want)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


class TestTable:
    def test_matches_per_graph_seeds(self):
        cfg = IntegrationConfig(seed=17, n_samples=16384)
        graphs = [ORDER1, ORDER1_M]
        table = WeightTable().ensure(graphs, cfg)
        rows = list(table)
        for g, est in rows:
            direct = weight(g, replace(
                cfg, seed=stable_seed(cfg.seed, serialize(g))))
            assert est == direct

    def test_empty(self):
        assert len(WeightTable().ensure([], IntegrationConfig())) == 0

    def test_json_round_trip(self):
        cfg = IntegrationConfig(seed=17, n_samples=16384)
        table = WeightTable().ensure(
            [ORDER1, KGraph(0, 2, ())], cfg)
        back = WeightTable.from_json_obj(table.to_json_obj())
        assert [(serialize(g), e) for g, e in back] \
            == [(serialize(g), e) for g, e in table]

    def test_csv_shape(self):
        cfg = IntegrationConfig(seed=17, n_samples=16384)
        text = WeightTable().ensure([ORDER1], cfg).to_csv()
        header, row, trailer = text.split("\n")
        assert header == "graph,value,std_error,n_samples,seed,method"
        assert row.startswith("n=1;m=2;1:[L,R],")
        assert trailer == ""

    def test_ensure_exact_mode(self):
        table = WeightTable().ensure(
            [ORDER1, ORDER1_M], IntegrationConfig(seed=1), use_exact=True)
        for _, est in table:
            assert est.exact is not None and est.n_samples == 0

    def test_repeated_graph_is_keyed_and_integrated_once(self,
                                                           monkeypatch):
        """A sampled graph listed twice is serialised once per listing
        and integrated once, and a graph already in the table is neither
        integrated nor replaced."""
        calls, serials = [], []
        integrate, serialize_ = weights.integrate_graph_form, serialize

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return integrate(graph, *args, **kwargs)

        def keying(graph):
            serials.append(graph)
            return serialize_(graph)

        monkeypatch.setattr(weights, "integrate_graph_form", counting)
        monkeypatch.setattr(weights, "serialize", keying)
        cfg = IntegrationConfig(seed=17, n_samples=1024)
        table = WeightTable().ensure([WHEEL, MOYAL2, WHEEL], cfg)
        assert calls == [WHEEL, MOYAL2] and len(serials) == 3
        assert [g for g, _ in table] == [WHEEL, MOYAL2]
        first = table.lookup(serialize_(WHEEL))
        table.ensure([WHEEL], cfg)
        assert len(calls) == 2 and table.lookup(serialize_(WHEEL)) is first

    def test_each_rule_orbit_is_integrated_once(self, monkeypatch):
        """The 16 order-2 rule graphs fall in two orbits: ensure
        integrates their representatives once each, and every member is
        sign x its representative's entry bit for bit, with the
        representative's std_error, n_samples and method and its own
        seed, within 1e-9 of its proven weight +-1/24."""
        calls = []
        integrate = weights.integrate_graph_form

        def counting(graph, cfg):
            calls.append(graph)
            return integrate(graph, cfg)

        monkeypatch.setattr(weights, "integrate_graph_form", counting)
        cfg = IntegrationConfig(seed=5)
        table = WeightTable().ensure(ORDER2_RULE, cfg)
        reps = {orbit_representative(g)[0] for g in ORDER2_RULE}
        assert len(calls) == 2 and set(calls) == reps
        assert len(table) == 16
        for g, est in table:
            rep, sign = orbit_representative(g)
            want = table.get(rep)
            assert est == replace(want, value=sign * want.value,
                                  seed=stable_seed(cfg.seed, serialize(g)))
            exact = exact_weight(g)
            assert abs(exact) == Fraction(1, 24)
            assert abs(est.value - float(exact)) <= 1e-9

    def test_error_target_warns_for_each_rule_member(self):
        """Two members of one rule orbit share one integral in a table,
        and each is named in a warning of its own."""
        cfg = IntegrationConfig(seed=1, error_target=1e-12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            WeightTable().ensure([ORDER1, ORDER1_M], cfg)
        assert [str(w.message).rsplit(" ", 1)[1] for w in caught] == [
            serialize(ORDER1), serialize(ORDER1_M)]

    @pytest.mark.usefixtures("sampler_only")
    def test_sampled_graphs_keep_their_own_integral(self, monkeypatch):
        """Where every graph is sampled, two members of one orbit get
        two independent integrals."""
        calls = []
        integrate = weights.integrate_graph_form

        def counting(graph, cfg):
            calls.append(graph)
            return integrate(graph, cfg)

        monkeypatch.setattr(weights, "integrate_graph_form", counting)
        table = WeightTable().ensure([ORDER1, ORDER1_M], IntegrationConfig(
            seed=17, n_samples=1024))
        assert calls == [ORDER1, ORDER1_M]
        assert table.get(ORDER1).value != -table.get(ORDER1_M).value

    def test_cubature_entry_round_trip(self):
        """An entry of the deterministic rule loads back equal, label
        included."""
        est = weight(ORDER1, IntegrationConfig(seed=2))
        assert est.method == "cubature"
        obj = json.loads(json.dumps(est.to_json_obj(ORDER1)))
        assert WeightEstimate.from_json_obj(obj) == est
        back = WeightTable.from_json_obj([obj])
        assert back.get(ORDER1) == est

    def test_estimate_json_round_trip(self):
        est = WeightEstimate(0.5, 0.0, 4096, 7, "qmc", exact=Fraction(1, 2))
        assert WeightEstimate.from_json_obj(est.to_json_obj()) == est

    @pytest.mark.parametrize("field,bad", [
        ("n_samples", 2.9), ("n_samples", "4096"), ("seed", True),
        ("seed", 7.0), ("exact", [1.5, 2]), ("exact", [1, 0]),
        ("exact", [1]), ("value", "0.5"), ("value", None),
        ("std_error", False), ("value", math.nan), ("value", math.inf),
        ("value", -math.inf), ("value", 10 ** 400), ("std_error", math.nan),
        ("std_error", math.inf), ("std_error", -math.inf),
        ("std_error", -1e-3), ("n_samples", -1), ("n_samples", -7),
        ("method", "bogus"), ("method", "QMC"), ("method", ""),
        ("method", None), ("method", ["qmc"]), ("method", 1),
        # an exact entry is not also sampled: star products read exact
        # but bound with std_error
        ("std_error", 1e-3), ("value", 0.3), ("value", -0.5)])
    def test_estimate_rejects_malformed_fields(self, field, bad):
        obj = WeightEstimate(0.5, 0.0, 4096, 7, "qmc",
                             exact=Fraction(1, 2)).to_json_obj()
        obj[field] = bad
        with pytest.raises(ParseError):
            WeightEstimate.from_json_obj(obj)

    def test_pinned_benchmark_table_loads(self):
        path = (Path(__file__).resolve().parent.parent / "perfbench"
                / "data" / "o2_table.json")
        table = WeightTable.from_json_obj(json.loads(path.read_text()))
        assert len(table)
        assert all(math.isfinite(est.value) and est.std_error >= 0
                   for _, est in table)

    @pytest.mark.parametrize("obj", [
        {"graph": "n=1;m=2;1:[L,R]"},
        [{"value": 0.5, "std_error": 0.0, "n_samples": 1, "seed": 1,
          "method": "qmc"}],
        [{"graph": "n=1;m=2;1:[L,R]", "value": 0.5, "n_samples": 1,
          "seed": 1, "method": "qmc"}],
        [{"graph": "n=1;m=2;1:[L,R]", "value": "x", "std_error": 0.0,
          "n_samples": 1, "seed": 1, "method": "qmc"}],
        [{"graph": "n=1;m=2;1:[L,R]", "value": 0.5, "std_error": [],
          "n_samples": 1, "seed": 1, "method": "qmc"}],
        ["n=1;m=2;1:[L,R]"], None, 3,
        [{"graph": "n=1;m=2;1:[L,R]", "value": math.nan, "std_error": 0.0,
          "n_samples": 1, "seed": 1, "method": "qmc"}]])
    def test_table_rejects_malformed_input(self, obj):
        with pytest.raises(ParseError):
            WeightTable.from_json_obj(obj)

    @pytest.mark.parametrize("second", ["n=1;m=2;1:[L,R]",
                                        "n=1;m=2;1:[L, R]"])
    def test_table_rejects_a_repeated_graph(self, second):
        """Two entries for one graph, however its serial is spelled, are
        refused rather than the last one kept."""
        entry = {"std_error": 0.01, "n_samples": 64, "seed": 1,
                 "method": "qmc"}
        obj = [dict(entry, graph="n=1;m=2;1:[L,R]", value=0.3),
               dict(entry, graph=second, value=0.7)]
        with pytest.raises(ParseError, match="repeated entry"):
            WeightTable.from_json_obj(obj)
