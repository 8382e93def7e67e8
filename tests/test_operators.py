"""Graph-to-operator translation, cross-checked against a dense
labeling-sum oracle built on sympy."""
import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (random_polynomial, reference_apply, so3_alpha,
                     symplectic_alpha)
from starquant.errors import (ArityMismatchError, DegreeMismatchError,
                              DimensionMismatchError)
from starquant.graphs import KGraph, parse, serialize, star_graphs
from starquant.operators import PolyDiffOperator, build_operator
from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField
from starquant.rational import QI


def poly_to_sympy(p: Polynomial, xs):
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        coeff = (sympy.Rational(c.re.numerator, c.re.denominator)
                 + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        mono = sympy.Integer(1)
        for i, e in enumerate(exps):
            mono *= xs[i] ** e
        total += coeff * mono
    return sympy.expand(total)


def oracle_value(graph: KGraph, fields, args, xs):
    """Sum over all d^E edge labelings, differentiating in sympy."""
    d = len(xs)
    edges = list(graph.edges())
    args_s = [poly_to_sympy(a, xs) for a in args]
    total = sympy.Integer(0)
    for labels in itertools.product(range(d), repeat=len(edges)):
        lab = {(e[0], e[1]): l for e, l in zip(edges, labels)}
        incoming = {v: [] for v in range(graph.n + graph.m)}
        for src, slot, tgt in edges:
            incoming[tgt].append(lab[(src, slot)])
        factor = sympy.Integer(1)
        for i in range(graph.n):
            out_idx = tuple(lab[(i, s)]
                            for s in range(len(graph.out_edges[i])))
            expr = poly_to_sympy(fields[i].component(out_idx), xs)
            for l in incoming[i]:
                expr = sympy.diff(expr, xs[l])
            factor *= expr
        for k in range(graph.m):
            expr = args_s[k]
            for l in incoming[graph.n + k]:
                expr = sympy.diff(expr, xs[l])
            factor *= expr
        total += factor
    return sympy.expand(total)


class TestAgainstOracle:
    @pytest.mark.parametrize("order", [1, 2])
    def test_all_star_graphs_so3(self, order):
        xs = sympy.symbols("x0:3")
        alpha = so3_alpha()
        rng = random.Random(1234 + order)
        f = random_polynomial(rng, 3, max_degree=2, n_terms=4)
        g = random_polynomial(rng, 3, max_degree=2, n_terms=4)
        for graph in star_graphs(order):
            op = build_operator(graph, (alpha,) * order)
            mine = poly_to_sympy(op.apply((f, g)), xs)
            ref = oracle_value(graph, (alpha,) * order, (f, g), xs)
            assert sympy.expand(mine - ref) == 0, serialize(graph)

    def test_wheel_graph_symplectic(self):
        # one aerial vertex feeding both grounds plus a second vertex
        xs = sympy.symbols("x0:2")
        alpha = symplectic_alpha(2)
        g = parse("n=2;m=2;1:[L,2];2:[L,R]")
        rng = random.Random(7)
        f1 = random_polynomial(rng, 2, max_degree=3, n_terms=4)
        f2 = random_polynomial(rng, 2, max_degree=3, n_terms=4)
        op = build_operator(g, (alpha, alpha))
        assert sympy.expand(poly_to_sympy(op.apply((f1, f2)), xs)
                            - oracle_value(g, (alpha, alpha), (f1, f2), xs)) == 0

    def test_mixed_rank_fields(self):
        # vector at one vertex, bivector at the other
        xs = sympy.symbols("x0:3")
        alpha = so3_alpha()
        vec = PolyVectorField(3, 0, {
            (0,): Polynomial.variable(3, 1),
            (2,): Polynomial.variable(3, 0) * Polynomial.variable(3, 2),
        })
        g = parse("n=2;m=1;1:[2,G0];2:[G0]")
        rng = random.Random(11)
        f = random_polynomial(rng, 3, max_degree=2, n_terms=3)
        op = build_operator(g, (alpha, vec))
        assert op.arity == 1
        assert sympy.expand(poly_to_sympy(op.apply((f,)), xs)
                            - oracle_value(g, (alpha, vec), (f,), xs)) == 0


class TestKnownOperators:
    def test_order1_graph_is_poisson_bracket(self):
        alpha = so3_alpha()
        g = parse("n=1;m=2;1:[L,R]")
        op = build_operator(g, (alpha,))
        f = Polynomial.variable(3, 0)
        h = Polynomial.variable(3, 1)
        # sum alpha^{ij} d_i f d_j g = alpha^{01} = x2
        assert op.apply((f, h)) == Polynomial.variable(3, 2)

    def test_nested_derivative_graph(self):
        # vertex 1 hits vertex 2 and L; vertex 2 hits R and L:
        # sum alpha^{ij} (d_i alpha^{kl}) (d_j d_l f) (d_k g)
        alpha = so3_alpha()
        g = parse("n=2;m=2;1:[2,L];2:[R,L]")
        op = build_operator(g, (alpha, alpha))
        d = 3
        f = Polynomial.variable(d, 0) ** 2
        h = Polynomial.variable(d, 1)
        direct = Polynomial.zero(d)
        for i, j, k, l in itertools.product(range(d), repeat=4):
            direct = direct + (alpha.component((i, j))
                               * alpha.component((k, l)).diff(i)
                               * f.diff(j).diff(l)
                               * h.diff(k))
        got = op.apply((f, h))
        assert got == direct
        assert got == -2 * Polynomial.variable(d, 1)

    def test_order0_is_multiplication(self):
        g = KGraph(0, 2, ())
        op = build_operator(g, (), dim=3)
        assert op == PolyDiffOperator(
            2, 3, {((), ()): Polynomial.constant(3, 1)})
        f = Polynomial.variable(3, 0)
        h = Polynomial.variable(3, 1)
        assert op.apply((f, h)) == f * h

    def test_zero_field_gives_zero_operator(self):
        g = parse("n=1;m=2;1:[L,R]")
        op = build_operator(g, (PolyVectorField.zero(3, 1),))
        assert op.is_zero()
        assert op.apply((Polynomial.variable(3, 0),
                         Polynomial.variable(3, 1))).is_zero()


class TestValidation:
    def test_rank_mismatch(self):
        g = parse("n=1;m=2;1:[L,R]")
        vec = PolyVectorField(3, 0, {(0,): Polynomial.constant(3, 1)})
        with pytest.raises(DegreeMismatchError):
            build_operator(g, (vec,))

    def test_field_count_mismatch(self):
        g = parse("n=2;m=2;1:[L,R];2:[L,R]")
        with pytest.raises(ArityMismatchError):
            build_operator(g, (so3_alpha(),))

    def test_dim_mismatch(self):
        g = parse("n=2;m=2;1:[L,R];2:[L,R]")
        with pytest.raises(DimensionMismatchError):
            build_operator(g, (so3_alpha(), symplectic_alpha(2)))

    def test_order0_needs_dim(self):
        with pytest.raises(DimensionMismatchError):
            build_operator(KGraph(0, 2, ()), ())

    def test_apply_arity(self):
        op = PolyDiffOperator(2, 3, {((), ()): Polynomial.constant(3, 1)})
        with pytest.raises(ArityMismatchError):
            op.apply((Polynomial.variable(3, 0),))
        with pytest.raises(DimensionMismatchError):
            op.apply((Polynomial.variable(2, 0), Polynomial.variable(2, 1)))


class TestAlgebra:
    def test_scalar_action_commutes_with_apply(self):
        g = parse("n=1;m=2;1:[L,R]")
        op = build_operator(g, (so3_alpha(),))
        f = Polynomial.variable(3, 0) ** 2
        h = Polynomial.variable(3, 1)
        assert (3 * op).apply((f, h)) == 3 * op.apply((f, h))

    def test_apply_linear_in_arguments(self):
        g = parse("n=1;m=2;1:[L,R]")
        op = build_operator(g, (so3_alpha(),))
        rng = random.Random(5)
        f1 = random_polynomial(rng, 3)
        f2 = random_polynomial(rng, 3)
        h = random_polynomial(rng, 3)
        assert (op.apply((f1 + f2, h))
                == op.apply((f1, h)) + op.apply((f2, h)))

    def test_keys_are_sorted(self):
        op = PolyDiffOperator(1, 2, {((1, 0),): Polynomial.constant(2, 1)})
        assert list(op.terms) == [((0, 1),)]

    def test_keys_naming_the_same_derivatives_are_summed(self):
        """d0 d1 = d1 d0: both keys sort to ((0, 1),), and their
        coefficients add; coefficients that cancel leave no term."""
        x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        op = PolyDiffOperator(1, 2, {((0, 1),): x0, ((1, 0),): x1})
        assert op.terms == {((0, 1),): x0 + x1}
        assert op.apply([x0 * x1]) == x0 + x1
        assert PolyDiffOperator(1, 2, {((0, 1),): x0,
                                       ((1, 0),): -x0}).is_zero()


# Coefficients as sampled weights bring them (floats, read exactly as
# dyadic rationals with up to 2^1074 denominators), small rationals
# and their negatives, from a pool small enough that terms cancel.
_POOL = [QI(1), QI(-1), QI(Fraction(1, 3)), QI(0, Fraction(-1, 2)),
         QI(0.1), QI(-0.1), QI(0.041666666666666664, -0.3),
         QI(-0.041666666666666664, 0.3)]
_coeffs = st.one_of(
    st.sampled_from(_POOL),
    st.builds(QI, st.floats(-1, 1, allow_nan=False),
              st.sampled_from([0.0, 0.0, 2.0 ** -60, -0.75])))


def _polys(dim):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * dim), _coeffs, max_size=5
    ).map(lambda terms: Polynomial(dim, terms))


@st.composite
def _operators_and_args(draw):
    dim = draw(st.integers(1, 3))
    arity = draw(st.integers(0, 3))
    multi = st.lists(st.integers(0, dim - 1), max_size=3).map(tuple)
    terms = draw(st.dictionaries(st.tuples(*[multi] * arity), _polys(dim),
                                 max_size=6))
    args = draw(st.lists(_polys(dim), min_size=arity, max_size=arity))
    return PolyDiffOperator(arity, dim, terms), args


class TestFusedApply:
    def test_a_cancelled_monomial_rejoins_at_the_end(self):
        """On 1 + x + x^2 the second term's x^2 cancels the first's and
        x^2 returns with the third, so it comes last, as in the
        reference."""
        x = Polynomial.variable(1, 0)
        op = PolyDiffOperator(1, 1, {((),): Polynomial.constant(1, 1),
                                     ((0,),): x * Fraction(-1, 2) + x ** 3,
                                     ((0, 0),): x * x})
        arg = Polynomial(1, {(0,): 1, (1,): 1, (2,): 1})
        want = reference_apply(op, [arg])
        assert list(want.terms) == [(0,), (1,), (3,), (4,), (2,)]
        assert list(op.apply([arg]).terms.items()) == list(want.terms.items())

    @given(_operators_and_args())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_op_by_op_reference(self, case):
        """apply sums every term in one exact accumulator; its result
        equals the multiply-then-add reference, term order included,
        and reads the same on fresh copies of its arguments."""
        op, args = case
        want = reference_apply(op, args)
        got = op.apply(args)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(v) is QI and not v.is_zero()
                   for v in got.terms.values())
        fresh = [Polynomial(a.dim, a.terms) for a in args]
        assert op.apply(fresh) == want
