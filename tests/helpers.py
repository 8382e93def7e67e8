"""Shared fixtures-in-code for the test suite: canned Poisson structures,
seeded random generators for polynomials and fields, and reference
implementations that production code is checked against."""
import cmath
import contextlib
import random
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import pytest

from starquant import weights
from starquant.errors import DomainError
from starquant.graphs import enumerate_graphs, orbit_representative, serialize
from starquant.operators import build_operator, orbit_operators
from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField
from starquant.rational import QI
from starquant.weights import TWO_PI


@contextlib.contextmanager
def without_solved_weights():
    """exact_weight without weights.SOLVED_WEIGHTS, its memo cleared on
    entry and exit: star products then sample every orbit no other
    closed form covers.  The sampled path's tests run in
    it (the conftest fixture sampled_weights, or a module- or
    class-scoped fixture's body)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "SOLVED_WEIGHTS", {})
        weights.exact_weight.cache_clear()
        try:
            yield
        finally:
            weights.exact_weight.cache_clear()


def member_rows(fields, m: int) -> list:
    """(graph, serial, orbit serial, sign) of every admissible graph with
    fields[i] at aerial vertex i and m grounds whose operator is nonzero,
    in enumerate_graphs order: the per-graph definition of the
    orbit_operators family, each graph canonicalised on its own under
    the family's labels and each orbit operator built here."""
    labels = orbit_operators(tuple(fields), m).labels
    nonzero = {}
    rows = []
    for g in enumerate_graphs(len(fields), m, [f.degree for f in fields]):
        rep, sign = orbit_representative(g, labels)
        if rep not in nonzero:
            nonzero[rep] = bool(build_operator(rep, fields).terms)
        if nonzero[rep]:
            rows.append((g, serialize(g), serialize(rep), sign))
    return rows


def so3_alpha() -> PolyVectorField:
    """Linear rotation-algebra bivector on R^3: alpha^{12}=x3 etc."""
    d = 3
    return PolyVectorField(d, 1, {
        (0, 1): Polynomial.variable(d, 2),
        (0, 2): -Polynomial.variable(d, 1),
        (1, 2): Polynomial.variable(d, 0),
    })


def symplectic_alpha(d: int = 2) -> PolyVectorField:
    """Constant standard symplectic bivector on R^d (d even)."""
    comps = {}
    for k in range(d // 2):
        comps[(2 * k, 2 * k + 1)] = Polynomial.constant(d, 1)
    return PolyVectorField(d, 1, comps)


def broken_alpha() -> PolyVectorField:
    """A bivector that fails the Jacobi identity (negative control)."""
    d = 3
    return PolyVectorField(d, 1, {
        (0, 1): Polynomial.variable(d, 0),
        (0, 2): Polynomial.variable(d, 2),
    })


def random_polynomial(rng: random.Random, dim: int, max_degree: int = 2,
                      n_terms: int = 3, span: int = 3) -> Polynomial:
    terms = {}
    for _ in range(n_terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        c = rng.randint(-span, span)
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return Polynomial(dim, terms)


def random_poly(rng: random.Random, dim: int = 3, deg: int = 2) -> Polynomial:
    """Four terms, each an integer in [-3, 3] times at most deg random
    coordinates: the draw of tests/test_acceptance.py's criteria 7 and 9."""
    out = Polynomial.zero(dim)
    for _ in range(4):
        term = Polynomial.constant(dim, QI(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, deg)):
            term = term * Polynomial.variable(dim, rng.randrange(dim))
        out = out + term
    return out


def random_linear_bivector(rng: random.Random,
                           dim: int = 3) -> PolyVectorField:
    """Components (0,1), (0,2), (1,2), each sum_v c_v x_v with integer
    c_v in [-2, 2]: the draw of tests/test_acceptance.py's criterion 9."""
    comps = {}
    for pair in ((0, 1), (0, 2), (1, 2)):
        p = Polynomial.zero(dim)
        for v in range(dim):
            c = rng.randint(-2, 2)
            if c:
                p = p + Polynomial.variable(dim, v) * QI(c)
        if not p.is_zero():
            comps[pair] = p
    return PolyVectorField(dim, 1, comps)


def random_field(rng: random.Random, dim: int, degree: int,
                 max_degree: int = 2, n_terms: int = 2) -> PolyVectorField:
    import itertools
    comps = {}
    for key in itertools.combinations(range(dim), degree + 1):
        if rng.random() < 0.75:
            comps[key] = random_polynomial(rng, dim, max_degree, n_terms)
    return PolyVectorField(dim, degree, comps)


def random_bivector(rng: random.Random, dim: int, max_degree: int = 2) -> PolyVectorField:
    return random_field(rng, dim, 1, max_degree=max_degree)


def per_replicate_integral(graph, cfg):
    """Reference for weights.integrate_graph_form's qmc and mc paths: one
    scrambled-Sobol engine (or PCG64 stream) and one integrand plan per
    replicate, each replicate's guarded rows redrawn from a PCG64 stream
    of its own redraw seed, round by round, by the loop here."""
    import math
    import warnings

    import numpy as np
    from scipy.stats import qmc

    from starquant import integrand, weights

    total = cfg.n_samples or weights.default_budget(2 * graph.n + graph.m - 2)
    dims = integrand.sampled_dims(graph)
    per_rep = max(1, total // integrand.N_REPLICATES)

    def evaluate(u):
        plan = integrand._Plan(graph,
                               max(1, min(len(u), integrand._BLOCK_ROWS)))
        return plan(u, np.empty(len(u)))

    means = []
    for r in range(integrand.N_REPLICATES):
        rep_seed = weights.stable_seed(cfg.seed, "rep", r)
        if cfg.method == "qmc":
            sob = qmc.Sobol(d=dims, scramble=True, seed=rep_seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                u = sob.random(per_rep)
        else:
            gen = np.random.Generator(np.random.PCG64(rep_seed))
            u = gen.random((per_rep, dims))
        vals = evaluate(u)
        redraw = np.random.Generator(np.random.PCG64(
            weights.stable_seed(rep_seed, "redraw")))
        for _ in range(64):
            bad = np.isnan(vals)
            if not bad.any():
                break
            vals[bad] = evaluate(redraw.random((int(bad.sum()), dims)))
        assert not np.isnan(vals).any()
        means.append(float(vals.mean()))
    value = float(np.mean(means))
    std_error = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    return value, std_error, per_rep * integrand.N_REPLICATES


def _dense_det(m):
    """Determinants of a (rows, k, k) stack by Laplace expansion, every
    term kept: along the top row for odd k, along the top two rows (each
    2 x 2 minor times its complement) for even k, sums left to right in
    column order."""
    import itertools

    k = m.shape[1]
    if k == 2:
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    if k == 3:
        return (m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2]
                              - m[:, 1, 2] * m[:, 2, 1])
                - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2]
                                - m[:, 1, 2] * m[:, 2, 0])
                + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1]
                                - m[:, 1, 1] * m[:, 2, 0]))
    if k == 4:
        def p(i, j):
            return m[:, 0, i] * m[:, 1, j] - m[:, 0, j] * m[:, 1, i]

        def q(i, j):
            return m[:, 2, i] * m[:, 3, j] - m[:, 2, j] * m[:, 3, i]

        return (p(0, 1) * q(2, 3) - p(0, 2) * q(1, 3) + p(0, 3) * q(1, 2)
                + p(1, 2) * q(0, 3) - p(1, 3) * q(0, 2) + p(2, 3) * q(0, 1))
    total = None
    if k % 2:
        for c in range(k):
            keep = [j for j in range(k) if j != c]
            term = m[:, 0, c] * _dense_det(m[:, 1:, :][:, :, keep])
            if c % 2:
                term = -term
            total = term if total is None else total + term
        return total
    for i, j in itertools.combinations(range(k), 2):
        keep = [c for c in range(k) if c != i and c != j]
        term = (m[:, 0, i] * m[:, 1, j] - m[:, 0, j] * m[:, 1, i]) \
            * _dense_det(m[:, 2:, :][:, :, keep])
        if (i + j + 1) % 2:
            term = -term
        total = term if total is None else total + term
    return total


@dataclass(frozen=True)
class AngleGradient:
    """Partial derivatives of phi(z, w) in (x_z, y_z, x_w, y_w)."""

    d_zx: float
    d_zy: float
    d_wx: float
    d_wy: float


def _check_pair(z: complex, w: complex):
    if z.imag < 0 or w.imag < 0:
        raise DomainError("points must lie in the closed upper half plane")
    if z.imag <= 0:
        raise DomainError("z must be interior (Im z > 0)")
    if z == w:
        raise DomainError("phi is undefined at z = w")
    if z == w.conjugate():
        raise DomainError("phi is undefined at z = conj(w)")


def angle_phi(z, w) -> float:
    """The propagator angle phi(z, w) = arg((z - w)(z - wbar)) in
    [0, 2*pi), the angle whose differential integrand.angle_form writes.

    z must be interior; w may sit anywhere in the closed half plane
    except at z or its mirror image.
    """
    zc, wc = complex(z), complex(w)
    _check_pair(zc, wc)
    val = cmath.phase((zc - wc) * (zc - wc.conjugate())) % TWO_PI
    # the mod of a tiny negative phase can round up to exactly 2*pi
    return 0.0 if val >= TWO_PI else val


def dphi(z, w) -> AngleGradient:
    """All four first derivatives of phi from integrand.angle_form.

    w may be a boundary (ground) point: the y_w derivative then
    vanishes identically, which is the Neumann condition.
    """
    from starquant.integrand import angle_form

    zc, wc = complex(z), complex(w)
    _check_pair(zc, wc)
    dx, ym, yp = zc.real - wc.real, zc.imag - wc.imag, zc.imag + wc.imag
    re, im, d_wy = angle_form(dx, ym, yp, 1.0 / (dx * dx + ym * ym),
                              1.0 / (dx * dx + yp * yp))
    return AngleGradient(d_zx=im, d_zy=re, d_wx=-im, d_wy=d_wy)


def complex_angle_form(z, w):
    """Reference for integrand.angle_form: the complex formula it replaced,
    (A, d_wy) with A = (2z - w - wbar)/Q, Q = (z - w)(z - wbar), and
    d_wy = 2 y_w Im(1/Q); A = 2/(z - w) and d_wy = 0 for a real w."""
    import numpy as np

    # isinstance first: np.iscomplexobj is slow on Python floats
    if isinstance(w, float) or not np.iscomplexobj(w):
        return 2.0 / (z - w), 0.0
    q = (z - w) * (z - np.conjugate(w))
    a = (2.0 * z - w - np.conjugate(w)) / q
    return a, 2.0 * w.imag * (1.0 / q).imag


def complex_source_form(a, b):
    """Reference for integrand.source_form: 4 pi arg(a - bbar) - 2 pi^2 by
    np.angle on complex a, b, and 0 where a - bbar = 0."""
    import math

    import numpy as np

    d = a - np.conjugate(b)
    return np.where(d == 0, 0.0, 4.0 * math.pi * np.angle(d)
                    - 2.0 * math.pi ** 2)


def dense_integrand(graph, u):
    """Reference for integrand's plan: the form matrix filled
    densely from integrand.angle_form, one (rows, k, k) array per call,
    and _dense_det on it.  A pair of aerial points i < j has one set of
    distances, with dx and y_i - y_j negated for the edge j -> i."""
    import math

    import numpy as np

    from starquant import integrand
    from starquant.integrand import angle_form, source_form

    n, m = graph.n, graph.m
    k_move = m - 2
    sources = integrand._sources(graph)
    # sampled aerial vertices in order; point[v] is v's column pair
    point = {v: i for i, v in enumerate(
        v for v in range(n) if v not in sources)}
    ns = len(point)
    nrows = u.shape[0]
    with np.errstate(all="ignore"):
        s = u[:, 0:2 * ns:2]
        t = u[:, 1:2 * ns:2]
        x = np.tan(np.pi * (s - 0.5))
        y = t / (1.0 - t)
        jac = (np.prod(np.pi * (1.0 + x * x), axis=1)
               / np.prod(1.0 - t, axis=1) ** 2)
        bad = ~np.isfinite(jac)
        bad |= np.any(y <= 0.0, axis=1)

        if k_move:
            tg = np.sort(u[:, 2 * ns:], axis=1)     # ascending positions
        else:
            tg = np.empty((nrows, 0))

        def position(tgt):
            """(x, y) of a target vertex; a ground sits at y = 0."""
            if tgt < n:
                return x[:, point[tgt]], y[:, point[tgt]]
            k = tgt - n
            return (0.0 if k == 0 else 1.0 if k == m - 1 else tg[:, k - 1],
                    0.0)

        def poles(zi, w):
            """dx, y_z - y_w, y_z + y_w, |z - w|^2, |z - wbar|^2."""
            dx, ym, yp = zi[0] - w[0], zi[1] - w[1], zi[1] + w[1]
            return dx, ym, yp, dx * dx + ym * ym, dx * dx + yp * yp

        guard2 = integrand._GUARD * integrand._GUARD
        for i in range(ns):
            zi = x[:, i], y[:, i]
            for j in range(i + 1, ns):
                _, _, _, dm, dp = poles(zi, (x[:, j], y[:, j]))
                bad |= dm < guard2
                bad |= dp < guard2
            for k in range(m):
                bad |= poles(zi, position(n + k))[3] < guard2

        factor = jac / math.factorial(k_move)
        for v in sources:
            (xa, ya), (xb, yb) = map(position, graph.out_edges[v])
            factor = factor * source_form(xa - xb, ya + yb)

        mat = np.zeros((nrows, 2 * ns + k_move, 2 * ns + k_move))
        row = 0
        for i, ci in point.items():
            for tgt in graph.out_edges[i]:
                k = tgt - n                 # ground index when k >= 0
                if k < 0 and point[tgt] < ci:
                    dx, ym, yp, dm, dp = poles(position(tgt), position(i))
                    dx, ym = -dx, -ym
                else:
                    dx, ym, yp, dm, dp = poles(position(i), position(tgt))
                re, im, d_wy = angle_form(dx, ym, yp, 1.0 / dm, 1.0 / dp)
                mat[:, row, 2 * ci] = im
                mat[:, row, 2 * ci + 1] = re
                if k < 0:
                    mat[:, row, 2 * point[tgt]] = -im
                    mat[:, row, 2 * point[tgt] + 1] = d_wy
                elif 0 < k < m - 1:
                    mat[:, row, 2 * ns + (k_move - k)] = -im
                row += 1

        vals = _dense_det(mat) * factor
        vals = np.where(bad | ~np.isfinite(vals), np.nan, vals)
    return vals


class FractionQI:
    """Reference for rational.QI: a Gaussian rational kept as a pair of
    Fractions, re + im*i, with every operation done in Fraction
    arithmetic (the engine's scalar before it stored integer triples)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", self._fraction(re))
        object.__setattr__(self, "im", self._fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionQI is immutable")

    @staticmethod
    def _fraction(x) -> Fraction:
        if isinstance(x, (Rational, float)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")

    @staticmethod
    def try_coerce(x):
        if isinstance(x, FractionQI):
            return x
        if isinstance(x, QI):
            return FractionQI(x.re, x.im)
        if isinstance(x, complex):
            return FractionQI(Fraction(x.real), Fraction(x.imag))
        if isinstance(x, (Rational, float)):
            return FractionQI(x)
        return None

    def __add__(self, other):
        o = FractionQI.try_coerce(other)
        return FractionQI(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = FractionQI.try_coerce(other)
        return FractionQI(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = FractionQI.try_coerce(other)
        return FractionQI(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    def __truediv__(self, other):
        o = FractionQI.try_coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q[i]")
        return FractionQI((self.re * o.re + self.im * o.im) / n,
                          (self.im * o.re - self.re * o.im) / n)

    def __neg__(self):
        return FractionQI(-self.re, -self.im)

    def __pow__(self, k: int):
        out = FractionQI(1)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self):
        return FractionQI(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __eq__(self, other):
        o = FractionQI.try_coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))


# Reference Polynomial ring operations: each accumulates into a fresh
# dict from QI(0) and hands the result to the validating constructor.

def _accumulate(terms: dict, e, c) -> None:
    s = terms.get(e, QI(0)) + c
    if s.is_zero():
        terms.pop(e, None)
    else:
        terms[e] = s


def reference_add(p: Polynomial, q: Polynomial) -> Polynomial:
    terms = dict(p.terms)
    for e, c in q.terms.items():
        _accumulate(terms, e, c)
    return Polynomial(p.dim, terms)


def reference_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            _accumulate(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return Polynomial(p.dim, out)


def reference_scale(p: Polynomial, c) -> Polynomial:
    c = QI.coerce(c)
    return Polynomial(p.dim, {e: q * c for e, q in p.terms.items()})


def reference_neg(p: Polynomial) -> Polynomial:
    return Polynomial(p.dim, {e: -c for e, c in p.terms.items()})


def reference_diff(p: Polynomial, i: int) -> Polynomial:
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            ee = list(e)
            ee[i] -= 1
            out[tuple(ee)] = c * e[i]
    return Polynomial(p.dim, out)


def reference_apply(op, args) -> Polynomial:
    """Reference for PolyDiffOperator.apply: each term's coefficient
    times the derivatives of its arguments, multiplied and added one
    ring operation at a time by the reference ring operations above,
    each derivative a chain of reference_diff."""
    out = Polynomial.zero(op.dim)
    for key, coeff in op.terms.items():
        term = coeff
        for multi, arg in zip(key, args):
            factor = arg
            for i in multi:
                factor = reference_diff(factor, i)
            if factor.is_zero():
                break
            term = reference_mul(term, factor)
        else:
            out = reference_add(out, term)
    return out
