"""Shared fixtures-in-code for the test suite: canned Poisson structures
and seeded random generators for polynomials and fields."""
import random

from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField


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


def per_replicate_integral(graph, cfg, seed=None):
    """Reference for weights.integrate_graph_form's qmc and mc paths: one
    scrambled-Sobol engine (or PCG64 stream) and one integrand call per
    replicate, each replicate's guarded rows redrawn from its own seed."""
    import math
    import warnings

    import numpy as np
    from scipy.stats import qmc

    from starquant import weights

    base_seed = cfg.seed if seed is None else seed
    total = cfg.n_samples or weights.default_budget(2 * graph.n + graph.m - 2)
    dims = weights.sampled_dims(graph)
    per_rep = max(1, total // weights.N_REPLICATES)
    means = []
    for r in range(weights.N_REPLICATES):
        rep_seed = weights.stable_seed(base_seed, "rep", r)
        if cfg.method == "qmc":
            sob = qmc.Sobol(d=dims, scramble=True, seed=rep_seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                u = sob.random(per_rep)
        else:
            gen = np.random.Generator(np.random.PCG64(rep_seed))
            u = gen.random((per_rep, dims))
        vals = weights._clean_values(graph, u,
                                     weights.stable_seed(rep_seed, "redraw"))
        means.append(float(vals.mean()))
    value = float(np.mean(means))
    std_error = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    return value, std_error, per_rep * weights.N_REPLICATES
