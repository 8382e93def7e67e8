"""Multilinear graph maps from polyvector fields to polydifferential
operators, and the coherence identities they satisfy.

u_n takes n polyvector fields of degrees p_1..p_n to an operator on
2 - n + sum p_i arguments; any other argument count is exactly zero
(the ghost rule).  Closed forms cover n <= 1; higher n sums graph
weights with the normalization

    u_n = (-1)^n / prod (p_i+1)! sum_graphs w x operator,
    w = raw / ((2pi)^E n!)         (weights.weight),

E = 2n + m - 2 the edge count, the operator applied to the reversed
argument tuple (our ground vertices run left to right, the boundary
points of the disc picture run the other way).  The n! in w makes the
diagonal match the star expansion: the hbar^n star coefficient is
i^n u_n(a,...,a), and at m = 2 w is the star weight.

The identity checks put statistical bounds on the graded symmetry of
u_n and on the L-infinity coherence relation at n <= 2, whose n = 2
bracket side is the exact trivector closed form.  The graph sum runs
over orbits; weights at every ground count are star._resolve_weights'
table entries, read as the star engine reads them (a member's own
entry, else its representative's), from cfg.table or one per check,
and resolved once per family and state of the table's entries.
Values are star.Measured with one error source per sampled entry,
keyed by its serial and carrying d/dw of that entry, so a bound reads
each entry's std_error from the same table.  Operators come from
operators.orbit_operators, the family cache the star engine reads too,
so equal field tuples build each orbit operator once across checks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

from .errors import ConfigError, DegreeMismatchError, DimensionMismatchError
from .operators import orbit_operators
from .poly import Polynomial, _Sum
from .polyvector import PolyVectorField, schouten
from .rational import QI
from .star import (Measured, ResidualReport, StarConfig, _resolve_weights,
                   _verdict_rows, quadrature_bound)
from .weights import WeightTable

# Sign relating the assembled composition side of the coherence
# identity to eps_12 u_1([a_1, a_2]).  First calibrated numerically on
# two independent pairs of random linear bivectors; with every order-2
# star weight exact (weights.SOLVED_WEIGHTS) the identity holds exactly
# at this sign, and the opposite sign misses by 4/3
# (tests/test_formality.py::TestCoherence::test_rhs_sign_exact).  All
# stacked orientation conventions enter here and nowhere else.
LINFTY_RHS_SIGN = -1


def ghost_argument_count(n: int, degrees) -> int:
    """Argument count at which u_n can be nonzero: 2 - n + sum p_i."""
    return 2 - n + sum(degrees)


def _check_dims(fields, args):
    if not args:
        raise DegreeMismatchError("u_n needs at least one argument")
    dim = args[0].dim
    for a in args:
        if a.dim != dim:
            raise DimensionMismatchError("argument dimensions disagree")
    for f in fields:
        if f.dim != dim:
            raise DimensionMismatchError("field and argument dimensions disagree")
    return dim


def _u1_closed(field: PolyVectorField, args) -> Polynomial:
    """((-1)^(p+1)/(p+1)!) a^{j0..jp} d_{j0}f_0 ... d_{jp}f_p, exact."""
    p = field.degree
    dim = field.dim
    sign = QI(Fraction((-1) ** (p + 1), math.factorial(p + 1)))
    out = Polynomial.zero(dim)
    for idx, comp in field.iter_full_components():
        term = comp
        for slot, j in enumerate(idx):
            if term.is_zero():
                break
            term = term * args[slot].derivative((j,))
        if not term.is_zero():
            out = out + term
    return out * sign


def _u_numeric(fields, args, cfg: StarConfig) -> Measured:
    """Labeled graph sum over orbits with nonzero applied value; args
    applied reversed, weights read from cfg.table by _resolve_weights.
    Each sampled entry's sensitivity is d/dw of its value.  The value
    is one poly._Sum of the applied values scaled by rational x c_e x
    w, normalised once per monomial.
    """
    n = len(fields)
    rational = QI(Fraction((-1) ** n, math.prod(
        math.factorial(f.degree + 1) for f in fields)))
    rev = tuple(reversed(args))
    ops = orbit_operators(tuple(fields), len(args))
    applied = {orbit: ops.apply(orbit, rev) for _, orbit, _ in ops.orbits}
    orbits = [o for o in ops.orbits if not applied[o[1]].is_zero()]
    value = _Sum(args[0].dim)
    sens: dict = {}
    for r, ser, c, w, sigma in _resolve_weights([(n, ops, orbits)], cfg,
                                                cfg.table):
        scale = rational * c
        value.add(applied[r[1]], scale * w)
        if sigma:
            sens[ser] = applied[r[1]] * scale
    return Measured(value.polynomial(), sens)


def _apply_u(fields, args, cfg: StarConfig) -> Measured:
    """Ghost-gated u_n on plain polynomial arguments."""
    n = len(fields)
    dim = _check_dims(fields, args)
    if len(args) != ghost_argument_count(n, [f.degree for f in fields]):
        return Measured(Polynomial.zero(dim))
    if n == 0:
        return Measured(args[0] * args[1])
    if n == 1:
        return Measured(_u1_closed(fields[0], args))
    return _u_numeric(fields, args, cfg)


def _apply_u_carrying(fields, args, cfg: StarConfig) -> Measured:
    """As _apply_u but arguments are Measured; multilinear first order."""
    n = len(fields)
    values = [a.value for a in args]
    base = _apply_u(fields, values, cfg)
    carriers = [(slot, a) for slot, a in enumerate(args) if a.sens]
    if not carriers or len(values) != ghost_argument_count(
            n, [f.degree for f in fields]):
        return base
    if n >= 2:
        raise ConfigError(
            "statistical arguments inside a sampled map mix error sources; "
            "restructure the check")
    sens = dict(base.sens)
    for slot, a in carriers:
        for ser, spoly in a.sens.items():
            sub = list(values)
            sub[slot] = spoly
            push = _apply_u(fields, sub, cfg).value
            sens[ser] = sens[ser] + push if ser in sens else push
    return Measured(base.value, sens)


def _with_table(cfg: StarConfig | None) -> StarConfig:
    """cfg (default StarConfig()), given a WeightTable of its own when
    it has none, as the star engine does."""
    cfg = cfg or StarConfig()
    return cfg if cfg.table is not None else replace(cfg, table=WeightTable())


def u_n(fields, args, cfg: StarConfig | None = None) -> Polynomial:
    """The n-linear graph map on polynomial arguments; off the ghost
    arity the result is exactly zero."""
    return _apply_u(fields, args, _with_table(cfg)).value


def _single_row_report(identity, resid: Measured, cfg) -> ResidualReport:
    bound = quadrature_bound(resid, [(s, cfg.table.lookup(s).std_error)
                                     for s in resid.sens])
    return ResidualReport(identity, cfg.policy,
                          _verdict_rows([resid.value], [bound], cfg.policy))


def graded_symmetry_check(fields, args,
                          cfg: StarConfig | None = None) -> ResidualReport:
    """Residual of the graded symmetry of u_n under swapping its first
    two fields: fields of degrees p_0, p_1 swap at the cost of
    (-1)^{(p_0-1)(p_1-1)}.
    """
    cfg = _with_table(cfg)
    if len(fields) < 2:
        raise ConfigError("symmetry check needs at least two fields")
    sign = QI((-1) ** ((fields[0].degree - 1) * (fields[1].degree - 1)))
    swapped = [fields[1], fields[0], *fields[2:]]
    a = _apply_u(list(fields), list(args), cfg)
    b = _apply_u(swapped, list(args), cfg)
    return _single_row_report("graded symmetry", a + b * -sign, cfg)


def _eps_shuffle(sigma, gs, split) -> int:
    total = 0
    for r in range(split):
        sr = sigma[r]
        passed = sum(gs[:sr]) - sum(gs[sigma[s]] for s in range(r))
        total += gs[sr] * passed
    return -1 if total % 2 else 1


def _eps_pair(j, k, gs) -> int:
    a = sum(gs[:j + 1]) * gs[j]
    b = (sum(gs[:j]) + sum(gs[j + 1:k])) * gs[k]
    return -1 if (a + b) % 2 else 1


def linfty_check(fields, args, cfg: StarConfig | None = None) -> ResidualReport:
    """Coherence identity at n <= 2: compositions vs the bracket term.

    Assembles the double sum of U_l-into-U_{n-l} insertions (with
    U_q = q! u_q) over every split, insertion slot and shuffle, and
    subtracts LINFTY_RHS_SIGN x eps_12 (n-1)! u_{n-1}([a_i, a_j], ...)
    built on the exact Schouten closed form.  Fields need not be
    Poisson; the identity is unconditional.
    """
    cfg = _with_table(cfg)
    n = len(fields)
    if n < 1 or n > 2:
        raise ConfigError("coherence check supports one or two fields")
    dim = _check_dims(fields, args)
    m = len(args) - 1
    if m < 1:
        raise ConfigError("coherence check needs at least two arguments")
    gs = [f.degree - 1 for f in fields]
    msign = -1 if m % 2 else 1
    acc = Measured(Polynomial.zero(dim))
    for split in range(n + 1):
        for chosen in itertools.combinations(range(n), split):
            rest = tuple(t for t in range(n) if t not in chosen)
            sigma = chosen + rest
            eps = _eps_shuffle(sigma, gs, split)
            outer_fields = [fields[t] for t in chosen]
            inner_fields = [fields[t] for t in rest]
            mult_base = eps * msign * math.factorial(split) \
                * math.factorial(n - split)
            for k in range(1, m):
                for i in range(m - k + 1):
                    inner = _apply_u(inner_fields, list(args[i:i + k + 1]),
                                     cfg)
                    if inner.value.is_zero() and not inner.sens:
                        continue
                    outer_args = [Measured(a) for a in args[:i]] \
                        + [inner] \
                        + [Measured(a) for a in args[i + k + 1:]]
                    term = _apply_u_carrying(outer_fields, outer_args, cfg)
                    face = -1 if (k * (i + 1)) % 2 else 1
                    acc = acc + term * QI(mult_base * face)
    if n == 2:
        rhs = _apply_u([schouten(*fields)], list(args), cfg)
        acc = acc + rhs * QI(-LINFTY_RHS_SIGN * _eps_pair(0, 1, gs))
    return _single_row_report("linfty coherence", acc, cfg)
