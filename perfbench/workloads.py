"""The three benchmark workloads: seeded inputs, one timed unit each,
and the output checks that feed pass_frac.

Inputs.  Each seed draws, per input tuple, a rotation of the cube (a
signed permutation matrix of determinant +1).  The rotation leaves the
so(3) structure alpha^{ij} = eps^{ijk} x_k and the probe lattice
{-1,0,1}^3 unchanged, and the star product is equivariant under it,
so every seed poses a problem of the same size with the same exact
error bounds, while the polynomials handed to the program differ.  The
base tuples are the acceptance suite's: the criterion-7 triples
(random.Random(707)), the criterion-9 linear bivectors
(random.Random(909)) and the cubic pair x0*x1*x2, x0^2*x1.

err_median is the median of the nonzero propagated errors the outputs
carry: the sampled weights' std_error for the two workloads that
integrate, the reports' per-power bounds for verify_o2_warm.  Single
std_error estimates are heavy-tailed, so the median is steadier across
seeds than an RMS; it is exactly repeatable for a fixed seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import statistics
from fractions import Fraction
from pathlib import Path

from layers import module
from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField
from starquant.rational import QI
from starquant.star import StarConfig
from starquant.weights import IntegrationConfig, WeightTable

DIM = 3
POLICY = 3.0
HALF_I = QI(0, Fraction(1, 2))

# order-2 tables: samples per graph (about 90% of the time is per
# sample) and seeds per run
TABLE_SAMPLES = 131072
TABLE_SEEDS = 8
CLOSED_FORM_GRAPH = "n=2;m=2;1:[L,R];2:[L,R]"
CLOSED_FORM_VALUE = 0.125
# The closed-form graph is checked once a run has its TABLE_SEEDS
# independent tables: their mean against their pooled standard error, at
# the parity audit's hard lane of 5 sigma.  One table's std_error is not
# a stable error bar for this heavy-tailed integrand (32 replicates
# understate its spread): at 2^17 samples, 32 seeds in 1000 miss 1/8 by
# more than 3 of their own sigma and 4 in 1000 by more than 5, down to
# z = -7.6.  The mean of 8 stayed within 3.9 pooled sigma in 150 runs.
CLOSED_FORM_SIGMAS = 5.0
# order-3 products: total samples per integration (mostly fixed cost)
STAR_SAMPLES = 4096

DATA = Path(__file__).resolve().parent / "data"
PINNED_TABLE = DATA / "o2_table.json"
PINNED_RECORD = DATA / "o2_table.provenance.json"


class SetupError(Exception):
    """The benchmark cannot run: a pinned input is missing or altered."""


class Checks:
    """Output checks of a run: attempted count and named failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

ROTATIONS = []
for _perm in itertools.permutations(range(DIM)):
    _parity = sum(_perm[i] > _perm[j]
                  for i in range(DIM) for j in range(i + 1, DIM)) % 2
    for _signs in itertools.product((1, -1), repeat=DIM):
        if (-1) ** _parity * _signs[0] * _signs[1] * _signs[2] == 1:
            ROTATIONS.append((_perm, _signs))


def variables():
    return [Polynomial.variable(DIM, i) for i in range(DIM)]


def so3() -> PolyVectorField:
    x = variables()
    return PolyVectorField(DIM, 1, {(0, 1): x[2], (0, 2): -x[1],
                                    (1, 2): x[0]})


def rotate_poly(p: Polynomial, rot) -> Polynomial:
    """p(R^T x) for R with R[i][perm[i]] = signs[i]."""
    perm, signs = rot
    terms = {}
    for exps, c in p.terms.items():
        new = tuple(exps[perm[i]] for i in range(DIM))
        sign = 1
        for i in range(DIM):
            sign *= signs[i] ** exps[perm[i]]
        terms[new] = c * sign
    return Polynomial(DIM, terms)


def rotate_bivector(a: PolyVectorField, rot) -> PolyVectorField:
    """Push-forward R a(R^T x) R^T of a bivector."""
    perm, signs = rot
    comps = {}
    for i, j in itertools.combinations(range(DIM), 2):
        comp = a.component((perm[i], perm[j]))
        if not comp.is_zero():
            comps[(i, j)] = rotate_poly(comp, rot) * (signs[i] * signs[j])
    return PolyVectorField(DIM, 1, comps)


def criterion7_poly(rng: random.Random) -> Polynomial:
    out = Polynomial.zero(DIM)
    for _ in range(4):
        term = Polynomial.constant(DIM, QI(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * Polynomial.variable(DIM, rng.randrange(DIM))
        out = out + term
    return out


def criterion9_bivector(rng: random.Random) -> PolyVectorField:
    comps = {}
    for pair in ((0, 1), (0, 2), (1, 2)):
        p = Polynomial.zero(DIM)
        for v in range(DIM):
            c = rng.randint(-2, 2)
            if c:
                p = p + Polynomial.variable(DIM, v) * QI(c)
        if not p.is_zero():
            comps[pair] = p
    return PolyVectorField(DIM, 1, comps)


def seeded_so3(rng: random.Random) -> PolyVectorField:
    alpha = rotate_bivector(so3(), rng.choice(ROTATIONS))
    if alpha != so3():
        raise SetupError("a cube rotation moved the so(3) structure")
    return alpha


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class TableO2Cold:
    """`starquant weight -n 2 --audit parity` in-process, each time on an
    empty table.  Units cycle through TABLE_SEEDS seeds derived from the
    run's seed: one table's std_errors are too few for a steady median
    (their spread across seeds is about 0.17 of it), and the first seed
    that comes round again checks the artifact bytes repeat."""

    name = "table_o2_cold"
    min_units = TABLE_SEEDS + 1

    def setup(self, seed: int, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        out = work / "w2.json"
        return {"out": out, "units": 0, "blobs": {}, "errors": {},
                "closed": {},
                "argvs": [["weight", "-n", "2",
                           "--seed", str(seed * TABLE_SEEDS + j),
                           "--samples", str(TABLE_SAMPLES),
                           "--format", "json", "--audit", "parity",
                           "--out", str(out)] for j in range(TABLE_SEEDS)]}

    def unit(self, state, checks: Checks) -> list:
        j = state["units"] % TABLE_SEEDS
        state["units"] += 1
        state["out"].unlink(missing_ok=True)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = module("cli").main(state["argvs"][j])
        checks.expect(code == 0, "weight exit code")
        audit = [ln for ln in captured.getvalue().splitlines()
                 if ln.startswith("parity audit:")]
        checks.expect(len(audit) == 1 and audit[0].endswith(": pass"),
                      "parity audit")
        blob = state["out"].read_bytes()
        if j in state["blobs"]:
            checks.expect(blob == state["blobs"][j], "artifact bytes repeat")
        state["blobs"][j] = blob
        errors, closed = check_table(json.loads(blob), checks)
        state["errors"][j] = errors
        if closed is not None:
            state["closed"][j] = closed
        if state["units"] == TABLE_SEEDS:
            check_closed_form(list(state["closed"].values()), checks)
        return [e for errs in state["errors"].values() for e in errs]


def check_table(entries: list, checks: Checks):
    """Checks one weight table; returns its std_errors and the
    closed-form graph's (value, std_error), or None if it is missing."""
    hit = [e for e in entries if e["graph"] == CLOSED_FORM_GRAPH]
    checks.expect(len(hit) == 1, f"{CLOSED_FORM_GRAPH} in the table")
    checks.expect(len(entries) == 36, "36 order-2 weights")
    closed = (hit[0]["value"], hit[0]["std_error"]) if len(hit) == 1 else None
    return [e["std_error"] for e in entries], closed


def check_closed_form(estimates: list, checks: Checks) -> None:
    """The mean of independent (value, std_error) estimates of the
    closed-form graph lies within CLOSED_FORM_SIGMAS pooled standard
    errors of 1/8."""
    ok = bool(estimates)
    if ok:
        mean = statistics.fmean(v for v, _ in estimates)
        pooled = math.sqrt(statistics.fmean(s * s for _, s in estimates)
                           / len(estimates))
        ok = abs(mean - CLOSED_FORM_VALUE) <= CLOSED_FORM_SIGMAS * pooled
    checks.expect(ok, f"{CLOSED_FORM_GRAPH} against 1/8")


def load_pinned_table() -> WeightTable:
    try:
        text = PINNED_TABLE.read_bytes()
        record = json.loads(PINNED_RECORD.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"pinned order-2 table unreadable: {exc}") from exc
    digest = hashlib.sha256(text).hexdigest()
    if digest != record.get("sha256"):
        raise SetupError(f"{PINNED_TABLE.name} sha256 {digest} does not "
                         f"match its provenance record")
    return WeightTable.from_json_obj(json.loads(text))


class VerifyO2Warm:
    """so(3) associativity on six triples plus one L-infinity check,
    against the pinned order-2 table."""

    name = "verify_o2_warm"
    min_units = 1

    def setup(self, seed: int, work: Path):
        rng = random.Random(seed)
        alpha = seeded_so3(rng)
        base = random.Random(707)
        x = variables()
        triples = [(x[0], x[1], x[2])]
        triples += [tuple(criterion7_poly(base) for _ in range(3))
                    for _ in range(5)]
        rotated = []
        for triple in triples:
            rot = rng.choice(ROTATIONS)
            rotated.append(tuple(rotate_poly(p, rot) for p in triple))
        base = random.Random(909)
        fields = [criterion9_bivector(base), criterion9_bivector(base)]
        rot = rng.choice(ROTATIONS)
        table = load_pinned_table()
        return {
            "alpha": alpha,
            "triples": rotated,
            "fields": [rotate_bivector(a, rot) for a in fields],
            "args": [rotate_poly(p, rot) for p in x],
            "cfg": StarConfig(order=2, table=table, policy=POLICY,
                              integration=IntegrationConfig(seed=0)),
        }

    def unit(self, state, checks: Checks) -> list:
        cfg = state["cfg"]
        star = module("star")
        bounds = []
        for k, (f, g, h) in enumerate(state["triples"]):
            rep = star.check_associativity(f, g, h, state["alpha"], cfg)
            checks.expect(rep.ok, f"associativity triple {k}")
            if k == 0:
                checks.expect(all(r.residual.is_zero() for r in rep.rows),
                              "coordinate triple residual exactly zero")
            bounds += [r.bound for r in rep.rows]
        rep = module("formality").linfty_check(state["fields"], state["args"],
                                               cfg)
        checks.expect(rep.ok, "linfty coherence")
        bounds += [r.bound for r in rep.rows]
        return bounds


def check_expansion(f: Polynomial, g: Polynomial, alpha: PolyVectorField,
                    series, checks: Checks) -> None:
    """hbar^0 is f g and hbar^1 is (i/2) alpha^{ij} d_i f d_j g, exactly."""
    checks.expect(series.coefficient(0) == f * g, "hbar^0 equals f g")
    want = Polynomial.zero(DIM)
    for (i, j), comp in alpha.iter_full_components():
        want = want + comp * f.diff(i) * g.diff(j)
    checks.expect(series.coefficient(1) == want * HALF_I,
                  "hbar^1 equals (i/2) alpha(df, dg)")


def expansion_bytes(exp) -> bytes:
    return json.dumps({"series": exp.series.to_json_obj(),
                       "bounds": list(exp.bounds)}, sort_keys=True).encode()


class StarO3So3:
    """Two order-3 so(3) star products of one cubic pair sharing a table
    that starts empty: the first fills it, the second only reads it."""

    name = "star_o3_so3"
    min_units = 1

    def setup(self, seed: int, work: Path):
        rng = random.Random(seed)
        alpha = seeded_so3(rng)
        x = variables()
        rot = rng.choice(ROTATIONS)
        return {"alpha": alpha, "seed": seed, "first": None,
                "pair": (rotate_poly(x[0] * x[1] * x[2], rot),
                         rotate_poly(x[0] * x[0] * x[1], rot))}

    def unit(self, state, checks: Checks) -> list:
        f, g = state["pair"]
        alpha = state["alpha"]
        table = WeightTable()
        cfg = StarConfig(order=3, table=table,
                         integration=IntegrationConfig(
                             seed=state["seed"], n_samples=STAR_SAMPLES))
        star = module("star")
        cold = star.star_expansion(f, g, alpha, cfg)
        warm = star.star_expansion(f, g, alpha, cfg)
        for exp in (cold, warm):
            check_expansion(f, g, alpha, exp.series, checks)
        blob = expansion_bytes(cold)
        checks.expect(expansion_bytes(warm) == blob,
                      "warm product repeats the cold bytes")
        if state["first"] is None:
            state["first"] = blob
        else:
            checks.expect(blob == state["first"], "series bytes repeat")
        return [est.std_error for _, est in table if est.exact is None]


WORKLOADS = {w.name: w for w in (TableO2Cold(), VerifyO2Warm(), StarO3So3())}


def err_median(errors) -> float:
    nonzero = [e for e in errors if e]
    return statistics.median(nonzero) if nonzero else 0.0
