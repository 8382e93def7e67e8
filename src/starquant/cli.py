"""Batch front end: enumerate graphs, build weight tables, evaluate
star products and run the verifier suites.

Every command that writes an output file drops a run manifest next to
it (command echo, config, versions, seed, wall clock, output digests).
Primary artifacts are byte-deterministic for a fixed explicit --seed;
the manifest carries the only wall-clock-dependent field.

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 resource cap exceeded (the enumeration cap, or out of memory),
4 sampling failure.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import math
import platform
import random
import sys
import time
import warnings

from . import __version__
from .errors import (
    ConfigError,
    ConvergenceWarning,
    DegreeMismatchError,
    DimensionMismatchError,
    DomainError,
    EnumerationCapError,
    ParseError,
    SamplingError,
    json_int,
)
from .formality import graded_symmetry_check, linfty_check
from .graphs import (
    enumerate_graphs,
    from_json_obj,
    serialize,
    star_graphs,
    to_json_obj,
)
from .poly import Polynomial
from .polyvector import PolyVectorField, validate_poisson
from .rational import QI
from .star import (
    StarConfig,
    check_associativity,
    moyal_reference,
    poisson_center_probe,
    star_expansion,
)
from .weights import (
    TWO_PI,
    IntegrationConfig,
    WeightTable,
    i_p_integral,
    i_p_rational,
)

SUITES = ("jacobi", "assoc", "moyal", "ip", "linfty", "symmetry",
          "center-probe")
# I_p integrates over p + 1 <= integrand.MAX_DIMS dimensions; 8 is a chosen
# bound: at the default budget std_error is 11% of I_8, 20% of I_12
IP_MAX_P = 8
# center-probe's default --f has one dense exponent tuple per coordinate,
# dim^2 integers in all
SQUARES_MAX_DIM = 1024


# ---------------------------------------------------------------------------
# I/O plumbing
# ---------------------------------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_alpha(path: str | None) -> PolyVectorField:
    """Polyvector field from a JSON file; None loads the packaged
    so(3)* linear Poisson structure."""
    if path is None:
        text = importlib.resources.files("starquant").joinpath(
            "data/so3.json").read_text()
        return PolyVectorField.from_json_obj(json.loads(text))
    return PolyVectorField.from_json_obj(_load_json(path))


def load_poly(path: str) -> Polynomial:
    obj = _load_json(path)
    try:
        return Polynomial.from_json_obj(json_int(obj["dim"], "dim"),
                                        obj["poly"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(
            f"{path}: expected {{\"dim\": d, \"poly\": [terms]}}: {exc}"
        ) from exc


def _numpy_version() -> str:
    """numpy's version, read from the package metadata unless numpy is
    loaded already: importing numpy costs about 55 ms, the metadata
    reader about 2 MB of peak RSS."""
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        return numpy.__version__
    import importlib.metadata
    return importlib.metadata.version("numpy")


def _write_artifact(path: str, text: str, ns, t0: float, extra=None):
    with open(path, "w") as fh:
        fh.write(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    config = {k: v for k, v in vars(ns).items()
              if k != "func" and isinstance(v, (int, float, str, bool,
                                                list, tuple, type(None)))}
    manifest = {
        "command": ns.command,
        "config": config,
        "versions": {
            "starquant": __version__,
            "python": platform.python_version(),
            "numpy": _numpy_version(),
        },
        "seed": getattr(ns, "seed", None),
        "elapsed_seconds": round(time.monotonic() - t0, 3),
        "outputs": [{"path": path, "sha256": digest}],
    }
    if extra:
        manifest.update(extra)
    with open(path + ".manifest.json", "w") as fh:
        fh.write(_dump(manifest))


def _integration(ns) -> IntegrationConfig:
    kw = {"seed": ns.seed}
    if getattr(ns, "samples", None) is not None:
        kw["n_samples"] = ns.samples
    if getattr(ns, "method", None) is not None:
        kw["method"] = ns.method
    if getattr(ns, "error_target", None) is not None:
        kw["error_target"] = ns.error_target
    return IntegrationConfig(**kw)


def _star_config(ns) -> StarConfig:
    return StarConfig(
        order=getattr(ns, "order", 2),
        integration=_integration(ns),
        policy=getattr(ns, "policy", 3.0),
        jacobi="warn" if getattr(ns, "skip_jacobi", False) else "require",
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_enumerate(ns) -> int:
    t0 = time.monotonic()
    try:
        degrees = ([int(d) for d in ns.degrees.split(",")] if ns.degrees
                   else [1] * ns.n)
    except ValueError as exc:
        raise ParseError(f"--degrees {ns.degrees!r} is not a comma list "
                         "of integers") from exc
    graphs = enumerate_graphs(ns.n, ns.m, degrees)
    print(f"{len(graphs)} graphs for n={ns.n} m={ns.m} "
          f"degrees={','.join(map(str, degrees))}")
    if ns.out:
        text = _dump([to_json_obj(g) for g in graphs])
        _write_artifact(ns.out, text, ns, t0)
    return 0


def cmd_weight(ns) -> int:
    t0 = time.monotonic()
    if ns.graphs:
        objs = _load_json(ns.graphs)
        if not isinstance(objs, list):
            raise ParseError(f"{ns.graphs}: expected a JSON list of graphs")
        graphs = [from_json_obj(obj) for obj in objs]
    elif ns.n is not None:
        graphs = star_graphs(ns.n)
    else:
        raise ParseError("need --graphs FILE or -n ORDER")
    cfg = _integration(ns)
    table = WeightTable()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        table.ensure(graphs, cfg, use_exact=ns.exact)
    for w in caught:
        if issubclass(w.category, ConvergenceWarning):
            print(f"warning: {w.message}")
    audit_code = 0
    if ns.audit == "parity":
        audit_code, lines = _parity_audit(table, graphs)
        for line in lines:
            print(line)
    text = (table.to_csv() if ns.format == "csv"
            else _dump(table.to_json_obj()))
    if ns.out:
        _write_artifact(ns.out, text, ns, t0)
    else:
        sys.stdout.write(text)
    print(f"{len(table)} weights computed")
    return audit_code


def _parity_audit(table: WeightTable, graphs) -> tuple[int, list[str]]:
    """Per-graph mirror check at 3 and 5 sigma, each distinct graph
    once; the 3-sigma lane gets a small statistical allowance.  Only
    two-ground graphs have a mirror; others are skipped."""
    checks = []
    for g in dict.fromkeys(graphs):
        if g.m != 2:
            continue
        est = table.get(g)
        mest = table.get(g.mirror())
        if mest is None:
            continue
        sign = (-1) ** g.n
        want = sign * (est.exact if est.exact is not None else est.value)
        diff = abs((mest.exact if mest.exact is not None else mest.value)
                   - want)
        sigma = math.hypot(est.std_error, mest.std_error)
        checks.append((serialize(g), diff, sigma))
    if not checks:
        return 2, ["parity audit: no mirror pairs found"]
    miss3 = [c for c in checks if c[1] > 3 * c[2]]
    miss5 = [c for c in checks if c[1] > 5 * c[2]]
    allowed3 = len(checks) - math.ceil(len(checks) * 34 / 36)
    ok = len(miss3) <= allowed3 and not miss5
    lines = [f"parity audit: {len(checks) - len(miss3)}/{len(checks)} "
             f"within 3 sigma (allowance {allowed3}), "
             f"{len(checks) - len(miss5)}/{len(checks)} within 5 sigma: "
             f"{'pass' if ok else 'FAIL'}"]
    for ser, diff, sigma in miss3:
        lines.append(f"  outlier {ser}: |diff|={diff:.3e} sigma={sigma:.3e}")
    return (0 if ok else 1), lines


def cmd_star(ns) -> int:
    t0 = time.monotonic()
    alpha = load_alpha(ns.alpha)
    f = load_poly(ns.f)
    g = load_poly(ns.g)
    cfg = _star_config(ns)
    exp = star_expansion(f, g, alpha, cfg)
    out_obj = {
        "dim": alpha.dim,
        "order": cfg.order,
        "series": exp.series.to_json_obj(),
        "bounds": list(exp.bounds),
    }
    text = _dump(out_obj)
    if ns.out:
        _write_artifact(ns.out, text, ns, t0)
    else:
        sys.stdout.write(text)
    return 0


def _default_args(dim: int, n: int | None = None) -> list[Polynomial]:
    """The coordinates x_1 .. x_n of R^dim, all dim of them by default."""
    if dim < 1:
        raise ConfigError(f"default arguments need dimension >= 1, "
                          f"got {dim}")
    return [Polynomial.variable(dim, i) for i in range(min(dim, n or dim))]


def _seeded_bivector(rng: random.Random, dim: int) -> PolyVectorField:
    comps = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            p = Polynomial.zero(dim)
            for v in range(dim):
                c = rng.randint(-2, 2)
                if c:
                    p = p + Polynomial.variable(dim, v) * QI(c)
            if not p.is_zero():
                comps[(i, j)] = p
    return PolyVectorField(dim, 1, comps)


def cmd_verify(ns) -> int:
    t0 = time.monotonic()
    suite = ns.suite
    if ns.order < 0:        # every suite, including those that read none
        raise ConfigError("truncation order must be >= 0")
    report_obj, ok, lines = _run_suite(suite, ns)
    for line in lines:
        print(line)
    if ns.out:
        _write_artifact(ns.out, _dump(report_obj), ns, t0)
    return 0 if ok else 1


def _run_suite(suite: str, ns):
    if suite == "jacobi":
        alpha = load_alpha(ns.alpha)
        rep = validate_poisson(alpha)
        return rep.to_json_obj(), rep.ok, [rep.summary()]

    if suite == "assoc":
        alpha = load_alpha(ns.alpha)
        paths = (ns.f, ns.g, ns.h)
        missing = [f"--{k}" for k, p in zip("fgh", paths) if p is None]
        if not missing:
            triple = [load_poly(p) for p in paths]
        elif len(missing) < 3:
            raise ParseError("verify assoc takes --f, --g and --h together; "
                             f"missing {', '.join(missing)}")
        else:
            # quadratic, so the hbar^2 residual reads order-2 weights
            x = _default_args(alpha.dim, 4)
            triple = [x[i % alpha.dim] * x[(i + 1) % alpha.dim]
                      for i in range(3)]
        rep = check_associativity(*triple, alpha, _star_config(ns))
        return rep.to_json_obj(), rep.ok, [rep.summary()]

    if suite == "moyal":
        dim = 2
        one = Polynomial.constant(dim, QI(1))
        alpha = PolyVectorField(dim, 1, {(0, 1): one})
        x, y = Polynomial.variable(dim, 0), Polynomial.variable(dim, 1)
        cases, all_ok, lines = [], True, []
        cfg = StarConfig(order=3, integration=_integration(ns),
                         table=WeightTable(), jacobi="require")
        for f, g, name in ((x * x, y * y, "x^2,y^2"), (x, y, "x,y"),
                           (x * x * y, x * y, "x^2y,xy")):
            got = star_expansion(f, g, alpha, cfg).series
            want = moyal_reference(f, g, alpha, 3)
            resid = max((a - b).max_abs_coeff()
                        for a, b in zip(got.coeffs, want.coeffs))
            ok = resid == 0.0
            all_ok = all_ok and ok
            cases.append({"pair": name, "max_residual": resid, "ok": ok})
            lines.append(f"moyal {name}: {'exact match' if ok else 'FAIL'}")
        return {"suite": "moyal", "cases": cases, "ok": all_ok}, all_ok, lines

    if suite == "ip":
        if not 1 <= ns.p <= IP_MAX_P:
            raise ConfigError(f"-p must be between 1 and {IP_MAX_P}, "
                              f"got {ns.p}")
        cfg = _integration(ns)
        est = i_p_integral(ns.p, cfg)
        target = float(TWO_PI ** (ns.p + 1) * i_p_rational(ns.p))
        z = (abs(est.value - target) / est.std_error
             if est.std_error else float("inf"))
        ok = abs(est.value - target) <= 3 * est.std_error
        obj = {"suite": "ip", "p": ns.p, "value": est.value,
               "std_error": est.std_error, "target": target, "ok": ok}
        line = (f"ip p={ns.p}: {est.value:.6f} +/- {est.std_error:.2e} "
                f"vs {target:.6f} ({z:.2f} sigma): "
                f"{'pass' if ok else 'FAIL'}")
        return obj, ok, [line]

    if suite in ("linfty", "symmetry"):
        rng = random.Random(1000 + ns.seed)
        fields = [_seeded_bivector(rng, 3), _seeded_bivector(rng, 3)]
        x = _default_args(3)
        rep = (linfty_check(fields, x, _star_config(ns)) if suite == "linfty"
               else graded_symmetry_check(fields, [x[0] * x[1], x[2]],
                                          _star_config(ns)))
        return rep.to_json_obj(), rep.ok, [rep.summary()]

    if suite == "center-probe":
        alpha = load_alpha(ns.alpha)
        if ns.f:
            x = _default_args(alpha.dim, 2)
            f = load_poly(ns.f)
        elif alpha.dim > SQUARES_MAX_DIM:
            raise ConfigError(
                f"the default --f, the sum of squares, takes dimension <= "
                f"{SQUARES_MAX_DIM} (its dense terms grow as dim^2), got "
                f"{alpha.dim}; pass --f")
        else:               # sum of squares, one term per coordinate
            x = _default_args(alpha.dim)
            f = Polynomial(alpha.dim, {e: 1 for v in x for e in (v * v).terms})
        g = load_poly(ns.g) if ns.g else x[min(1, alpha.dim - 1)]
        rep = poisson_center_probe(f, g, alpha, _star_config(ns))
        return rep.to_json_obj(), rep.ok, [rep.summary()]

    raise ParseError(f"unknown suite {suite!r}; choose from "
                     + ", ".join(SUITES))


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="starquant",
        description="Graph-expansion star products: enumeration, weights, "
                    "star evaluation and verifier suites.")
    sub = top.add_subparsers(dest="command", required=True)

    def common_numeric(p, order_help="truncation order (default 2)"):
        p.add_argument("--seed", type=int, default=0,
                       help="integration seed (explicit seed => "
                            "byte-identical artifacts)")
        p.add_argument("--samples", type=int, default=None,
                       help="total sample budget per sampled graph "
                            "(default: by form degree, about 4e6 at "
                            "order 2); a graph with 2 sampled dimensions "
                            "gets the deterministic rule instead")
        p.add_argument("--method", choices=("qmc", "mc"),
                       default=None,
                       help="sampler (default qmc); the deterministic "
                            "rule's graphs ignore it")
        p.add_argument("--out", help="write the primary JSON artifact here "
                                     "(manifest lands next to it)")
        if order_help:
            p.add_argument("-N", "--order", type=int, default=2,
                           help=order_help)

    p = sub.add_parser("enumerate", help="list admissible graphs")
    p.add_argument("-n", type=int, required=True, help="aerial vertices")
    p.add_argument("-m", type=int, default=2, help="ground vertices")
    p.add_argument("--degrees", help="comma list of vertex degrees "
                                     "(default: all bivector)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("weight", help="integrate a weight table")
    p.add_argument("--graphs", help="JSON array of graph objects")
    p.add_argument("-n", type=int, help="all star graphs of this order")
    common_numeric(p, order_help=None)
    p.add_argument("--error-target", type=float, default=None,
                   help="warn (exit 0) when std_error misses this")
    p.add_argument("--exact", action="store_true",
                   help="install known closed forms instead of sampling")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--audit", choices=("parity",),
                   help="run the mirror-sign audit on the finished table")
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("star", help="evaluate a star product expansion")
    p.add_argument("--alpha", help="polyvector JSON (default: packaged "
                                   "so(3) structure)")
    p.add_argument("--f", required=True, help="polynomial JSON file")
    p.add_argument("--g", required=True, help="polynomial JSON file")
    p.add_argument("--skip-jacobi", action="store_true",
                   help="downgrade the Poisson check to a warning")
    common_numeric(p)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("verify", help="run a verifier suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--alpha")
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--h")
    p.add_argument("-p", type=int, default=1,
                   help=f"ip suite: which I_p, 1 <= p <= {IP_MAX_P} "
                        "(default 1)")
    p.add_argument("--policy", type=float, default=3.0)
    p.add_argument("--skip-jacobi", action="store_true")
    common_numeric(p, order_help="truncation order, >= 0 for every suite "
                                 "(default 2); moyal always runs at order "
                                 "3, and jacobi and ip read no order")
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; lower the sample budget or order",
              file=sys.stderr)
        return 3
    except OverflowError as exc:        # e.g. a dimension past sys.maxsize
        print(f"error: too large for this machine: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ConfigError, DegreeMismatchError,
            DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except SamplingError as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
