#!/usr/bin/env python3
"""Time star.probe_sup on the probes of one verify_o2_warm unit and
count build_operator calls of two order-3 so(3) star products; write
the figures to a JSON file.

    PYTHONPATH=src python scripts/bench_probe.py --out BENCH_9.json

Probe.  One unit of the perfbench verify_o2_warm workload (seed --seed)
runs once with star.probe_sup recording its arguments.  The recorded
polynomials are then probed --rounds times by pointwise_probe_sup (exact
evaluation at each of the 3^d lattice points, kept here as the
reference) and by star.probe_sup, alternating which goes first; the
file records the median and quartiles of the seconds per round for
each, and whether every float agreed bit for bit.

Builds.  Two order-3 star products of the star_o3_so3 workload's cubic
pair (seed --seed) on equal but distinct so(3) objects, sharing a table
that starts empty, once as the engine runs them and once with the
operators.orbit_operators cache cleared before each product (what
building the operators afresh per call costs).

Exits 1 when a float or a product disagrees.
"""
import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's inputs, imported from its dir)
from starquant.star import PROBE, StarConfig  # noqa: E402
from starquant.weights import IntegrationConfig, WeightTable  # noqa: E402

# starquant.star is shadowed by the exported star() function
star_mod = importlib.import_module("starquant.star")
operators_mod = importlib.import_module("starquant.operators")


def pointwise_probe_sup(p) -> float:
    """Max |p| over PROBE^d, one exact evaluation per lattice point."""
    if p.is_zero():
        return 0.0
    best = 0.0
    for point in itertools.product(PROBE, repeat=p.dim):
        best = max(best, abs(p.eval_exact(point)))
    return best


def recorded_probes(seed: int) -> list:
    """The polynomials one verify_o2_warm unit hands to probe_sup."""
    seen = []
    probe = star_mod.probe_sup

    def recording(p):
        seen.append(p)
        return probe(p)

    star_mod.probe_sup = recording
    try:
        with tempfile.TemporaryDirectory() as work:
            wl = workloads.VerifyO2Warm()
            checks = workloads.Checks()
            wl.unit(wl.setup(seed, Path(work)), checks)
    finally:
        star_mod.probe_sup = probe
    if checks.failures:
        raise SystemExit(f"verify_o2_warm checks failed: {checks.failures}")
    return seen


def quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def time_probes(polys: list, rounds: int) -> dict:
    sides = {"pointwise": pointwise_probe_sup, "folded": star_mod.probe_sup}
    seconds = {side: [] for side in sides}
    values = {}
    for k in range(rounds):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            t0 = time.perf_counter()
            out = [sides[side](p) for p in polys]
            seconds[side].append(time.perf_counter() - t0)
            values[side] = [v.hex() for v in out]
    ratio = (statistics.median(seconds["pointwise"])
             / statistics.median(seconds["folded"]))
    return {
        "calls": len(polys),
        "rounds": rounds,
        "seconds_per_round": {s: quartiles(v) for s, v in seconds.items()},
        "speedup": ratio,
        "identical_floats": values["pointwise"] == values["folded"],
    }


def count_builds(seed: int, shared: bool) -> tuple:
    """build_operator counts of two order-3 so(3) products on equal but
    distinct bivector objects, and the first product's bytes."""
    calls = []
    build = operators_mod.build_operator

    def counting(graph, fields, dim=None):
        calls.append(graph)
        return build(graph, fields, dim)

    f, g = workloads.StarO3So3().setup(seed, ROOT)["pair"]
    cfg = StarConfig(order=3, table=WeightTable(),
                     integration=IntegrationConfig(
                         seed=seed, n_samples=workloads.STAR_SAMPLES))
    operators_mod.build_operator = counting
    operators_mod.orbit_operators.cache_clear()
    per_call, blobs = [], []
    try:
        for _ in range(2):
            if not shared:
                operators_mod.orbit_operators.cache_clear()
            before = len(calls)
            exp = star_mod.star_expansion(f, g, workloads.so3(), cfg)
            per_call.append(len(calls) - before)
            blobs.append(workloads.expansion_bytes(exp))
    finally:
        operators_mod.build_operator = build
        operators_mod.orbit_operators.cache_clear()
    return {"per_product": per_call, "total": len(calls),
            "same_bytes": blobs[0] == blobs[1]}, blobs[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rounds", type=int, default=10)
    ns = ap.parse_args(argv)
    if ns.rounds < 2:
        ap.error("--rounds must be at least 2 (quartiles need two rounds)")

    with contextlib.redirect_stdout(io.StringIO()):
        polys = recorded_probes(ns.seed)
    probe = time_probes(polys, ns.rounds)
    shared, blob = count_builds(ns.seed, shared=True)
    per_call, blob_per_call = count_builds(ns.seed, shared=False)
    ok = (probe["identical_floats"] and shared["same_bytes"]
          and per_call["same_bytes"] and blob == blob_per_call)
    record = {
        "harness": "scripts/bench_probe.py",
        "what": "seconds per round of star.probe_sup over the probes of "
                "one verify_o2_warm unit, folded onto exponent classes "
                "against pointwise exact evaluation; build_operator calls "
                "of two order-3 so(3) star products with the operator "
                "family cache shared across calls and cleared before each",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "seed": ns.seed,
        "probe": probe,
        "order3_builds": {"shared": shared, "cleared_per_call": per_call},
        "identical_results": ok,
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    sec = probe["seconds_per_round"]
    print(f"probe: {probe['calls']} calls, "
          f"{sec['pointwise']['median']:.4f} s pointwise -> "
          f"{sec['folded']['median']:.4f} s folded "
          f"({probe['speedup']:.1f}x); builds: "
          f"{per_call['total']} cleared per call -> {shared['total']} shared")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
