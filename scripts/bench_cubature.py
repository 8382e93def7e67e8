#!/usr/bin/env python3
"""Time to a stated error on the 2-dimensional weights: the deterministic
rule against the qmc sampler, written to a JSON file.

    PYTHONPATH=src python scripts/bench_cubature.py --out BENCH.json
    PYTHONPATH=src python scripts/bench_cubature.py --quick --out x.json

The orbits are those of the star graphs of orders 1-3 with 2 sampled
dimensions (integrand.sampled_dims), one representative each
(graphs.orbit_representative); every figure is in weight units (the
raw integral over (2 pi)^E n!).  For each orbit with a proven value
(weights.exact_weight):

    rule         integrand._cubature at its levels (_RULE_LEVELS): the
                 value's error against the proven value, the rule's
                 error estimate, nodes and seconds per integral
    rule_to_1e-6 the first pair of levels on LADDER whose estimate is
                 at most TARGET: the pair, its nodes, its error against
                 the proven value and seconds per integral
    qmc          integrand._sample at each budget of BUDGETS, one
                 integral per seed of SEEDS: the RMS over seeds of the
                 std_error and of the error against the proven value,
                 and the median seconds per integral
    qmc_to_1e-6  the budget and seconds at which the std_error would
                 reach TARGET, extrapolated from the largest budget
                 along the fitted slope of log std_error against log
                 budget (reported; none when it does not fall) and
                 along the N^-1/2 law; these are extrapolations, not
                 runs

Seconds are the median over --rounds timed calls in this process
(after one untimed call), plan build included.  Each orbit without a
proven value gets the rule's value and estimate alone.

Check: every proven orbit's rule value lies within 1e-9 of the proven
value and within its own estimate, and each rule_to_1e-6 pair is
within TARGET of it; the script exits 1 otherwise.  --quick times fewer
rounds, budgets and seeds, for CI.
"""
import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from starquant import integrand
from starquant.graphs import orbit_representative, serialize, star_graphs
from starquant.weights import exact_weight

TARGET = 1e-6
LADDER = ((8, 12), (12, 16), (16, 24), (24, 32), (32, 48), (48, 64),
          (64, 96))
BUDGETS = (2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18, 2 ** 20)
SEEDS = (0, 1, 2, 3)
QUICK_BUDGETS, QUICK_SEEDS = (2 ** 12, 2 ** 16), (0, 1)


def orbits():
    """Representatives of the 2-dim orbits of orders 1-3, in order."""
    reps = {}
    for order in (1, 2, 3):
        for g in star_graphs(order):
            if integrand.sampled_dims(g) == 2:
                rep, _ = orbit_representative(g)
                reps.setdefault(serialize(rep), rep)
    return list(reps.values())


def seconds(call, rounds: int) -> float:
    """Median seconds of call() over rounds, after one untimed call."""
    call()
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rule(graph, norm: float, levels, rounds: int) -> dict:
    """The rule at levels: value, estimate and nodes in weight units,
    and seconds per integral."""
    saved = integrand._RULE_LEVELS
    integrand._RULE_LEVELS = levels
    try:
        value, error, nodes = integrand._cubature(graph)
        secs = seconds(lambda: integrand._cubature(graph), rounds)
    finally:
        integrand._RULE_LEVELS = saved
    return {"levels": list(levels), "value": value / norm,
            "estimate": error / norm, "nodes": nodes, "seconds": secs}


def qmc(graph, norm: float, want: float, budgets, seeds) -> dict:
    integrand._sample(graph, "qmc", budgets[0], seeds[0])     # untimed
    points = []
    for budget in budgets:
        errors, misses, secs = [], [], []
        for seed in seeds:
            t0 = time.perf_counter()
            value, error, _ = integrand._sample(graph, "qmc", budget, seed)
            secs.append(time.perf_counter() - t0)
            errors.append(error / norm)
            misses.append(value / norm - want)
        points.append({
            "budget": budget,
            "std_error_rms": math.sqrt(statistics.fmean(
                e * e for e in errors)),
            "error_rms": math.sqrt(statistics.fmean(m * m for m in misses)),
            "seconds": statistics.median(secs)})
    logs = np.log([[p["budget"], p["std_error_rms"]] for p in points])
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    last = points[-1]
    reach = {}
    for name, rate in (("fitted_slope", slope), ("half_law", -0.5)):
        budget = last["budget"] * (last["std_error_rms"] / TARGET) ** (
            -1 / rate) if rate < 0 else None
        reach[name] = {"slope": rate, "budget": budget,
                       "seconds": None if budget is None
                       else last["seconds"] * budget / last["budget"]}
    return {"points": points, "to_target": reach}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--quick", action="store_true",
                    help="2 rounds, budgets 2^12 and 2^16, 2 seeds")
    ns = ap.parse_args()
    rounds = 2 if ns.quick else ns.rounds
    budgets, seeds = (QUICK_BUDGETS, QUICK_SEEDS) if ns.quick \
        else (BUDGETS, SEEDS)

    proven, open_orbits, ok = {}, {}, True
    for graph in orbits():
        ser = serialize(graph)
        norm = (2 * math.pi) ** graph.edge_count * math.factorial(graph.n)
        exact = exact_weight(graph)
        default = rule(graph, norm, integrand._RULE_LEVELS, rounds)
        if exact is None:
            open_orbits[ser] = {k: default[k] for k in ("value", "estimate")}
            print(f"{ser}: {default['value']:+.12f} "
                  f"+/- {default['estimate']:.1e} (no proven value)")
            continue
        want = float(exact)
        default["error"] = abs(default["value"] - want)
        for levels in LADDER:
            reached = rule(graph, norm, levels, rounds)
            if reached["estimate"] <= TARGET:
                break
        reached["error"] = abs(reached["value"] - want)
        sampled = qmc(graph, norm, want, budgets, seeds)
        ok = ok and default["error"] <= min(1e-9, default["estimate"]) \
            and reached["error"] <= TARGET
        proven[ser] = {"proven": [exact.numerator, exact.denominator],
                       "rule": default, "rule_to_1e-6": reached,
                       "qmc": sampled}
        half = sampled["to_target"]["half_law"]
        print(f"{ser} = {exact}: rule error {default['error']:.1e} "
              f"(estimate {default['estimate']:.1e}) in "
              f"{default['seconds'] * 1e3:.2f} ms; 1e-6 at levels "
              f"{reached['levels']} in {reached['seconds'] * 1e3:.2f} ms; "
              f"qmc 1e-6 at N^-1/2 extrapolated to {half['budget']:.2e} "
              f"points, {half['seconds']:.3g} s (fitted slope "
              f"{sampled['to_target']['fitted_slope']['slope']:.2f})")
    record = {
        "harness": "scripts/bench_cubature.py" + (" --quick" * ns.quick),
        "what": "2-dim orbits of orders 1-3 in weight units: the "
                "deterministic rule's error against each proven value, "
                "its estimate and seconds per integral, the first level "
                f"pair whose estimate reaches {TARGET:g}, and qmc's "
                "std_error, error and seconds by budget with the budget "
                f"and seconds extrapolated to a std_error of {TARGET:g}; "
                "seconds are medians over rounds in one process, plan "
                "build included",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__},
        "rounds": rounds, "target": TARGET,
        "rule_levels": list(integrand._RULE_LEVELS),
        "qmc_budgets": list(budgets), "qmc_seeds": list(seeds),
        "check": {"what": "each proven orbit's rule value within 1e-9 and "
                          "within its estimate; each level pair that "
                          f"reaches the target within {TARGET:g}",
                  "passed": ok},
        "proven": proven,
        "without_proven_value": open_orbits,
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"check passed: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
