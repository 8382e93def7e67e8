#!/usr/bin/env python3
"""Time weights.integrate_graph_form in two checkouts and write the
figures to a JSON file.

    PYTHONPATH=src python scripts/bench_integrator.py --parent OTHER/src \
        --out BENCH.json

Four points, each a fixed set of sampled graphs at one sample budget,
timed a fixed number of times per graph and round:

    order3_4096      six order-3 star graphs at 4096 samples, 5 times
                     each (fixed per-integration cost dominates; four
                     have 4 sampled dimensions, two have 6)
    order4_4096      four order-4 star graphs with 8 sampled dimensions
                     at 4096 samples, 5 times each
    order2_131072    two order-2 star graphs with 4 sampled dimensions,
                     the wheel and 1:[L,R];2:[L,R], at 2^17 samples, 3
                     times each
    order2_default   the same two at the default budget (2^22), once

The script exits 1 before timing if the deterministic rule integrates
any listed graph (paired.require_sampled).

Each round runs one fresh interpreter per side, alternating which side
goes first.  A worker integrates the first graph of each point once
untimed (imports, lazy set-up), then times every graph, with
single-threaded BLAS; a graph's time in the round is the minimum over
its repeats, so one noisy moment on a shared host does not decide a
round.  Per point and side the file records the median and quartiles
over rounds of seconds per integration, samples per second and minor
page faults per integration (the ru_minflt delta over the timed runs
over their number; a worker is a library caller, so glibc's malloc
thresholds are its defaults), the median std_error of the
star-normalised weights obtained, and in how many rounds the change was
faster.

Time to a stated std_error (the figure to compare when a change alters
the noise, not samples per second), at the first two points.  One
std_error estimate is heavy-tailed, so a graph's noise is the RMS of
its star-normalised std_error over NOISE_SEEDS seeds.  Per graph the
target is the parent's noise at the point's budget N.  A side whose
noise there is s needs about N (s / target)^2 samples, as std_error
falls like N^-1/2; that count, rounded up to a power of two and at
least MIN_BUDGET, starts the side's budget for the graph, which is
doubled until its noise meets the target (up to 64 N; the file marks
a graph that never does).  Noise within NOISE_RTOL of the target meets
it, so a change that moves the floats at rounding level keeps N.  A second series of rounds times each side
at its budgets, and the file records the budgets, the noise they gave
and the seconds per integration.

Plan build, at the end of each round of the first series: the mean
seconds per integrand._Plan over all 1728 order-3 star graphs at
PLAN_ROWS rows (the 32 replicates of 128 rows of an order-3 integral at
4096 samples), the minimum over PLAN_REPEATS passes in the worker; per
side the median and quartiles over rounds, and in how many rounds the
change was faster.

Both sides must return identical (value, std_error, n_samples) for
every graph, else the script exits 1.  With --moved-results (for a
change that alters the estimates on purpose) each graph's two values
must instead agree within 4 joint standard errors, with equal
n_samples; the file records which check ran and its worst z.
"""
import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from paired import (add_options, checkouts, require_sampled, run_rounds,
                    run_worker, spread, versions)

# resolved at import, so that --help fails once the private name is gone;
# a worker imports it from its own side's src (PYTHONPATH), where it lives
# in starquant.integrand, or in starquant.weights before the sampler moved
try:
    from starquant.integrand import _Plan
except ImportError:
    from starquant.weights import _Plan

POINTS = {
    "order3_4096": (4096, 5, [
        "n=3;m=2;1:[2,L];2:[1,R];3:[L,R]",
        "n=3;m=2;1:[2,L];2:[3,R];3:[L,R]",
        "n=3;m=2;1:[2,3];2:[L,R];3:[L,R]",
        "n=3;m=2;1:[2,L];2:[3,L];3:[1,R]",
        "n=3;m=2;1:[2,3];2:[3,L];3:[L,R]",
        "n=3;m=2;1:[2,R];2:[3,L];3:[1,L]",
    ]),
    "order4_4096": (4096, 5, [
        "n=4;m=2;1:[2,L];2:[3,R];3:[4,L];4:[1,R]",
        "n=4;m=2;1:[2,3];2:[3,L];3:[4,R];4:[1,L]",
        "n=4;m=2;1:[2,L];2:[3,L];3:[4,R];4:[1,R]",
        "n=4;m=2;1:[2,R];2:[3,4];3:[1,L];4:[L,R]",
    ]),
    "order2_131072": (131072, 3, [
        "n=2;m=2;1:[2,L];2:[1,R]",
        "n=2;m=2;1:[L,R];2:[L,R]",
    ]),
    "order2_default": (None, 1, [
        "n=2;m=2;1:[2,L];2:[1,R]",
        "n=2;m=2;1:[L,R];2:[L,R]",
    ]),
}
TO_STD_ERROR = ("order3_4096", "order2_131072")
MIN_BUDGET = 256                        # 8 rows per replicate
SEED = 0
NOISE_SEEDS = 8
AGREE_SIGMAS = 4.0
# relative slack on the noise target: rounding-level noise is not noisier
NOISE_RTOL = 1e-9
PLAN_BUILD = "order3_plan_build"
PLAN_ROWS = 4096
PLAN_REPEATS = 3


def plan_seconds() -> float:
    """Mean seconds per integrand._Plan over every order-3 star graph at
    PLAN_ROWS rows, the minimum over PLAN_REPEATS passes."""
    from starquant.graphs import star_graphs

    graphs = star_graphs(3)
    best = math.inf
    for _ in range(PLAN_REPEATS):
        t0 = time.perf_counter()
        for g in graphs:
            _Plan(g, PLAN_ROWS)
        best = min(best, time.perf_counter() - t0)
    return best / len(graphs)


def worker(budgets: dict | None, noise: bool) -> dict:
    """One round in this interpreter: per point, the summed minimum
    seconds of its graphs, the minor page faults per timed integration,
    and the (value, std_error, n_samples) and star-normalised std_error
    of each.  budgets maps point names to a
    budget per graph; by default every point at its own budget, and the
    round also times the plan build (PLAN_BUILD).  With noise, per
    point only each graph's noise, untimed."""
    from starquant.graphs import parse
    from starquant.weights import (TWO_PI, IntegrationConfig,
                                   integrate_graph_form, stable_seed)

    def run(text, n_samples, seed=SEED):
        cfg = IntegrationConfig(seed=stable_seed(seed, text),
                                n_samples=n_samples)
        return integrate_graph_form(parse(text), cfg)

    def normalised(text, std_error):
        g = parse(text)
        return std_error / (TWO_PI ** (2 * g.n) * math.factorial(g.n))

    build = budgets is None and not noise
    if budgets is None:
        budgets = {name: [n] * len(texts)
                   for name, (n, _, texts) in POINTS.items()}
    if noise:
        return {name: [math.sqrt(statistics.fmean(
            normalised(text, run(text, n, seed)[1]) ** 2
            for seed in range(NOISE_SEEDS)))
            for text, n in zip(POINTS[name][2], per_graph)]
            for name, per_graph in budgets.items()}
    for name in budgets:
        run(POINTS[name][2][0], budgets[name][0])
    out = {}
    for name, per_graph in budgets.items():
        _, repeats, texts = POINTS[name]
        results, seconds, faults = [], 0.0, 0
        for text, n in zip(texts, per_graph):
            times = []
            for _ in range(repeats):
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                result = run(text, n)
                times.append(time.perf_counter() - t0)
                faults += (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                           - f0)
            results.append(result)
            seconds += min(times)
        out[name] = {"seconds": seconds, "results": results,
                     "faults": faults / (repeats * len(texts)),
                     "std_errors": [normalised(t, r[1])
                                    for t, r in zip(texts, results)]}
    if build:       # last, so its allocations do not precede the faults
        out[PLAN_BUILD] = {"seconds": plan_seconds()}
    return out


def run_side(src: Path, budgets: dict | None = None,
             noise: bool = False) -> dict:
    argv = ["--worker"]
    if budgets is not None:
        argv += ["--budgets", json.dumps(budgets)]
    if noise:
        argv.append("--noise")
    return run_worker(__file__, src, argv)


def timed_rounds(sides: dict, n_rounds: int, budgets: dict) -> dict:
    """Alternating rounds; budgets maps each side to its worker budgets."""
    return run_rounds(
        sides, n_rounds, lambda side: run_side(sides[side], budgets[side]),
        lambda rounds: ", ".join(
            f"{p} {rounds['parent'][-1][p]['seconds']:.4g}s -> "
            f"{rounds['change'][-1][p]['seconds']:.4g}s"
            for p in rounds["parent"][-1]))


def summarise(rounds: list, name: str) -> dict:
    per = [r[name]["seconds"] / len(POINTS[name][2]) for r in rounds]
    samples = rounds[0][name]["results"][0][2]
    return {"s_per_integration": spread(per),
            "samples_per_s": spread([samples / s for s in per]),
            "minor_faults_per_integration": spread(
                [r[name]["faults"] for r in rounds]),
            "std_error": statistics.median(rounds[0][name]["std_errors"])}


def budget_for(n: int, std_error: float, target: float) -> int:
    """Samples to reach target from std_error at n, as N^-1/2 predicts."""
    ratio = std_error / target
    if meets(std_error, target):
        ratio = min(ratio, 1.0)
    need = n * ratio ** 2
    return max(MIN_BUDGET, 1 << max(0, math.ceil(math.log2(need))))


def meets(std_error: float, target: float) -> bool:
    return std_error <= target * (1 + NOISE_RTOL)


def worst_z(parent: list, change: list) -> float:
    """Largest |value difference| over joint std_error across graphs;
    inf when the sample counts differ."""
    worst = 0.0
    for (pv, ps, pn), (cv, cs, cn) in zip(parent, change):
        if pn != cn:
            return math.inf
        joint = math.hypot(ps, cs)
        z = abs(pv - cv) / joint if joint else (0.0 if pv == cv else math.inf)
        worst = max(worst, z)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--budgets", type=json.loads, help=argparse.SUPPRESS)
    ap.add_argument("--noise", action="store_true", help=argparse.SUPPRESS)
    add_options(ap)
    ap.add_argument("--moved-results", action="store_true",
                    help="the change alters the estimates on purpose: "
                         "require agreement within 4 joint standard "
                         "errors per graph instead of identical results")
    ns = ap.parse_args()
    if ns.worker:
        print(json.dumps(worker(ns.budgets, ns.noise)))
        return 0
    sides = checkouts(ap, ns)
    require_sampled(t for _, _, texts in POINTS.values() for t in texts)
    rounds = timed_rounds(sides, ns.rounds, {side: None for side in sides})
    # every round of a side must repeat that side's first round
    repeatable = all(r[p]["results"] == rounds[side][0][p]["results"]
                     for side in sides for r in rounds[side] for p in POINTS)
    first = {side: rounds[side][0] for side in sides}
    identical = repeatable and all(
        first["change"][p]["results"] == first["parent"][p]["results"]
        for p in POINTS)

    # second series: each side at the budgets that reach the targets
    own = {p: [POINTS[p][0]] * len(POINTS[p][2]) for p in TO_STD_ERROR}
    noise = {side: run_side(src, own, noise=True)
             for side, src in sides.items()}
    targets = noise["parent"]
    budgets = {side: {p: [budget_for(POINTS[p][0], s, t) for s, t in
                          zip(noise[side][p], targets[p])]
                      for p in TO_STD_ERROR}
               for side in sides}
    reached = {}
    for side, src in sides.items():
        while True:
            got = run_side(src, budgets[side], noise=True)
            short = [(p, g) for p in TO_STD_ERROR
                     for g, (s, t) in enumerate(zip(got[p], targets[p]))
                     if not meets(s, t)
                     and budgets[side][p][g] < 64 * POINTS[p][0]]
            if not short:
                break
            for p, g in short:
                budgets[side][p][g] *= 2
        reached[side] = got
    reach = timed_rounds(sides, ns.rounds, budgets)

    points = []
    for name, (n_samples, repeats, graphs) in POINTS.items():
        wins = sum(c[name]["seconds"] < p[name]["seconds"]
                   for p, c in zip(rounds["parent"], rounds["change"]))
        point = {
            "name": name, "n_samples": n_samples, "repeats": repeats,
            "graphs": graphs,
            "parent": summarise(rounds["parent"], name),
            "change": summarise(rounds["change"], name),
            "worst_z": worst_z(first["parent"][name]["results"],
                               first["change"][name]["results"]),
            "change_faster_rounds": f"{wins}/{ns.rounds}"}
        if name in TO_STD_ERROR:
            point["to_std_error"] = {"noise_target": targets[name]}
            for side in sides:
                point["to_std_error"][side] = {
                    "noise_at_point_budget": noise[side][name],
                    "n_samples": budgets[side][name],
                    "noise": reached[side][name],
                    "reached": all(meets(s, t) for s, t in zip(
                        reached[side][name], targets[name])),
                    "s_per_integration": spread(
                        [r[name]["seconds"] / len(graphs)
                         for r in reach[side]])}
        points.append(point)
    per_plan = {side: [r[PLAN_BUILD]["seconds"] for r in rounds[side]]
                for side in sides}
    plan_build = {
        "name": PLAN_BUILD, "graphs": "all order-3 star graphs",
        "rows": PLAN_ROWS, "repeats": PLAN_REPEATS,
        "parent": {"s_per_plan": spread(per_plan["parent"])},
        "change": {"s_per_plan": spread(per_plan["change"])},
        "change_faster_rounds": "{}/{}".format(sum(
            c < p for p, c in zip(per_plan["parent"], per_plan["change"])),
            ns.rounds)}
    if ns.moved_results:
        check = f"agree within {AGREE_SIGMAS:g} joint std_errors"
        passed = repeatable and all(pt["worst_z"] <= AGREE_SIGMAS
                                    for pt in points)
    else:
        check, passed = "identical results", identical
    record = {
        "harness": "scripts/bench_integrator.py",
        "what": "seconds per weights.integrate_graph_form call, the "
                "in-process minimum over repeats, and minor page faults "
                "per timed call, median and quartiles "
                "over rounds; one fresh interpreter per side and round, "
                "sides alternating; to_std_error: each side timed at the "
                "budgets that reach the parent's noise (RMS std_error over "
                f"{NOISE_SEEDS} seeds)",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ns.rounds,
        "versions": {side: versions(src) for side, src in sides.items()},
        "identical_results": identical,
        "check": {"what": check, "passed": passed},
        "points": points,
        "plan_build": plan_build,
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    for pt in points:
        p, c = pt["parent"], pt["change"]
        print(f"{pt['name']}: {p['s_per_integration']['median']:.4f} s -> "
              f"{c['s_per_integration']['median']:.4f} s per integration, "
              f"faster in {pt['change_faster_rounds']} rounds; minor faults "
              f"{p['minor_faults_per_integration']['median']:.0f} -> "
              f"{c['minor_faults_per_integration']['median']:.0f} per "
              f"integration; worst z {pt['worst_z']:.2f}")
        if "to_std_error" in pt:
            reach_p, reach_c = (pt["to_std_error"][s] for s in sides)
            print(f"  to the parent's std_errors: "
                  f"{reach_p['s_per_integration']['median']:.4f} s -> "
                  f"{reach_c['s_per_integration']['median']:.4f} s per "
                  f"integration (change budgets {reach_c['n_samples']})")
    p, c = (plan_build[s]["s_per_plan"]["median"] for s in sides)
    print(f"{PLAN_BUILD}: {p * 1e3:.3f} ms -> {c * 1e3:.3f} ms per plan, "
          f"faster in {plan_build['change_faster_rounds']} rounds")
    print(f"check ({check}): {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
