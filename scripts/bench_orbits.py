#!/usr/bin/env python3
"""Compare the star engine's weight table fill in two checkouts and
write the figures to a JSON file.

    PYTHONPATH=src python scripts/bench_orbits.py --parent OTHER/src \
        --out BENCH.json

The workload is a cold so(3) order-3 table: star._Engine.ensure_weights
on an empty WeightTable at SAMPLES samples per graph, the step that
integrates the sampled weights of an order-3 star product.  A worker
first sets the solved weights (weights.SOLVED_WEIGHTS) aside on a side
that has them, so both sides integrate the same ten orbits.

Timing.  Each round runs one fresh interpreter per side, alternating
which side goes first.  A worker builds the engine (operators are
cached, so they are built once and not timed), fills one table untimed
at another seed (imports, lazy set-up), then times REPEATS cold fills
at SEED with single-threaded BLAS and keeps the minimum, so one noisy
moment on a shared host does not decide a round.  It also counts the
weights.integrate_graph_form calls and samples of one fill.  The file
records each side's median and quartiles over rounds and in how many
rounds the change was faster.

Noise.  Per sampled orbit r, sigma_W is the propagated standard error
of the orbit weight W_r = sum over members of sign x weight, the root
of the sum of squares of the engine's error sources for r.  One sigma
is heavy-tailed, so the file records its RMS over NOISE_SEEDS seeds
per orbit and side (0 where a side has a closed form).

Coverage.  Five sampled orbits have a known W_r (KNOWN); the script
exits 1 before timing if the deterministic rule integrates any of them
(paired.require_sampled).  Over --seeds seeds, one cold fill each, the
file counts per side how often |z| = |W_r - exact| / sigma_W exceeds
3, the RMS of z and the median sigma_W per orbit.  The check passes
when the change's |z| > 3 rate is at most twice the parent's;
otherwise the script exits 1.  The noise figures reuse the first
NOISE_SEEDS coverage seeds.
"""
import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from fractions import Fraction

from paired import (add_options, checkouts, require_sampled, run_rounds,
                    run_worker, spread, versions)

# resolved at import, so that --help fails once the private name is gone;
# a worker imports it from its own side's src (PYTHONPATH)
from starquant.star import StarConfig, _Engine

ORDER = 3
SAMPLES = 4096
SEED = 0
REPEATS = 3
NOISE_SEEDS = 8
# orbits of so(3) star graphs with a known orbit weight (all in
# weights.SOLVED_WEIGHTS), each with 4 sampled dimensions: the wheel (8
# members of -1/48), three order-3 orbits of members of -1/288, and one
# order-3 orbit of members of weight 0
KNOWN = {
    "n=2;m=2;1:[2,L];2:[1,R]": Fraction(-1, 6),
    "n=3;m=2;1:[2,L];2:[1,R];3:[L,R]": Fraction(-1, 6),
    "n=3;m=2;1:[2,L];2:[3,R];3:[L,R]": Fraction(-1, 6),
    "n=3;m=2;1:[2,L];2:[L,R];3:[1,R]": Fraction(-1, 6),
    "n=3;m=2;1:[2,L];2:[3,L];3:[L,R]": Fraction(0),
}


def so3():
    from starquant.poly import Polynomial
    from starquant.polyvector import PolyVectorField
    x = [Polynomial.variable(3, i) for i in range(3)]
    return PolyVectorField(3, 1, {(0, 1): x[2], (0, 2): -x[1], (1, 2): x[0]})


def sampled_path():
    """Set the solved weights aside, where this side has them."""
    from starquant import weights
    getattr(weights, "SOLVED_WEIGHTS", {}).clear()
    weights.exact_weight.cache_clear()


def engine(seed: int):
    from starquant.weights import IntegrationConfig, WeightTable
    return _Engine(so3(), StarConfig(
        order=ORDER, table=WeightTable(),
        integration=IntegrationConfig(seed=seed, n_samples=SAMPLES)))


def orbit_sigmas(eng) -> dict:
    """sigma_W per orbit with a sampled source, keyed by its serial."""
    var = {}
    for (_, orbit), sigma in eng.sources:
        var[orbit] = var.get(orbit, 0.0) + sigma ** 2
    return {orbit: math.sqrt(v) for orbit, v in var.items()}


def time_worker() -> dict:
    from starquant import weights
    counts = {"integrations": 0, "samples": 0}
    integrate = weights.integrate_graph_form

    def counting(*args, **kwargs):
        result = integrate(*args, **kwargs)
        counts["integrations"] += 1
        counts["samples"] += result[2]
        return result

    engine(SEED + 1).ensure_weights()
    times = []
    for k in range(REPEATS):
        eng = engine(SEED)
        if k == 0:
            weights.integrate_graph_form = counting
        t0 = time.perf_counter()
        eng.ensure_weights()
        times.append(time.perf_counter() - t0)
        weights.integrate_graph_form = integrate
    return {"seconds": min(times), **counts}


def coverage_worker(n_seeds: int) -> dict:
    """Per seed: sigma_W of every sampled orbit, and (W_r, sigma_W) of
    the KNOWN orbits."""
    from starquant.graphs import orbit_representative, parse, serialize
    reps = {text: serialize(orbit_representative(parse(text))[0])
            for text in KNOWN}
    runs = []
    for seed in range(n_seeds):
        eng = engine(seed)
        eng.ensure_weights()
        sigmas = orbit_sigmas(eng)
        runs.append({"sigma_W": sigmas, "known": {
            text: [float(eng.weights[parse(rep).n, rep].re),
                   sigmas.get(rep, 0.0)] for text, rep in reps.items()}})
    return {"runs": runs}


def coverage(runs: list) -> dict:
    zs, sigmas = [], {text: [] for text in KNOWN}
    for run in runs:
        for text, (w, sigma) in run["known"].items():
            zs.append((w - float(KNOWN[text])) / sigma)
            sigmas[text].append(sigma)
    over = sum(abs(z) > 3 for z in zs)
    return {"abs_z_over_3": over, "checks": len(zs),
            "rate": over / len(zs),
            "rms_z": math.sqrt(statistics.fmean(z * z for z in zs)),
            "median_sigma_W": {t: statistics.median(s)
                               for t, s in sigmas.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", choices=("time", "coverage"),
                    help=argparse.SUPPRESS)
    add_options(ap)
    ap.add_argument("--seeds", type=int, default=150,
                    help="coverage seeds per side (default 150)")
    ns = ap.parse_args()
    if ns.worker:
        sampled_path()
    if ns.worker == "time":
        print(json.dumps(time_worker()))
        return 0
    if ns.worker == "coverage":
        print(json.dumps(coverage_worker(ns.seeds)))
        return 0
    sides = checkouts(ap, ns)
    if ns.seeds < NOISE_SEEDS:
        ap.error(f"--seeds must be at least {NOISE_SEEDS}")
    require_sampled(KNOWN)

    rounds = run_rounds(
        sides, ns.rounds,
        lambda side: run_worker(__file__, sides[side], ["--worker", "time"]),
        lambda rounds: f"{rounds['parent'][-1]['seconds']:.3f}s -> "
                       f"{rounds['change'][-1]['seconds']:.3f}s")
    wins = sum(c["seconds"] < p["seconds"]
               for p, c in zip(rounds["parent"], rounds["change"]))
    fill = {side: {"seconds": spread([r["seconds"] for r in rounds[side]]),
                   "integrations": rounds[side][0]["integrations"],
                   "samples": rounds[side][0]["samples"]}
            for side in sides}
    fill["change_faster_rounds"] = f"{wins}/{ns.rounds}"

    runs = {side: run_worker(__file__, src, ["--worker", "coverage",
                                             "--seeds", str(ns.seeds)])["runs"]
            for side, src in sides.items()}
    orbits = sorted({o for side in sides for run in runs[side][:NOISE_SEEDS]
                     for o in run["sigma_W"]})
    noise = [{"orbit": o, **{side: math.sqrt(statistics.fmean(
        run["sigma_W"].get(o, 0.0) ** 2
        for run in runs[side][:NOISE_SEEDS])) for side in sides}}
        for o in orbits]
    cover = {side: coverage(runs[side]) for side in sides}
    passed = cover["change"]["rate"] <= 2 * cover["parent"]["rate"]
    record = {
        "harness": "scripts/bench_orbits.py",
        "what": f"cold so(3) order-{ORDER} star._Engine.ensure_weights at "
                f"{SAMPLES} samples per graph: seconds (in-process minimum "
                f"of {REPEATS}, median and quartiles over rounds, one fresh "
                "interpreter per side and round, sides alternating), "
                "integrations and samples of one fill; per sampled orbit "
                f"the RMS of sigma_W over {NOISE_SEEDS} seeds; z of the "
                f"known orbit weights over {ns.seeds} seeds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ns.rounds,
        "versions": {side: versions(src) for side, src in sides.items()},
        "fill": fill,
        "noise_rms_sigma_W": noise,
        "coverage": {"seeds": ns.seeds,
                     "known": {t: str(w) for t, w in KNOWN.items()},
                     **cover},
        "check": {"what": "change |z| > 3 rate at most twice the parent's",
                  "passed": passed},
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    for side in sides:
        f, c = fill[side], cover[side]
        print(f"{side}: {f['seconds']['median']:.3f} s per fill, "
              f"{f['integrations']} integrations, {f['samples']} samples; "
              f"|z| > 3 in {c['abs_z_over_3']}/{c['checks']}, "
              f"RMS z {c['rms_z']:.2f}")
    print(f"change faster in {fill['change_faster_rounds']} rounds; "
          f"check: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
