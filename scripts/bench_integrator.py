#!/usr/bin/env python3
"""Time weights.integrate_graph_form in two checkouts and write the
figures to a JSON file.

    python scripts/bench_integrator.py --parent OTHER/src --out BENCH.json

Three points, each a fixed set of graphs at one sample budget, timed
a fixed number of times per graph and round:

    order3_4096      six order-3 star graphs at 4096 samples, 5 times
                     each (fixed per-integration cost dominates)
    order2_131072    three order-2 star graphs at 2^17 samples, 3 times
    order2_default   the same three at the default budget (2^22), once

Each round runs one fresh interpreter per side, alternating which side
goes first.  A worker integrates the first graph of each point once
untimed (imports, lazy set-up), then times every graph, with
single-threaded BLAS; a graph's time in the round is the minimum over
its repeats, so one noisy moment on a shared host does not decide a
round.  Per point and side the file records the median
and quartiles over rounds of seconds per integration and samples per
second; the median std_error of the star-normalised weights obtained
and the median seconds per integration it took to obtain them (the
figure to compare when a change alters the noise, not samples per
second); and in how many rounds the change was faster.  Both sides
must return identical (value, std_error, n_samples) for every graph,
else the script exits 1.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

POINTS = {
    "order3_4096": (4096, 5, [
        "n=3;m=2;1:[2,L];2:[L,R];3:[L,R]",
        "n=3;m=2;1:[2,L];2:[3,R];3:[L,R]",
        "n=3;m=2;1:[2,3];2:[L,R];3:[L,R]",
        "n=3;m=2;1:[2,L];2:[3,L];3:[1,R]",
        "n=3;m=2;1:[2,3];2:[3,L];3:[L,R]",
        "n=3;m=2;1:[2,R];2:[3,L];3:[1,L]",
    ]),
    "order2_131072": (131072, 3, [
        "n=2;m=2;1:[2,L];2:[1,R]",
        "n=2;m=2;1:[2,L];2:[L,R]",
        "n=2;m=2;1:[2,R];2:[L,R]",
    ]),
    "order2_default": (None, 1, [
        "n=2;m=2;1:[2,L];2:[1,R]",
        "n=2;m=2;1:[2,L];2:[L,R]",
        "n=2;m=2;1:[2,R];2:[L,R]",
    ]),
}
SEED = 0


def worker() -> dict:
    """One round in this interpreter: per point, the summed minimum
    seconds of its graphs and the (value, std_error, n_samples) of each."""
    from starquant.graphs import parse
    from starquant.halfplane import TWO_PI
    from starquant.weights import (IntegrationConfig, integrate_graph_form,
                                   stable_seed)

    def run(text, n_samples):
        cfg = IntegrationConfig(seed=SEED, n_samples=n_samples)
        return integrate_graph_form(parse(text), cfg,
                                    seed=stable_seed(SEED, text))

    for n, _, texts in POINTS.values():
        run(texts[0], n)
    out = {}
    for name, (n, repeats, texts) in POINTS.items():
        graphs = [parse(t) for t in texts]
        results, seconds = [], 0.0
        for text in texts:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                result = run(text, n)
                times.append(time.perf_counter() - t0)
            results.append(result)
            seconds += min(times)
        norm = [TWO_PI ** (2 * g.n) * math.factorial(g.n) for g in graphs]
        out[name] = {"seconds": seconds, "results": results,
                     "std_errors": [r[1] / z for r, z in zip(results, norm)]}
    return out


def run_side(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env.pop("STARQUANT_THREADS", None)
    proc = subprocess.run([sys.executable, __file__, "--worker"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def versions(src: Path) -> dict:
    code = ("import numpy, scipy, starquant; print(numpy.__version__, "
            "scipy.__version__, starquant.__version__)")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    numpy_v, scipy_v, ours = out.split()
    return {"python": platform.python_version(), "numpy": numpy_v,
            "scipy": scipy_v, "starquant": ours}


def spread(xs) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarise(rounds: list, name: str) -> dict:
    per = [r[name]["seconds"] / len(POINTS[name][2]) for r in rounds]
    samples = rounds[0][name]["results"][0][2]
    return {"s_per_integration": spread(per),
            "samples_per_s": spread([samples / s for s in per]),
            "to_std_error": {
                "std_error": statistics.median(rounds[0][name]["std_errors"]),
                "seconds": statistics.median(per)}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--parent", type=Path,
                    help="src/ directory of the checkout to compare against")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="src/ directory of the change (default: this "
                         "checkout's)")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", type=Path)
    ns = ap.parse_args()
    if ns.worker:
        print(json.dumps(worker()))
        return 0
    if ns.parent is None or ns.out is None:
        ap.error("--parent and --out are required")
    sides = {"parent": ns.parent.resolve(), "change": ns.src.resolve()}
    rounds = {side: [] for side in sides}
    for k in range(ns.rounds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            rounds[side].append(run_side(sides[side]))
        print(f"round {k + 1}/{ns.rounds}: " + ", ".join(
            f"{p} {rounds['parent'][-1][p]['seconds']:.3f}s -> "
            f"{rounds['change'][-1][p]['seconds']:.3f}s" for p in POINTS),
            file=sys.stderr, flush=True)
    identical = all(r[p]["results"] == rounds["parent"][0][p]["results"]
                    for side in sides for r in rounds[side] for p in POINTS)
    points = []
    for name, (n_samples, repeats, graphs) in POINTS.items():
        wins = sum(c[name]["seconds"] < p[name]["seconds"]
                   for p, c in zip(rounds["parent"], rounds["change"]))
        points.append({
            "name": name, "n_samples": n_samples, "repeats": repeats,
            "graphs": graphs,
            "parent": summarise(rounds["parent"], name),
            "change": summarise(rounds["change"], name),
            "change_faster_rounds": f"{wins}/{ns.rounds}"})
    record = {
        "harness": "scripts/bench_integrator.py",
        "what": "seconds per weights.integrate_graph_form call, the "
                "in-process minimum over repeats, median and quartiles "
                "over rounds; one fresh interpreter per side and round, "
                "sides alternating",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ns.rounds,
        "versions": {side: versions(src) for side, src in sides.items()},
        "identical_results": identical,
        "points": points,
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    for pt in points:
        p, c = pt["parent"], pt["change"]
        print(f"{pt['name']}: {p['s_per_integration']['median']:.4f} s -> "
              f"{c['s_per_integration']['median']:.4f} s per integration, "
              f"faster in {pt['change_faster_rounds']} rounds")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
