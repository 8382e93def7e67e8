#!/usr/bin/env python3
"""Compare a cold default `starquant verify assoc -N 3` in two checkouts
and write the figures to a JSON file.

    PYTHONPATH=src python scripts/bench_solved.py --parent OTHER/src \
        --out BENCH.json

Two structures, each with an empty weight table and the default sample
budget (seed --seed):

    so3      the packaged so(3)-type structure
    nambu    the Nambu bivector eps^{ijk} d_k C with C = x0^3 + x1 x2

A worker runs one structure through starquant.cli.main in a fresh
interpreter and records its wall time, exit code, the number of weight
integrations and samples drawn (counted at
weights.integrate_graph_form), and each power's residual and bound from
the report (read at cli.check_associativity).  It also records how long
its own `import starquant.cli` took (main is timed after it), and
whether numpy was loaded when main returned.  The run writes no --out
artifact, whose manifest would load numpy for its version field.  Per
structure, in turn, each round runs one worker per side, alternating
which side goes first.  The file records per structure and side the
wall and import times (median and quartiles over rounds) and the
counts, rows and numpy_loaded of the first round.

Checks.  Counts, exit codes and rows must repeat across a side's rounds
(a cold run is deterministic for a fixed seed), and the change must
pass both structures; the script exits 1 otherwise.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

from paired import (add_options, checkouts, run_rounds, run_worker, spread,
                    versions)

STRUCTURES = ("so3", "nambu")


def nambu():
    from starquant.poly import Polynomial
    from starquant.polyvector import PolyVectorField

    x = [Polynomial.variable(3, i) for i in range(3)]
    # eps^{ijk} d_k C: d0 C = 3 x0^2, d1 C = x2, d2 C = x1
    return PolyVectorField(3, 1, {(0, 1): x[1], (0, 2): -x[2],
                                  (1, 2): x[0] * x[0] * 3})


def worker(structure: str, seed: int) -> dict:
    t0 = time.perf_counter()
    from starquant import cli, weights
    import_s = time.perf_counter() - t0

    reports = []
    check = cli.check_associativity

    def capturing(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    cli.check_associativity = capturing
    counts = {"integrations": 0, "samples": 0}
    integrate = weights.integrate_graph_form

    def counting(*args, **kwargs):
        out = integrate(*args, **kwargs)
        counts["integrations"] += 1
        counts["samples"] += out[2]
        return out

    weights.integrate_graph_form = counting
    with tempfile.TemporaryDirectory() as work:
        argv = ["verify", "assoc", "-N", "3", "--seed", str(seed)]
        if structure == "nambu":
            path = os.path.join(work, "alpha.json")
            with open(path, "w") as fh:
                json.dump(nambu().to_json_obj(), fh)
            argv += ["--alpha", path]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
    numpy_loaded = "numpy" in sys.modules
    rows = [{key: r[key] for key in ("power", "residual_max", "bound",
                                     "passed")}
            for r in reports[0].to_json_obj()["powers"]]
    return {"wall_s": wall, "import_s": import_s, "exit": code, **counts,
            "rows": rows, "numpy_loaded": numpy_loaded}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", choices=STRUCTURES, help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=0,
                    help="verify seed (default 0)")
    add_options(ap, rounds=3)
    ns = ap.parse_args()
    if ns.worker:
        print(json.dumps(worker(ns.worker, ns.seed)))
        return 0
    sides = checkouts(ap, ns)

    runs = {}
    for structure in STRUCTURES:
        argv = ["--worker", structure, "--seed", str(ns.seed)]
        rounds = run_rounds(
            sides, ns.rounds,
            lambda side: run_worker(__file__, sides[side], argv),
            lambda rounds: f"{rounds['parent'][-1]['wall_s']:.2f}s -> "
                           f"{rounds['change'][-1]['wall_s']:.2f}s",
            label=f" {structure}")
        runs.update({(structure, side): rounds[side] for side in sides})

    def fixed(r):
        return {key: r[key] for key in ("exit", "integrations", "samples",
                                        "rows", "numpy_loaded")}

    repeat = all(fixed(r) == fixed(rs[0]) for rs in runs.values() for r in rs)
    passes = all(runs[s, "change"][0]["exit"] == 0 for s in STRUCTURES)
    results = {}
    for structure in STRUCTURES:
        walls = {side: [r["wall_s"] for r in runs[structure, side]]
                 for side in sides}
        wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
        results[structure] = {
            **{side: {"wall_s": spread(walls[side]),
                      "import_s": spread([r["import_s"]
                                          for r in runs[structure, side]]),
                      **fixed(runs[structure, side][0])} for side in sides},
            "speedup_median": (statistics.median(walls["parent"])
                               / statistics.median(walls["change"])),
            "change_faster_rounds": f"{wins}/{ns.rounds}",
        }
    record = {
        "harness": "scripts/bench_solved.py",
        "what": "cold default `starquant verify assoc -N 3 --seed "
                f"{ns.seed}` on so(3) and on the Nambu structure "
                "C = x0^3 + x1 x2: wall seconds (median and quartiles over "
                "rounds, one fresh interpreter per side, structure and "
                "round, sides alternating), each worker's own import "
                "time of starquant.cli, weight integrations and samples "
                "drawn, residual and bound per power, and whether numpy "
                "was loaded when the run ended",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ns.rounds,
        "versions": {side: versions(src) for side, src in sides.items()},
        "check": {"what": "counts and rows repeat across rounds; the "
                          "change passes both structures",
                  "passed": repeat and passes},
        "structures": results,
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    for structure, res in results.items():
        p, c = res["parent"], res["change"]
        print(f"{structure}: {p['wall_s']['median']:.2f}s -> "
              f"{c['wall_s']['median']:.2f}s "
              f"({res['speedup_median']:.1f}x), integrations "
              f"{p['integrations']} -> {c['integrations']}, samples "
              f"{p['samples']} -> {c['samples']}, exit "
              f"{p['exit']} -> {c['exit']}, import "
              f"{p['import_s']['median']:.3f}s -> "
              f"{c['import_s']['median']:.3f}s, numpy loaded "
              f"{p['numpy_loaded']} -> {c['numpy_loaded']}")
    print(f"check passed: {record['check']['passed']}")
    return 0 if record["check"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
