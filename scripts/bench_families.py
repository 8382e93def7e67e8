#!/usr/bin/env python3
"""Compare the orbit-operator families of the star engine in two
checkouts and write the figures to a JSON file.

    PYTHONPATH=src python scripts/bench_families.py --parent OTHER/src \
        --out BENCH.json

Four operations, each run by a fresh worker interpreter per side:

    family_o3   a cold operators.orbit_operators build of the packaged
                so(3) structure at order 3 (1728 graphs, 44 orbits)
    family_o4   the same at order 4 (160000 graphs, 475 orbits)
    verify_N5   a whole-process `starquant verify assoc -N 5`, timed
                from interpreter start to its exit: the engine builds
                the families of orders 1-4, then order 5 exceeds the
                enumeration cap and the run exits 3
    unit        scripts/bench_exact.py's `unit`, one whole verify_o2_warm
                unit (seed --seed): in-process minimum of REPEATS after
                one untimed run

Timing.  Each round runs one worker per side and operation, alternating
which side goes first.  The file records per operation and side the
seconds (median and quartiles over rounds), the median speed-up and in
how many rounds the change was faster.

Results.  A family worker records the family's orbit count and hashes
the nonzero entries of its OrbitOperators._ops, orbit serial and
operator terms in build order, which both designs hold; the unit
worker hashes the repr of the unit's bounds, and the verify worker
records its exit code.  The check passes when every result agrees
across sides and rounds and every verify run exits 3; the script
exits 1 otherwise.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from paired import (add_options, checkouts, run_rounds, run_worker, spread,
                    versions)

REPEATS = 5
OPERATIONS = ("family_o3", "family_o4", "verify_N5", "unit")
VERIFY = ("import sys; from starquant.cli import main; "
          "sys.exit(main(['verify', 'assoc', '-N', '5']))")


def family_digest(family) -> str:
    """The family's orbit count and the sha256 of its nonzero operators,
    orbit serial and terms, in build order."""
    text = json.dumps([[ser, [[list(map(list, key)), p.to_json_obj()]
                              for key, p in op.terms.items()]]
                       for ser, op in family._ops.items() if op.terms])
    return (f"{len(family._ops)} orbits, sha256 "
            f"{hashlib.sha256(text.encode()).hexdigest()}")


def worker(operation: str, seed: int) -> dict:
    if operation == "verify_N5":
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", VERIFY],
                              capture_output=True, text=True)
        return {"seconds": time.perf_counter() - t0,
                "result": proc.returncode}
    if operation == "unit":
        from bench_exact import build
        _, prepare = build(seed)["unit"]
        unit = prepare()
        result = hashlib.sha256(repr(unit()).encode()).hexdigest()
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            unit()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return {"seconds": best, "result": result}
    from starquant.cli import load_alpha
    from starquant.operators import orbit_operators
    alpha = load_alpha(None)
    order = int(operation[-1])
    t0 = time.perf_counter()
    family = orbit_operators((alpha,) * order, 2)
    return {"seconds": time.perf_counter() - t0,
            "result": family_digest(family)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", choices=OPERATIONS, help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=4,
                    help="verify_o2_warm seed of the unit (default 4)")
    add_options(ap, rounds=3)
    ns = ap.parse_args()
    if ns.worker:
        print(json.dumps(worker(ns.worker, ns.seed)))
        return 0
    sides = checkouts(ap, ns)

    runs = {}
    for operation in OPERATIONS:
        argv = ["--worker", operation, "--seed", str(ns.seed)]
        rounds = run_rounds(
            sides, ns.rounds,
            lambda side: run_worker(__file__, sides[side], argv),
            lambda rounds: f"{rounds['parent'][-1]['seconds']:.3f}s -> "
                           f"{rounds['change'][-1]['seconds']:.3f}s",
            label=f" {operation}")
        runs[operation] = rounds

    agree = all(len({r["result"] for side in sides
                     for r in runs[op][side]}) == 1 for op in OPERATIONS)
    exits = {r["result"] for side in sides for r in runs["verify_N5"][side]}
    results = {}
    for op in OPERATIONS:
        secs = {side: [r["seconds"] for r in runs[op][side]]
                for side in sides}
        wins = sum(c < p for p, c in zip(secs["parent"], secs["change"]))
        results[op] = {
            "result": runs[op]["change"][0]["result"],
            **{side: {"seconds": spread(secs[side])} for side in sides},
            "speedup_median": (statistics.median(secs["parent"])
                               / statistics.median(secs["change"])),
            "change_faster_rounds": f"{wins}/{ns.rounds}",
        }
    passed = agree and exits == {3}
    record = {
        "harness": "scripts/bench_families.py",
        "what": "seconds of a cold so(3) orbit_operators build at orders "
                "3 and 4, of a whole-process `starquant verify assoc -N 5` "
                "to its exit, and of one verify_o2_warm unit (seed "
                f"{ns.seed}, in-process minimum of {REPEATS}): median and "
                "quartiles over rounds, one fresh interpreter per side, "
                "operation and round, sides alternating",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ns.rounds,
        "versions": {side: versions(src) for side, src in sides.items()},
        "check": {"what": "family digests and unit hashes agree across "
                          "sides and rounds; every verify_N5 run exits 3",
                  "passed": passed},
        "operations": results,
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    for op, res in results.items():
        print(f"{op}: {res['parent']['seconds']['median']:.3f}s -> "
              f"{res['change']['seconds']['median']:.3f}s "
              f"({res['speedup_median']:.1f}x), change faster in "
              f"{res['change_faster_rounds']} rounds")
    print(f"check passed: {passed}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
