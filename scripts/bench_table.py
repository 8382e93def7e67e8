#!/usr/bin/env python3
"""Time a cold order-2 weight table in two checkouts, check that their
tables agree, and write the figures to a JSON file.

    PYTHONPATH=src python scripts/bench_table.py --parent OTHER/src \
        --out BENCH.json

The workload is `starquant weight -n 2 --samples 131072 --seed 0
--format json --out FILE` (starquant.cli.main in process) on an empty
table: the 36 order-2 star graphs.

Timing.  Each round runs one fresh interpreter per side, alternating
which side goes first.  A worker runs the command once untimed at
another seed (imports, lazy set-up), then times REPEATS runs at SEED
with single-threaded BLAS and keeps the minimum, so one noisy moment on
a shared host does not decide a round.  It also counts the
weights.integrate_graph_form calls and the samples they report over
one run.  Per side the file records the median and quartiles of the
seconds over rounds, the counts, and in how many rounds the change was
faster.

Check.  Every run of a side must write the same table.  Against the
parent's table, graph by graph, the change's must hold
    - an exact 0 (value 0.0, std_error 0.0, n_samples 0) for each graph
      with a vanishing-lemma collapsing set;
    - for each shared rule member, a graph with 2 sampled dimensions
      (the deterministic rule's) that is not its own orbit
      representative, a value within MAX_ULPS ulp of the parent's and
      the same n_samples, seed and method;
    - every other entry byte for byte (its JSON text).
Otherwise the script exits 1.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import struct
import sys
import tempfile
import time
from pathlib import Path

from paired import (add_options, checkouts, run_rounds, run_worker, spread,
                    versions)

# resolved at import, so that --help fails once the private name is gone
from starquant.weights import _collapsing_set

SAMPLES = 131072
SEED = 0
REPEATS = 3
MAX_ULPS = 4


def argv(seed: int, out: str) -> list:
    return ["weight", "-n", "2", "--samples", str(SAMPLES), "--seed",
            str(seed), "--format", "json", "--out", out]


def run_once(seed: int, out: str) -> float:
    from starquant.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = main(argv(seed, out))
        seconds = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"weight -n 2 exited {code}")
    return seconds


def worker() -> dict:
    from starquant import weights
    counts = {"integrations": 0, "samples": 0}
    integrate = weights.integrate_graph_form

    def counting(*args, **kwargs):
        result = integrate(*args, **kwargs)
        counts["integrations"] += 1
        counts["samples"] += result[2]
        return result

    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "w2.json")
        run_once(SEED + 1, out)
        times, tables = [], set()
        for k in range(REPEATS):
            if k == 0:
                weights.integrate_graph_form = counting
            times.append(run_once(SEED, out))
            weights.integrate_graph_form = integrate
            tables.add(Path(out).read_text())
    if len(tables) != 1:
        raise SystemExit("repeated runs wrote different tables")
    return {"seconds": min(times), **counts,
            "table": json.loads(tables.pop())}


def ulps(a: float, b: float) -> int:
    """Distance between two doubles in units in the last place."""
    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(key(a) - key(b))


def compare(parent: list, change: list) -> dict:
    """The check above, entry by entry; returns the counts, the largest
    ulp distance of a shared member and the failures."""
    from starquant.graphs import orbit_representative, parse
    from starquant.integrand import sampled_dims
    failures = []
    counts = {"lemma": 0, "shared": 0, "identical": 0}
    max_ulps = 0
    if [e["graph"] for e in parent] != [e["graph"] for e in change]:
        return {**counts, "max_ulps": None,
                "failures": ["the tables list different graphs"]}
    for p, c in zip(parent, change):
        g = parse(c["graph"])
        if _collapsing_set(g):
            counts["lemma"] += 1
            if (c.get("exact"), c["value"], c["std_error"],
                    c["n_samples"]) != ([0, 1], 0.0, 0.0, 0):
                failures.append(f"{c['graph']}: lemma entry not exact 0")
        elif sampled_dims(g) == 2 and orbit_representative(g)[0] != g:
            counts["shared"] += 1
            dist = ulps(p["value"], c["value"])
            max_ulps = max(max_ulps, dist)
            same = all(p[k] == c[k] for k in ("n_samples", "seed", "method"))
            if dist > MAX_ULPS or not same:
                failures.append(f"{c['graph']}: shared member {dist} ulp "
                                "from the parent's or other fields moved")
        else:
            counts["identical"] += 1
            if json.dumps(p) != json.dumps(c):
                failures.append(f"{c['graph']}: entry differs")
    return {**counts, "max_ulps": max_ulps, "failures": failures}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    add_options(ap)
    ns = ap.parse_args()
    if ns.worker:
        print(json.dumps(worker()))
        return 0
    sides = checkouts(ap, ns)
    rounds = run_rounds(
        sides, ns.rounds,
        lambda side: run_worker(__file__, sides[side], ["--worker"]),
        lambda rounds: f"{rounds['parent'][-1]['seconds']:.3f}s -> "
                       f"{rounds['change'][-1]['seconds']:.3f}s")
    failures = [f"{side}: tables differ between rounds" for side in sides
                if any(r["table"] != rounds[side][0]["table"]
                       for r in rounds[side])]
    check = compare(rounds["parent"][0]["table"],
                    rounds["change"][0]["table"])
    check["failures"] = failures + check["failures"]
    check["passed"] = not check["failures"]
    wins = sum(c["seconds"] < p["seconds"]
               for p, c in zip(rounds["parent"], rounds["change"]))
    table = {side: {"seconds": spread([r["seconds"] for r in rounds[side]]),
                    "integrations": rounds[side][0]["integrations"],
                    "samples": rounds[side][0]["samples"]}
             for side in sides}
    table["change_faster_rounds"] = f"{wins}/{ns.rounds}"
    record = {
        "harness": "scripts/bench_table.py",
        "what": f"cold `starquant weight {' '.join(argv(SEED, 'FILE'))}` "
                f"in process: seconds (in-process minimum of {REPEATS}, "
                "median and quartiles over rounds, one fresh interpreter "
                "per side and round, sides alternating), "
                "weights.integrate_graph_form calls and samples of one "
                "run; the table check against the parent's",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ns.rounds,
        "versions": {side: versions(src) for side, src in sides.items()},
        "table": table,
        "check": {"what": "lemma entries exact 0; shared rule members "
                          f"within {MAX_ULPS} ulp of the parent's value; "
                          "every other entry byte-identical", **check},
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    for side in sides:
        t = table[side]
        print(f"{side}: {t['seconds']['median']:.3f} s per table, "
              f"{t['integrations']} integrations, {t['samples']} samples")
    for line in check["failures"]:
        print(f"  {line}")
    print(f"change faster in {table['change_faster_rounds']} rounds; "
          f"{check['lemma']} lemma, {check['shared']} shared (max "
          f"{check['max_ulps']} ulp), {check['identical']} identical; "
          f"check: {'pass' if check['passed'] else 'FAIL'}")
    return 0 if check["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
