#!/usr/bin/env python3
"""Compare the exact Q[i] layer in two checkouts and write the figures
to a JSON file.

    PYTHONPATH=src python scripts/bench_exact.py --parent OTHER/src \
        --out BENCH.json

Inputs are those of one perfbench verify_o2_warm unit (seed --seed):
the so(3) bivector, its six argument triples (f, g, h) and the pinned
order-2 weight table.  A worker builds the star engine for them and
times nine operations, each over a fixed list of operands:

    apply       OrbitOperators.apply of every orbit with a nonzero
                weight on (f, g), (g, h), (f g, h) and (f, g h) of
                every triple, each call on fresh copies of its
                arguments (see Timing)
    poly_mul    Polynomial * Polynomial over all pairs of
                [f, g, h, f g, g h] of every triple
    poly_diff   Polynomial.diff(i) of every nonzero apply result, for
                every coordinate i
    qi_mul      QI * QI and
    qi_add      QI + QI over all ordered pairs of the first QI_VALUES
                distinct scalars among the orbit weights and the
                coefficients of the apply results
    probe       star.probe_sup of every polynomial one verify_o2_warm
                unit hands it (recorded in the untimed pass)
    unit        the whole verify_o2_warm unit: six associativity
                checks and one L-infinity check, on one table and one
                set of arguments for every call, so from the second
                call on every weight read is a repeat of the last
    fresh_unit  the same unit on a pinned table loaded afresh and on
                fresh copies of its arguments per call, the load and
                the copies outside the timer: every weight read is
                resolved anew, as in a process's first unit, while the
                operator families stay cached
    star_unit   one star_o3_so3 unit (seed --seed): two order-3 so(3)
                products sharing a table that starts empty, on fresh
                copies of the pair

Timing.  Each round runs one fresh interpreter per side, alternating
which side goes first.  A worker runs every operation once untimed
(imports, caches), then REPEATS times, keeping each operation's
minimum, so one noisy moment on a shared host does not decide a
round.  Polynomial.derivative memoises on the polynomial, so apply on
the same argument objects would read the derivatives that earlier
calls left there; each apply call instead gets fresh copies of its
arguments, made before the timer starts, and differentiates them
itself.  The file records per operation the seconds per call (median
and quartiles over rounds, per side), the median speed-up and in how
many rounds the change was faster.

Results.  The untimed pass also hashes the repr of every result (for
star_unit, the unit's result and the first product's series and bound
bytes); the check passes when both sides' hashes agree for every
operation, and the script exits 1 otherwise.
"""
import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from paired import (add_options, checkouts, run_rounds, run_worker, spread,
                    versions)

from starquant.poly import Polynomial
# resolved at import, so that --help fails once the private name is gone;
# a worker imports it from its own side's src (PYTHONPATH)
from starquant.star import _Engine

# starquant.star is shadowed by the exported star() function
star_mod = importlib.import_module("starquant.star")

ROOT = Path(__file__).resolve().parent.parent

REPEATS = 5
QI_VALUES = 80
OPERATIONS = ("apply", "poly_mul", "poly_diff", "qi_mul", "qi_add", "probe",
              "unit", "fresh_unit", "star_unit")


def recorded_probes(bench, state) -> list:
    """The polynomials one unit of bench hands to star.probe_sup."""
    import workloads

    seen = []
    probe = star_mod.probe_sup

    def recording(p):
        seen.append(p)
        return probe(p)

    star_mod.probe_sup = recording
    try:
        bench.unit(state, workloads.Checks())
    finally:
        star_mod.probe_sup = probe
    return seen


def build(seed: int) -> dict:
    """The operations of one worker: name -> (calls, prepare), where
    prepare() returns the thunk to time."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    bench = workloads.VerifyO2Warm()
    state = bench.setup(seed, Path(tempfile.gettempdir()))
    eng = _Engine(state["alpha"], state["cfg"])
    eng.ensure_weights()
    orbits = [r for r, w in eng.weights.items() if not w.is_zero()]

    applies, muls, polys = [], [], []
    for f, g, h in state["triples"]:
        fg, gh = f * g, g * h
        for args in ((f, g), (g, h), (fg, h), (f, gh)):
            applies += [(eng.families[j], orbit, args) for j, orbit in orbits]
        muls += list(itertools.product((f, g, h, fg, gh), repeat=2))
    for ops, orbit, args in applies:
        p = ops.apply(orbit, args)
        if not p.is_zero():
            polys.append(p)
    diffs = [(p, i) for p in polys for i in range(p.dim)]
    values = list(dict.fromkeys(
        [w for _, w in sorted(eng.weights.items())]
        + [c for p in polys for c in p.terms.values()]))[:QI_VALUES]
    pairs = list(itertools.product(values, repeat=2))

    def fresh_applies():
        calls = [(ops, orbit, [Polynomial(p.dim, p.terms) for p in args])
                 for ops, orbit, args in applies]
        return lambda: [ops.apply(orbit, args) for ops, orbit, args in calls]

    def fixed(thunk):
        return lambda: thunk

    probes = recorded_probes(bench, state)

    def unit():
        return bench.unit(state, workloads.Checks())

    def fresh_unit():
        def copies(polys):
            return [Polynomial(p.dim, p.terms) for p in polys]

        fresh = dict(
            state, triples=[tuple(copies(t)) for t in state["triples"]],
            args=copies(state["args"]),
            cfg=replace(state["cfg"], table=workloads.load_pinned_table()))
        return lambda: bench.unit(fresh, workloads.Checks())

    star_bench = workloads.StarO3So3()
    star_state = star_bench.setup(seed, Path(tempfile.gettempdir()))

    def fresh_star_unit():
        fresh = dict(star_state, first=None, pair=tuple(
            Polynomial(p.dim, p.terms) for p in star_state["pair"]))

        def run():
            checks = workloads.Checks()
            errors = star_bench.unit(fresh, checks)
            if checks.failures:
                raise SystemExit(f"star_o3_so3 checks failed: "
                                 f"{checks.failures}")
            return errors, fresh["first"]

        return run

    return {
        "apply": (len(applies), fresh_applies),
        "poly_mul": (len(muls), fixed(lambda: [p * q for p, q in muls])),
        "poly_diff": (len(diffs),
                      fixed(lambda: [p.diff(i) for p, i in diffs])),
        "qi_mul": (len(pairs), fixed(lambda: [x * y for x, y in pairs])),
        "qi_add": (len(pairs), fixed(lambda: [x + y for x, y in pairs])),
        "probe": (len(probes),
                  fixed(lambda: [star_mod.probe_sup(p) for p in probes])),
        "unit": (1, fixed(unit)),
        "fresh_unit": (1, fresh_unit),
        "star_unit": (1, fresh_star_unit),
    }


def worker(seed: int) -> dict:
    ops = build(seed)
    out = {}
    for name, (calls, prepare) in ops.items():
        digest = hashlib.sha256(repr(prepare()()).encode()).hexdigest()
        out[name] = {"calls": calls, "sha256": digest, "seconds": None}
    for _ in range(REPEATS):
        for name, (_, prepare) in ops.items():
            thunk = prepare()
            t0 = time.perf_counter()
            thunk()
            dt = time.perf_counter() - t0
            best = out[name]["seconds"]
            out[name]["seconds"] = dt if best is None else min(best, dt)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=4,
                    help="verify_o2_warm seed of the inputs (default 4)")
    add_options(ap)
    ns = ap.parse_args()
    if ns.worker:
        print(json.dumps(worker(ns.seed)))
        return 0
    sides = checkouts(ap, ns)

    rounds = run_rounds(
        sides, ns.rounds,
        lambda side: run_worker(__file__, sides[side],
                                ["--worker", "--seed", str(ns.seed)]),
        lambda rounds: f"unit {rounds['parent'][-1]['unit']['seconds']:.3f}s"
                       f" -> {rounds['change'][-1]['unit']['seconds']:.3f}s")

    identical = all(
        len({r[name]["sha256"] for side in sides for r in rounds[side]}) == 1
        for name in OPERATIONS)
    results = {}
    for name in OPERATIONS:
        per_call = {side: [r[name]["seconds"] / r[name]["calls"]
                           for r in rounds[side]] for side in sides}
        wins = sum(c < p for p, c in zip(per_call["parent"],
                                         per_call["change"]))
        results[name] = {
            "calls": rounds["change"][0][name]["calls"],
            **{side: {"s_per_call": spread(per_call[side])}
               for side in sides},
            "speedup_median": (statistics.median(per_call["parent"])
                               / statistics.median(per_call["change"])),
            "change_faster_rounds": f"{wins}/{ns.rounds}",
        }
    record = {
        "harness": "scripts/bench_exact.py",
        "what": "seconds per call of OrbitOperators.apply, Polynomial "
                "mul and diff, QI mul and add, star.probe_sup and one "
                "whole unit, warm and on a freshly loaded table, on the "
                f"inputs of a verify_o2_warm unit (seed {ns.seed}), and of "
                "one star_o3_so3 unit: "
                f"in-process minimum of {REPEATS}, median and quartiles "
                "over rounds, one fresh interpreter per side and round, "
                "sides alternating",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ns.rounds,
        "versions": {side: versions(src) for side, src in sides.items()},
        "identical_results": identical,
        "check": {"what": "identical results", "passed": identical},
        "operations": results,
    }
    ns.out.write_text(json.dumps(record, indent=2) + "\n")
    for name, res in results.items():
        print(f"{name}: {res['calls']} calls, "
              f"{res['parent']['s_per_call']['median'] * 1e6:.1f} us -> "
              f"{res['change']['s_per_call']['median'] * 1e6:.1f} us per "
              f"call ({res['speedup_median']:.1f}x), change faster in "
              f"{res['change_faster_rounds']} rounds")
    print(f"results identical: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
