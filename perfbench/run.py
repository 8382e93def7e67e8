"""starquant benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (table_o2_cold, verify_o2_warm, star_o3_so3; see
workloads.py) through starquant's public API, imported from the
checkout's src/.  Units of the workload repeat until S seconds have
passed (at least the workload's minimum), and the last stdout line is
one JSON object: correct, attempted and failed count output checks;
metrics holds the end-to-end metrics (--trace 0) or the per-layer
metrics of a traced run (--trace 1).  A traced run alternates
untraced and traced units, so trace.overhead_s compares the two within
one process.  Spans are written to .bench_work/ in the checkout.

setup_s, wall_s and trace.overhead_s are paced seconds (see pace.py):
wall time corrected for how much other load on the host slowed the
process while it ran.  The raw wall and CPU times of every unit are
printed on the line before the result.  trace.wall_s and the span
durations in the per-layer metrics are raw, so their shares add up.

Exit code 2, with no result line, when the checkout has no starquant
source or a pinned input fails its sha256 check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import pace as pace_mod
from pace import Pace
from tracing import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "err_median": "1",
    "pass_frac": "1",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys\n"
    "sys.path[:0] = [{src!r}, {here!r}]\n"
    "import pace\n"
    "p = pace.Pace()\n"
    "p.start()\n"
    "mark = p.mark()\n"
    "import workloads\n"
    "wall, paced = p.since(mark)\n"
    "p.stop()\n"
    "print(paced)\n")


def pin_threads() -> dict:
    """Single-threaded BLAS and starquant's default pool; returns the
    thread settings in force."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.pop("STARQUANT_THREADS", None)
    return {k: os.environ.get(k) for k in (
        "STARQUANT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
        "MKL_NUM_THREADS")}


def environment(threads: dict) -> dict:
    import numpy
    import scipy
    import starquant
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "starquant": starquant.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
    }


def import_seconds() -> float:
    """Paced import time of the benchmark's starquant modules in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC),
                                                   here=str(HERE))],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_units(workload, state, seconds: float, trace: bool, checks,
              pace: Pace):
    """Timed units until `seconds` have passed; in a traced run, units
    alternate untraced and traced.  Prints each untraced unit's raw wall
    and CPU time; returns (untraced paced walls, traced per-layer
    metrics, traced paced walls, errors of the last unit, recorder)."""
    rec = Recorder() if trace else None
    walls, raws, cpus, traced, traced_paced, errors = [], [], [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        enough = len(walls) >= workload.min_units and (
            not trace or traced)
        if enough and time.perf_counter() - start >= seconds:
            break
        tracing_this = trace and k % 2 == 1
        if tracing_this:
            rec.run = f"{workload.name}/u{k}"
            rec.counts.clear()
            first_span = len(rec.spans)
            layers.install(rec)
        mark, c0 = pace.mark(), time.process_time()
        try:
            unit_errors = workload.unit(state, checks)
        except Exception as exc:  # noqa: BLE001 - a failed unit is a result
            traceback.print_exc(file=sys.stderr)
            checks.expect(False, f"unit {k} raised {type(exc).__name__}")
            if tracing_this:
                rec.uninstall()
            break
        raw, paced = pace.since(mark)
        if tracing_this:
            rec.uninstall()
            traced.append(layers.unit_metrics(
                rec.spans[first_span:], dict(rec.counts), raw))
            traced_paced.append(paced)
        else:
            walls.append(paced)
            raws.append(raw)
            cpus.append(time.process_time() - c0)
        errors = unit_errors
        k += 1
    print(f"untraced units: paced {' '.join(f'{w:.3f}' for w in walls)} s, "
          f"wall {' '.join(f'{w:.3f}' for w in raws)} s, "
          f"cpu {' '.join(f'{c:.3f}' for c in cpus)} s; "
          f"traced units: {len(traced)}")
    return walls, traced, traced_paced, errors, rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)

    if not (SRC / "starquant" / "__init__.py").is_file():
        print(f"error: no starquant source under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    pace = Pace()
    pace.start()
    try:
        return run(ns, threads, pace)
    finally:
        pace.stop()


def run(ns, threads: dict, pace: Pace) -> int:
    mark = pace.mark()
    import workloads
    first_import = pace.since(mark)[1]
    import starquant
    if not Path(starquant.__file__).resolve().is_relative_to(SRC):
        print(f"error: starquant imported from {starquant.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(ns.workload)
    if workload is None:
        print(f"error: unknown workload {ns.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    work = WORK / f"{ns.workload}-seed{ns.seed}"
    imports = [first_import] + [import_seconds()
                                for _ in range(SETUP_REPEATS - 1)]
    setups = []
    try:
        for imp in imports:
            mark = pace.mark()
            state = workload.setup(ns.seed, work)
            setups.append(imp + pace.since(mark)[1])
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checks = workloads.Checks()
    walls, traced, traced_paced, errors, rec = run_units(
        workload, state, ns.seconds, bool(ns.trace), checks, pace)
    env = environment(threads)
    env["pace"] = {"period_s": pace_mod.PERIOD_S,
                   "reference_probe_s": pace_mod.REFERENCE_PROBE_S,
                   "probes": len(pace.samples),
                   "median_probe_s": statistics.median(pace.samples)}
    if ns.trace:
        values = (layers.median_metrics(traced) if traced
                  else dict.fromkeys(layers.PER_LAYER, 0.0))
        values["trace.overhead_s"] = (
            statistics.median(traced_paced) - statistics.median(walls)
            if traced_paced and walls else 0.0)
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
        work.mkdir(parents=True, exist_ok=True)
        rec.dump(work / "spans.jsonl", env)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls) if walls else 0.0,
            "err_median": workloads.err_median(errors),
            "pass_frac": 1.0 - len(checks.failures) / max(1, checks.attempted),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    print(f"env {json.dumps(env, sort_keys=True)}")
    for what in checks.failures:
        print(f"FAILED check: {what}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
