"""Shared pieces of the bench_*.py scripts, which time two checkouts
(the parent and the change) in alternating rounds of fresh
interpreters and write the figures to a JSON file.

    add_options    the --parent/--src/--rounds/--out options
    checkouts      the validated {"parent": src, "change": src} of them
    run_worker     one worker interpreter on one side's src
    run_rounds     alternating rounds of a worker per side
    versions       python, numpy and starquant of one side
    spread         median and quartiles
    require_sampled  exit 1 unless every listed graph is sampled

Imported by the scripts next to it; it has no command of its own.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def add_options(ap, rounds: int = 10) -> None:
    ap.add_argument("--parent", type=Path,
                    help="src/ directory of the checkout to compare against")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="src/ directory of the change (default: this "
                         "checkout's)")
    ap.add_argument("--rounds", type=int, default=rounds)
    ap.add_argument("--out", type=Path)


def checkouts(ap, ns) -> dict:
    """{"parent": src, "change": src}, in that order; a usage error
    unless --parent and --out are given and --rounds is at least 2."""
    if ns.parent is None or ns.out is None:
        ap.error("--parent and --out are required")
    if ns.rounds < 2:
        ap.error("--rounds must be at least 2 (quartiles need two rounds)")
    return {"parent": ns.parent.resolve(), "change": ns.src.resolve()}


def run_worker(script: str, src: Path, argv: list):
    """The JSON last line printed by `script argv` run on src, with
    single-threaded BLAS."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_rounds(sides: dict, n_rounds: int, work, line, label: str = ""
               ) -> dict:
    """{side: [work(side) of each round]}.  Even rounds run the sides in
    order, odd rounds reversed; after each round
    "round k/n<label>: <line(rounds so far)>" goes to stderr."""
    rounds = {side: [] for side in sides}
    for k in range(n_rounds):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            rounds[side].append(work(side))
        print(f"round {k + 1}/{n_rounds}{label}: {line(rounds)}",
              file=sys.stderr, flush=True)
    return rounds


def versions(src: Path) -> dict:
    code = ("import numpy, starquant; print(numpy.__version__, "
            "starquant.__version__)")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    numpy_v, ours = out.split()
    return {"python": platform.python_version(), "numpy": numpy_v,
            "starquant": ours}


def spread(xs) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def require_sampled(texts) -> None:
    """Exit 1 naming the first graph with at most 2 sampled dimensions:
    the deterministic rule integrates those, and a sampler harness that
    times or scores them measures the rule instead."""
    from starquant.graphs import parse
    from starquant.integrand import sampled_dims
    for text in texts:
        dims = sampled_dims(parse(text))
        if dims <= 2:
            sys.exit(f"error: {text} has {dims} sampled dimensions: the "
                     "deterministic rule integrates it, not the sampler")
