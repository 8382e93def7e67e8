#!/usr/bin/env python3
"""Survey mirror parity of star-graph weights across seeds.

For each seed, runs `starquant weight -n ORDER --seed SEED --audit
parity` through starquant.cli.main, which integrates the full order-n
table fresh and compares every graph against its mirror at 3 and 5
sigma, and prints the audit lines under the seed.  The summary shows
how the pass rate fluctuates with the draw, which is the statistical
allowance the acceptance bound builds on.

    PYTHONPATH=src python scripts/parity_survey.py -n 2 --seeds 0,1,2
"""
import argparse
import contextlib
import io
import os
import tempfile

from starquant.cli import main


def survey(order: int, seeds, n_samples):
    budget = [] if n_samples is None else ["--samples", str(n_samples)]
    print(f"order {order}, seeds {list(seeds)}")
    with tempfile.TemporaryDirectory() as work:
        table = os.path.join(work, "table.csv")
        for seed in seeds:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["weight", "-n", str(order), "--seed", str(seed),
                             "--audit", "parity", "--out", table] + budget)
            print(f"  seed {seed}: exit {code}")
            for line in stdout.getvalue().splitlines():
                print(f"    {line}")


def cli():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--order", type=int, default=2)
    ap.add_argument("--seeds", default="0,1,2",
                    help="comma list of table seeds")
    ap.add_argument("--samples", type=int, default=None)
    ns = ap.parse_args()
    survey(ns.order, [int(s) for s in ns.seeds.split(",")], ns.samples)


if __name__ == "__main__":
    cli()
