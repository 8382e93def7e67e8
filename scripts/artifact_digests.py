#!/usr/bin/env python3
"""Print the exit code, artifact sha256 and stdout sha256 of a fixed
set of CLI invocations.

Runs each invocation below in process through starquant.cli.main,
writing its --out artifact into a temporary directory, and prints one
line per invocation:

    name exit_code artifact_sha256 stdout_sha256

Every invocation takes the --samples budget except weight_n2_1048576,
which always samples 2^20 points per graph, and enumerate_n2_m2, which
samples nothing.  Primary artifacts and stdout are byte-deterministic
for a fixed --seed, so diffing this output between two checkouts is a
byte-identity check of a refactor:

    PYTHONPATH=src python scripts/artifact_digests.py > after.txt

Manifests are not hashed (they carry the wall clock).
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

from starquant.cli import main

# (x0^2 + x1) d0 ^ d1; every bivector in dimension 2 is Poisson
DIM2_ALPHA = {"dim": 2, "degree": 1, "components": [
    {"indices": [1, 2], "poly": [{"exps": [2, 0], "num": 1},
                                 {"exps": [0, 1], "num": 1}]}]}
INPUTS = {
    "so3_f.json": {"dim": 3, "poly": [{"exps": [1, 1, 1], "num": 1}]},
    "so3_g.json": {"dim": 3, "poly": [{"exps": [2, 1, 0], "num": 1}]},
    "dim2_alpha.json": DIM2_ALPHA,
    "dim2_f.json": {"dim": 2, "poly": [{"exps": [1, 1], "num": 1}]},
    "dim2_g.json": {"dim": 2, "poly": [{"exps": [2, 0], "num": 1}]},
    # the I_2 graph (one aerial vertex, three grounds) and its reversal
    "i2_graphs.json": [{"n": 1, "m": 3, "edges": [["G2", "G1", "G0"]]},
                       {"n": 1, "m": 3, "edges": [["G0", "G1", "G2"]]}],
    # two order-4 star graphs without a source vertex: 8 sampled
    # dimensions, so their determinant expansions run past 6 rows
    "k8_graphs.json": [
        {"n": 4, "m": 2, "edges": [[2, "L"], [3, "R"], [4, "L"], [1, "R"]]},
        {"n": 4, "m": 2, "edges": [[2, 3], [3, "L"], [4, "R"], [1, "L"]]}],
}


def invocations(samples: int, work: str):
    """(artifact name, argv without --out) pairs, in output order; input
    files are read from the directory work."""
    budget = ["--samples", str(samples)]

    def path(name):
        return os.path.join(work, name)

    weight_n2 = ["weight", "-n", "2", "--seed", "0", "--format", "json"]
    yield "weight_n2", weight_n2 + budget
    yield "weight_n2_mc", weight_n2 + ["--method", "mc"] + budget
    yield "weight_n2_audit", weight_n2 + ["--audit", "parity"] + budget
    yield "weight_n2_exact", weight_n2 + ["--exact"] + budget
    # 32768 rows per replicate: each replicate in several integrand calls
    yield "weight_n2_1048576", weight_n2 + ["--samples", "1048576"]
    for p in range(1, 5):
        yield f"verify_ip_p{p}", ["verify", "ip", "-p", str(p), "--seed",
                                  "0"] + budget
    for order in (2, 3):
        yield f"star_so3_N{order}", [
            "star", "-N", str(order), "--f", path("so3_f.json"),
            "--g", path("so3_g.json")] + budget
        yield f"star_dim2_N{order}", [
            "star", "-N", str(order), "--alpha", path("dim2_alpha.json"),
            "--f", path("dim2_f.json"), "--g", path("dim2_g.json")] + budget
    for suite in ("jacobi", "moyal"):
        yield f"verify_{suite}", ["verify", suite, "--seed", "0"] + budget
    yield "enumerate_n2_m2", ["enumerate", "-n", "2", "-m", "2"]
    for suite in ("assoc", "linfty", "symmetry", "center-probe"):
        for seed in (0, 5):
            yield f"verify_{suite}_seed{seed}", [
                "verify", suite, "--seed", str(seed)] + budget
    # the default triple's order-3 orbits on (x0^2 + x1) d0 ^ d1 are not
    # all solved, so this verdict rests on a sampled bound
    yield "verify_assoc_dim2_N3", [
        "verify", "assoc", "-N", "3", "--alpha", path("dim2_alpha.json"),
        "--seed", "0"] + budget
    yield "weight_graphs_m3", ["weight", "--graphs", path("i2_graphs.json"),
                               "--seed", "0", "--format", "json"] + budget
    yield "weight_graphs_k8", ["weight", "--graphs", path("k8_graphs.json"),
                               "--seed", "0", "--format", "json"] + budget


def run(samples: int) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for name, obj in INPUTS.items():
            with open(os.path.join(work, name), "w") as fh:
                json.dump(obj, fh)
        for name, argv in invocations(samples, work):
            out = os.path.join(work, f"{name}.json")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--out", out])
            digest = "-"
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            printed = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            lines.append(f"{name} {code} {digest} {printed}")
    return lines


def cli():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=4096,
                    help="sample budget per integration (default 4096)")
    ns = ap.parse_args()
    for line in run(ns.samples):
        print(line, flush=True)


if __name__ == "__main__":
    cli()
