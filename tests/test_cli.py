"""Command-line front end: exit codes, artifacts, determinism."""
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant.cli import SUITES, main
from starquant.graphs import parse, serialize, star_graphs, to_json_obj
from starquant.poly import Polynomial
from starquant.polyvector import PolyVectorField
from starquant.rational import QI


@pytest.fixture
def sympl_file(tmp_path):
    one = Polynomial.constant(2, QI(1))
    alpha = PolyVectorField(2, 1, {(0, 1): one})
    path = tmp_path / "sympl.json"
    path.write_text(json.dumps(alpha.to_json_obj()))
    return str(path)


def poly_file(tmp_path, name, dim, poly):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": dim, "poly": poly.to_json_obj()}))
    return str(path)


class TestEnumerate:
    def test_counts(self, capsys):
        assert main(["enumerate", "-n", "1", "-m", "2"]) == 0
        assert "2 graphs" in capsys.readouterr().out
        assert main(["enumerate", "-n", "0", "-m", "2"]) == 0
        assert "1 graphs" in capsys.readouterr().out
        assert main(["enumerate", "-n", "2", "-m", "2"]) == 0
        assert "36 graphs" in capsys.readouterr().out

    def test_artifact_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "graphs.json")
        assert main(["enumerate", "-n", "1", "-m", "2", "--out", out]) == 0
        listing = json.loads(open(out).read())
        assert len(listing) == 2
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["command"] == "enumerate"
        assert manifest["outputs"][0]["path"] == out
        import hashlib
        digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
        assert manifest["outputs"][0]["sha256"] == digest

    def test_manifest_records_library_versions(self, tmp_path, capsys):
        """Byte determinism is only claimed together with the library
        versions that ran; numpy is the only runtime dependency."""
        out = str(tmp_path / "graphs.json")
        assert main(["enumerate", "-n", "1", "-m", "2", "--out", out]) == 0
        versions = json.loads(open(out + ".manifest.json").read())["versions"]
        assert versions["numpy"] == numpy.__version__
        assert "python" in versions
        assert "scipy" not in versions

    @pytest.mark.parametrize("argv", [
        ["-n", "1", "-m", "-3"], ["-n", "2", "-m", "-1"]])
    def test_negative_ground_count_exit_2(self, capsys, argv):
        assert main(["enumerate"] + argv) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_cap_exit_code(self, capsys):
        assert main(["enumerate", "-n", "5", "-m", "2"]) == 3

    @pytest.mark.parametrize("argv", [
        ["enumerate", "-n", "1000", "-m", "2"], ["weight", "-n", "1000"]])
    def test_huge_order_exit_3(self, capsys, argv):
        """A count past the cap is not formed in full, so the message
        has no 4000-digit number to print."""
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: more than 1000000 graphs; raise `cap` explicitly to "
            "proceed\n")

    @pytest.mark.parametrize("degrees", ["1,x", "1,,1", "x", "1.5", "-5,1"])
    def test_bad_degrees_exit_2(self, capsys, degrees):
        assert main(["enumerate", "-n", "2", f"--degrees={degrees}"]) == 2
        assert "error:" in capsys.readouterr().err


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the package and its
    CLI in a fresh interpreter loads no scipy module."""
    import starquant
    src = str(Path(starquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, starquant.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_loads_no_numpy(tmp_path):
    """numpy and the sampler load on first use: not on import, not for
    a so(3) associativity check whose weights all have closed forms,
    not for its --out manifest, which records numpy's version, not for
    a weight table of a vanishing-lemma graph, and numpy as soon as a
    weight is sampled.  No thread pool loads."""
    import starquant
    src = str(Path(starquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    path = str(tmp_path / "assoc.txt")
    lemma = str(tmp_path / "lemma.json")
    with open(lemma, "w") as fh:
        json.dump([{"n": 2, "m": 2, "edges": [[2, "L"], [1, "L"]]}], fh)
    code = (
        "import contextlib, io, sys\n"
        "import starquant, starquant.cli\n"
        "mods = ('numpy', 'starquant.integrand', 'concurrent.futures')\n"
        "print([m for m in mods if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = starquant.cli.main(['verify', 'assoc', '-N', '3'])\n"
        "print(code, 'numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = starquant.cli.main(['verify', 'assoc', '-N', '3', "
        f"'--out', {path!r}])\n"
        "print(code, 'numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = starquant.cli.main(['weight', '--graphs', "
        f"{lemma!r}])\n"
        "print(code, 'numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = starquant.cli.main(['weight', '-n', '1', '--samples', "
        "'64'])\n"
        "print(code, 'numpy' in sys.modules)\n"
        "import json, numpy\n"
        f"manifest = json.load(open({path!r} + '.manifest.json'))\n"
        "print(manifest['versions']['numpy'] == numpy.__version__)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "0 False", "0 False", "0 False",
                                "0 True", "True"]


# the I_2 graph (one aerial vertex, three grounds) and its reversal
I2_GRAPHS = [{"n": 1, "m": 3, "edges": [["G2", "G1", "G0"]]},
             {"n": 1, "m": 3, "edges": [["G0", "G1", "G2"]]}]
# the order-1 star graph 1:[L,R]
ORDER1_LR = {"n": 1, "m": 2, "edges": [["L", "R"]]}


class TestWeight:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["weight", "-n", "1", "--seed", "9",
                     "--samples", "65536", "--out", a]) == 0
        assert main(["weight", "-n", "1", "--seed", "9",
                     "--samples", "65536", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_csv_labels_the_rule(self, capsys):
        """Order-1 graphs sample 2 dimensions: the table names the rule."""
        assert main(["weight", "-n", "1", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [row.split(",")[-1] for row in rows] == ["cubature"] * 2

    def test_method_cubature_exit_2(self, capsys):
        """The rule is not a --method: integrate picks it by dimension."""
        with pytest.raises(SystemExit) as exc:
            main(["weight", "-n", "1", "--method", "cubature"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sample_budget_past_the_sobol_resolution_exit_2(self, capsys):
        """2^36 samples would need 2^31 qmc points per replicate, past the
        30-bit direction numbers; rejected before any block is drawn.  The
        first order-2 graph samples 4 dimensions (order 1 samples none)."""
        assert main(["weight", "-n", "2", "--samples", str(2 ** 36)]) == 2
        assert "2^30 points per replicate" in capsys.readouterr().err

    def test_out_of_memory_exit_3(self, monkeypatch, capsys):
        from starquant import weights

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(weights, "integrate_graph_form", exhausted)
        assert main(["weight", "-n", "1", "--samples", "64"]) == 3
        assert "out of memory" in capsys.readouterr().err

    def test_parity_audit_line(self, capsys):
        assert main(["weight", "-n", "1", "--seed", "9",
                     "--samples", "65536", "--audit", "parity"]) == 0
        out = capsys.readouterr().out
        assert "parity audit" in out
        assert "pass" in out

    def test_order2_parity_audit_with_lemma_zeros(self, tmp_path, capsys):
        """Without --exact the eight lemma graphs get exact zeros, which
        the parity audit compares with their mirrors' exact zeros."""
        out = tmp_path / "w2.json"
        assert main(["weight", "-n", "2", "--seed", "0", "--samples", "4096",
                     "--audit", "parity", "--format", "json",
                     "--out", str(out)]) == 0
        assert "parity audit: 36/36 within 3 sigma" in capsys.readouterr().out
        entries = {e["graph"]: e for e in json.loads(out.read_text())}
        zeros = {ser for ser, e in entries.items() if "exact" in e}
        assert len(zeros) == 8
        for ser in zeros:
            mirror = serialize(parse(ser).mirror())
            assert mirror in zeros
            assert (entries[ser]["exact"], entries[ser]["value"],
                    entries[ser]["n_samples"]) == ([0, 1], 0.0, 0)

    def test_three_ground_graphs_are_weighted(self, tmp_path, capsys):
        """I_2's graph has weight 1/6 and its reversal -1/6."""
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps(I2_GRAPHS))
        out = tmp_path / "table.json"
        assert main(["weight", "--graphs", str(path), "--seed", "0",
                     "--samples", "65536", "--format", "json",
                     "--out", str(out)]) == 0
        entries = json.loads(out.read_text())
        for entry, want in zip(entries, (1 / 6, -1 / 6)):
            assert abs(entry["value"] - want) <= 4 * entry["std_error"]

    def test_three_ground_graphs_are_exact(self, tmp_path, capsys):
        """With --exact, both I_2 graphs get closed-form entries."""
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps(I2_GRAPHS))
        out = tmp_path / "table.json"
        assert main(["weight", "--graphs", str(path), "--exact",
                     "--format", "json", "--out", str(out)]) == 0
        entries = json.loads(out.read_text())
        assert [(e["exact"], e["std_error"], e["n_samples"])
                for e in entries] == [([1, 6], 0.0, 0), ([-1, 6], 0.0, 0)]

    def test_parity_audit_skips_graphs_without_a_mirror(self, tmp_path,
                                                        capsys):
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps(I2_GRAPHS))
        assert main(["weight", "--graphs", str(path), "--samples", "4096",
                     "--audit", "parity"]) == 2
        assert "no mirror pairs found" in capsys.readouterr().out
        pair = [{"n": 1, "m": 2, "edges": [["G0", "G1"]]},
                {"n": 1, "m": 2, "edges": [["G1", "G0"]]}]
        path.write_text(json.dumps(I2_GRAPHS + pair))
        assert main(["weight", "--graphs", str(path), "--samples", "4096",
                     "--audit", "parity"]) == 0
        assert "parity audit: 2/2 within 3 sigma" in capsys.readouterr().out

    def test_count_is_of_entries_written(self, tmp_path, capsys):
        """A graph listed twice is one table entry and one weight."""
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps([ORDER1_LR, ORDER1_LR]))
        out = tmp_path / "table.json"
        assert main(["weight", "--graphs", str(path), "--samples", "1024",
                     "--format", "json", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 1
        assert capsys.readouterr().out == "1 weights computed\n"

    def test_doubled_edge_exit_2(self, tmp_path, capsys):
        """A graph whose vertex repeats a target is not admissible."""
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps([{"n": 1, "m": 2, "edges": [["L", "L"]]}]))
        assert main(["weight", "--graphs", str(path), "--exact"]) == 2
        assert "doubled edge" in capsys.readouterr().err

    def test_parity_audit_checks_each_graph_once(self, tmp_path, capsys):
        """[L,R], [R,L], [L,R]: two distinct graphs, two checks."""
        path = tmp_path / "graphs.json"
        mirror = {"n": 1, "m": 2, "edges": [["R", "L"]]}
        path.write_text(json.dumps([ORDER1_LR, mirror, ORDER1_LR]))
        assert main(["weight", "--graphs", str(path), "--exact",
                     "--audit", "parity"]) == 0
        out = capsys.readouterr().out
        assert "parity audit: 2/2 within 3 sigma" in out
        assert "2 weights computed" in out

    def test_error_target_warns_but_exits_zero(self, capsys):
        assert main(["weight", "-n", "1", "--seed", "9",
                     "--samples", "65536",
                     "--error-target", "1e-9"]) == 0
        assert "warning" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--samples", "0"], ["--samples", "-4"],
        ["--error-target", "0"], ["--error-target", "-1"],
    ])
    def test_nonpositive_numeric_flag_exit_2(self, monkeypatch, capsys,
                                             flags):
        from starquant import weights

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled despite a rejected flag")

        monkeypatch.setattr(weights, "integrate_graph_form", no_sampling)
        assert main(["weight", "-n", "1"] + flags) == 2
        assert "must be" in capsys.readouterr().err

    def test_needs_source(self, capsys):
        assert main(["weight", "--seed", "1"]) == 2

    def test_bad_graphs_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["weight", "--graphs", str(bad)]) == 2

    @pytest.mark.parametrize("content", [
        7,
        [{"n": 1, "m": 2, "edges": 5}],
        [{"n": 1, "m": 2, "edges": [5]}],
        [{"n": 1.5, "m": 2, "edges": [["G0", "G1"]]}],
        [{"n": 2, "m": 2, "edges": [["G0", "G1"], [True, "G1"]]}],
        [5],
        [{"n": 2, "m": 2, "edges": [["G0", "G1"], ["\u00b2", "G1"]]}],
    ])
    def test_malformed_graphs_file_exit_2(self, tmp_path, capsys, content):
        bad = tmp_path / "graphs.json"
        bad.write_text(json.dumps(content))
        assert main(["weight", "--graphs", str(bad),
                     "--samples", "1024"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_qmc_dimension_cap_exit_2(self, tmp_path, capsys):
        """17 aerial vertices on a closed chain, none of them a source,
        sample 34 dimensions, beyond the Sobol' table: a usage error, not
        a traceback."""
        edges = [[i + 2, "G0"] for i in range(16)] + [[1, "G1"]]
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps([{"n": 17, "m": 2, "edges": edges}]))
        assert main(["weight", "--graphs", str(path),
                     "--samples", "1024"]) == 2
        err = capsys.readouterr().err
        assert "at most 32 dimensions" in err
        assert "Traceback" not in err

    def test_sampling_failure_exit_4(self, monkeypatch, capsys):
        import numpy as np

        from starquant import integrand
        from starquant.errors import EngineError, SamplingError
        assert issubclass(SamplingError, EngineError)
        # every block of every integrand plan, redraws included, guarded
        monkeypatch.setattr(integrand._Plan, "_block",
                            lambda plan, out: out.fill(np.nan))
        assert main(["weight", "-n", "1", "--samples", "1024"]) == 4
        assert "sampling failure" in capsys.readouterr().err


class TestStar:
    def test_symplectic_xy(self, tmp_path, sympl_file, capsys):
        """x * y at order 1 is xy + (i/2) hbar, written as exact rationals."""
        f = poly_file(tmp_path, "f.json", 2, Polynomial.variable(2, 0))
        g = poly_file(tmp_path, "g.json", 2, Polynomial.variable(2, 1))
        out = str(tmp_path / "series.json")
        assert main(["star", "--alpha", sympl_file, "--f", f, "--g", g,
                     "-N", "1", "--seed", "5", "--out", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["order"] == 1
        h0, h1 = obj["series"]["coeffs"]
        assert h0 == [{"den": 1, "exps": [1, 1], "num": 1}]
        assert h1 == [{"den": 1, "exps": [0, 0], "num": 0,
                       "im_num": 1, "im_den": 2}]

    def test_zero_alpha_is_plain_product(self, tmp_path, capsys):
        alpha = PolyVectorField(2, 1, {})
        apath = tmp_path / "zero.json"
        apath.write_text(json.dumps(alpha.to_json_obj()))
        x = Polynomial.variable(2, 0)
        f = poly_file(tmp_path, "f.json", 2, x)
        g = poly_file(tmp_path, "g.json", 2, x * x)
        out = str(tmp_path / "series.json")
        assert main(["star", "--alpha", str(apath), "--f", f, "--g", g,
                     "-N", "2", "--out", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["series"]["coeffs"][0] == [
            {"den": 1, "exps": [3, 0], "num": 1}]
        assert obj["series"]["coeffs"][1] == []

    def test_arguments_off_the_bivector_space_exit_2(self, capsys):
        """A zero bivector has no operator to catch --f and --g on
        another space: the engine refuses them before any product."""
        alpha = {"dim": 4096, "degree": 1, "components": []}
        f = {"dim": 3, "poly": [{"exps": [0, 0, 0], "num": 1},
                                {"exps": [1, 0, 0], "num": 1}]}
        assert run_with_files(["star", "-N", "1", "--samples", "64"],
                              [("--alpha", alpha), ("--f", f),
                               ("--g", f)]) == 2
        assert "R^3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, sympl_file, capsys):
        assert main(["star", "--alpha", sympl_file,
                     "--f", "/nonexistent.json",
                     "--g", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("bad", [{"den": 0}, {"im_num": 1, "im_den": 0}])
    def test_zero_denominator_poly_exit_2(self, tmp_path, sympl_file, capsys,
                                          bad):
        f = tmp_path / "f.json"
        f.write_text(json.dumps(
            {"dim": 2, "poly": [{"exps": [1, 0], "num": 1, **bad}]}))
        g = poly_file(tmp_path, "g.json", 2, Polynomial.variable(2, 1))
        assert main(["star", "--alpha", sympl_file, "--f", str(f),
                     "--g", g, "-N", "1"]) == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("dim,terms", [
        (2, [{"exps": [1.5, 0], "num": 1}]),
        (2, [{"exps": [1, 0], "num": 1.5}]),
        (2, [{"exps": [1, 0], "num": 1, "den": 2.0}]),
        (2, [{"exps": [1, 0], "num": True}]),
        (2, [{"exps": [1, 0], "num": 1}, {"exps": [1, 0], "num": 2}]),
        (2.0, [{"exps": [1, 0], "num": 1}]),
    ])
    def test_malformed_poly_exit_2(self, tmp_path, sympl_file, capsys,
                                   dim, terms):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"dim": dim, "poly": terms}))
        g = poly_file(tmp_path, "g.json", 2, Polynomial.variable(2, 1))
        assert main(["star", "--alpha", sympl_file, "--f", str(f),
                     "--g", g, "-N", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("indices", [
        [[1.5, 2]], [[1, 2.0]], [[True, 2]], [[1, 2], [1, 2]]])
    def test_malformed_alpha_indices_exit_2(self, tmp_path, capsys,
                                            indices):
        apath = tmp_path / "alpha.json"
        apath.write_text(json.dumps({"dim": 2, "degree": 1, "components": [
            {"indices": idx, "poly": [{"exps": [0, 0], "num": 1}]}
            for idx in indices]}))
        f = poly_file(tmp_path, "f.json", 2, Polynomial.variable(2, 0))
        g = poly_file(tmp_path, "g.json", 2, Polynomial.variable(2, 1))
        assert main(["star", "--alpha", str(apath), "--f", f, "--g", g,
                     "-N", "1"]) == 2
        assert "bad polyvector field object" in capsys.readouterr().err

    def test_zero_denominator_alpha_exit_2(self, tmp_path, capsys):
        apath = tmp_path / "alpha.json"
        apath.write_text(json.dumps({"dim": 2, "degree": 1, "components": [
            {"indices": [1, 2],
             "poly": [{"exps": [0, 0], "num": 1, "den": 0}]}]}))
        f = poly_file(tmp_path, "f.json", 2, Polynomial.variable(2, 0))
        g = poly_file(tmp_path, "g.json", 2, Polynomial.variable(2, 1))
        assert main(["star", "--alpha", str(apath), "--f", f, "--g", g,
                     "-N", "1"]) == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_deterministic_series_bytes(self, tmp_path, sympl_file, capsys):
        f = poly_file(tmp_path, "f.json", 2,
                      Polynomial.variable(2, 0) * Polynomial.variable(2, 0))
        g = poly_file(tmp_path, "g.json", 2, Polynomial.variable(2, 1))
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["star", "--alpha", sympl_file, "--f", f,
                         "--g", g, "-N", "2", "--seed", "11",
                         "--samples", "65536", "--out", out]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10)
SMALL = st.integers(min_value=-2, max_value=4)
TERM = st.fixed_dictionaries(
    {"exps": st.lists(st.integers(min_value=0, max_value=3), min_size=3,
                      max_size=3),
     "num": st.integers()},
    optional={key: SMALL for key in ("den", "im_num", "im_den")})


@st.composite
def poly_files(draw):
    """A dim-3 polynomial file (so(3) is the default alpha) with at most
    one part replaced by arbitrary JSON."""
    terms = draw(st.lists(TERM, max_size=3))
    obj = {"dim": 3, "poly": terms}
    spot = draw(st.sampled_from(["none", "file", "dim", "poly", "term",
                                 "field"]))
    if spot == "file":
        return draw(JSON)
    if spot in ("dim", "poly"):
        obj[spot] = draw(JSON)
    elif terms and spot != "none":
        k = draw(st.integers(min_value=0, max_value=len(terms) - 1))
        if spot == "term":
            terms[k] = draw(JSON)
        else:
            terms[k][draw(st.sampled_from(
                ["exps", "num", "den", "im_num", "im_den"]))] = draw(JSON)
    return obj


GRAPHS = [g for order in (0, 1, 2) for g in star_graphs(order)]
TARGET = st.integers(min_value=-1, max_value=4) | st.sampled_from(
    ["L", "R", "G0", "G1", "G2", "2", "\u00b2"])


@st.composite
def graph_files(draw):
    """Star graphs of order <= 2 as a --graphs list, with at most one
    part replaced by arbitrary JSON or an arbitrary target."""
    objs = [to_json_obj(g) for g in draw(
        st.lists(st.sampled_from(GRAPHS), min_size=1, max_size=2))]
    spot = draw(st.sampled_from(["none", "file", "graph", "n", "m",
                                 "edges", "target"]))
    k = draw(st.integers(min_value=0, max_value=len(objs) - 1))
    if spot == "file":
        return draw(JSON)
    if spot == "graph":
        objs[k] = draw(JSON)
    elif spot in ("n", "m", "edges"):
        objs[k][spot] = draw(JSON | st.integers(min_value=-1, max_value=4))
    elif spot == "target" and objs[k]["edges"]:
        row = draw(st.sampled_from(objs[k]["edges"]))
        row[draw(st.integers(min_value=0, max_value=1))] = draw(JSON | TARGET)
    return objs


CALL_LIMIT_S = 120


class Stalled(BaseException):
    """A CLI call ran past CALL_LIMIT_S.  Not an Exception, so neither the
    CLI's handlers nor hypothesis's shrinker take it for an exit code or
    a failing example to retry: the test fails at once."""


def exit_code(argv):
    """main's return value, or the code of an argparse usage exit; a call
    past CALL_LIMIT_S fails the test instead of stalling the run."""
    def stall(signum, frame):
        raise Stalled(f"{argv!r} ran past {CALL_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, stall)
    signal.alarm(CALL_LIMIT_S)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_with_files(argv, files):
    """exit_code(argv + [flag, path]) with each (flag, obj) of files
    written to a temporary JSON file."""
    with tempfile.TemporaryDirectory() as work:
        for k, (flag, obj) in enumerate(files):
            path = os.path.join(work, f"{k}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            argv = argv + [flag, path]
        return exit_code(argv)


class TestCliInputFuzz:
    """Arbitrary input text and files end in a documented exit code,
    never in a traceback."""

    @given(n=st.integers(min_value=-2, max_value=3),
           m=st.integers(min_value=-1, max_value=2),
           degrees=st.none() | st.text(alphabet="0123-,x. ", max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_enumerate_text(self, n, m, degrees):
        argv = ["enumerate", "-n", str(n), "-m", str(m)]
        if degrees is not None:
            argv.append(f"--degrees={degrees}")
        assert exit_code(argv) in (0, 2, 3)

    @given(graphs=graph_files())
    @settings(max_examples=60, deadline=None)
    def test_weight_graphs_json(self, graphs):
        assert run_with_files(["weight", "--samples", "64"],
                              [("--graphs", graphs)]) in (0, 2)

    @given(f=poly_files(), g=poly_files(), h=poly_files())
    @settings(max_examples=60, deadline=None)
    def test_assoc_triple_json(self, f, g, h):
        assert run_with_files(
            ["verify", "assoc", "-N", "1", "--samples", "64"],
            [("--f", f), ("--g", g), ("--h", h)]) in (0, 1, 2)


@st.composite
def alpha_files(draw):
    """A polyvector JSON object on dimension 0..4 (bivectors mostly),
    with at most one part replaced by arbitrary JSON or an out-of-range
    value."""
    dim = draw(st.integers(min_value=0, max_value=4))
    degree = draw(st.sampled_from([1, 1, 1, 0, 2]))
    index_sets = [list(c) for c in itertools.combinations(
        range(1, dim + 1), degree + 1)]
    chosen = draw(st.lists(st.sampled_from(index_sets), unique_by=tuple,
                           max_size=3)) if index_sets else []
    term = st.fixed_dictionaries(
        {"exps": st.lists(st.integers(min_value=0, max_value=2),
                          min_size=dim, max_size=dim),
         "num": st.integers(min_value=-3, max_value=3)},
        optional={"den": st.integers(min_value=1, max_value=3),
                  "im_num": st.integers(min_value=-2, max_value=2)})
    comps = [{"indices": idx, "poly": draw(st.lists(term, max_size=2))}
             for idx in chosen]
    obj = {"dim": dim, "degree": degree, "components": comps}
    spot = draw(st.sampled_from(["none", "none", "file", "dim", "degree",
                                 "components", "indices", "poly"]))
    if spot == "file":
        return draw(JSON)
    if spot in ("dim", "degree", "components"):
        obj[spot] = draw(JSON | st.integers(min_value=-3, max_value=5))
    elif comps and spot in ("indices", "poly"):
        k = draw(st.integers(min_value=0, max_value=len(comps) - 1))
        comps[k][spot] = draw(JSON | st.lists(
            st.integers(min_value=-1, max_value=5), max_size=3))
    return obj


def linear_poly_file(alpha):
    """x1 + 1 on the dimension alpha claims, when that is a small
    integer; dimension 3 otherwise."""
    dim = alpha.get("dim") if isinstance(alpha, dict) else None
    if isinstance(dim, bool) or not isinstance(dim, int) or not 0 <= dim <= 4:
        dim = 3
    terms = [{"exps": [0] * dim, "num": 1}]
    if dim:
        terms.append({"exps": [1] + [0] * (dim - 1), "num": 1})
    return {"dim": dim, "poly": terms}


class TestAlphaInputFuzz:
    """Arbitrary --alpha files end in a documented exit code, never in a
    traceback."""

    @given(alpha=alpha_files())
    @settings(max_examples=60, deadline=None)
    def test_verify_jacobi(self, alpha):
        assert run_with_files(["verify", "jacobi"],
                              [("--alpha", alpha)]) in (0, 1, 2, 3)

    @given(alpha=alpha_files())
    @settings(max_examples=60, deadline=None)
    def test_star(self, alpha):
        f = linear_poly_file(alpha)
        assert run_with_files(["star", "-N", "1", "--samples", "64"],
                              [("--alpha", alpha), ("--f", f),
                               ("--g", f)]) in (0, 1, 2, 3)

    @pytest.mark.parametrize("suite", ["assoc", "center-probe"])
    @given(alpha=alpha_files())
    @settings(max_examples=60, deadline=None)
    def test_verify_default_arguments(self, suite, alpha):
        """The suites that build default arguments from the coordinates
        of --alpha, dimension 0 included."""
        assert run_with_files(["verify", suite, "-N", "1", "--samples",
                               "64"], [("--alpha", alpha)]) in (0, 1, 2, 3)

    def test_dimension_past_the_address_space(self):
        """A dimension no list can index ends in exit 3, not a traceback
        (hypothesis drew this one for test_verify_default_arguments)."""
        alpha = {"dim": 2 ** 63, "degree": 1, "components": []}
        assert run_with_files(["verify", "assoc", "-N", "1", "--samples",
                               "64"], [("--alpha", alpha)]) == 3

    def test_large_dimension_jacobi_check(self):
        """JSON may claim any dimension: the Jacobi check that star and
        verify jacobi run first costs what the components cost, not
        dim^4, so a zero bivector on R^4096 is checked at once."""
        alpha = {"dim": 4096, "degree": 1, "components": []}
        assert run_with_files(["verify", "jacobi"], [("--alpha", alpha)]) == 0
        f = linear_poly_file(alpha)
        assert run_with_files(["star", "-N", "1", "--samples", "64"],
                              [("--alpha", alpha), ("--f", f),
                               ("--g", f)]) in (0, 1, 2, 3)

    def test_large_dimension_default_arguments(self, capsys):
        """assoc builds only the coordinates its default triple reads;
        center-probe's default --f, dense in every coordinate, is refused
        past SQUARES_MAX_DIM with exit 2."""
        alpha = {"dim": 8192, "degree": 1, "components": []}
        assert run_with_files(["verify", "assoc", "-N", "1", "--samples",
                               "64"], [("--alpha", alpha)]) == 0
        capsys.readouterr()
        assert run_with_files(["verify", "center-probe"],
                              [("--alpha", alpha)]) == 2
        assert "pass --f" in capsys.readouterr().err

    def test_zero_dimensional_alpha_exit_2(self, capsys):
        alpha = {"dim": 0, "degree": 1, "components": []}
        for suite in ("assoc", "center-probe"):
            assert run_with_files(["verify", suite],
                                  [("--alpha", alpha)]) == 2
            assert "dimension >= 1" in capsys.readouterr().err


class TestStarInputFuzz:
    @given(f=poly_files(), g=poly_files())
    @settings(max_examples=60, deadline=None)
    def test_any_json_exits_0_or_2(self, f, g):
        """Arbitrary JSON in the --f/--g files ends in exit 0 or 2,
        never in a traceback."""
        assert run_with_files(["star", "-N", "1"],
                              [("--f", f), ("--g", g)]) in (0, 2)


class TestVerify:
    def test_jacobi_default_structure(self, capsys):
        assert main(["verify", "jacobi"]) == 0
        assert "jacobi" in capsys.readouterr().out

    def test_jacobi_negative_dimension_exit_2(self, tmp_path, capsys):
        apath = tmp_path / "alpha.json"
        apath.write_text(json.dumps({"dim": -2, "degree": 1,
                                     "components": []}))
        assert main(["verify", "jacobi", "--alpha", str(apath)]) == 2
        assert "dimension must be non-negative" in capsys.readouterr().err

    def test_moyal_exact(self, capsys):
        assert main(["verify", "moyal", "--seed", "1"]) == 0
        assert "exact match" in capsys.readouterr().out

    def test_ip_report(self, tmp_path, capsys):
        out = str(tmp_path / "ip.json")
        assert main(["verify", "ip", "-p", "1", "--seed", "3",
                     "--out", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["ok"] is True
        assert obj["std_error"] > 0

    def test_ip_p1_is_the_rule(self, tmp_path, capsys):
        """I_1 has 2 sampled dimensions: the deterministic rule gives it
        to within 1e-9 in weight units, inside its reported error."""
        out = str(tmp_path / "ip.json")
        assert main(["verify", "ip", "-p", "1", "--out", out]) == 0
        obj = json.loads(open(out).read())
        miss = abs(obj["value"] - obj["target"])
        assert miss <= 1e-9 * (2 * math.pi) ** 2
        assert 0 < miss <= obj["std_error"]

    @pytest.mark.parametrize("p", ["0", "-1", "9", "50"])
    def test_ip_order_out_of_range_exit_2(self, monkeypatch, capsys, p):
        from starquant import weights

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled an out-of-range I_p")

        monkeypatch.setattr(weights, "integrate_graph_form", no_sampling)
        assert main(["verify", "ip", "-p", p]) == 2
        assert "-p must be between 1 and 8" in capsys.readouterr().err

    def test_ip_order_limit_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "1 <= p <= 8" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.usefixtures("sampled_weights")
    def test_default_assoc_reaches_sampled_weights(self, tmp_path):
        """The default triple is quadratic: its hbar^2 residual carries a
        nonzero error bound, so a wrong sampled weight could fail it."""
        out = tmp_path / "assoc.json"
        assert main(["verify", "assoc", "--seed", "0", "--samples", "4096",
                     "--out", str(out)]) == 0
        powers = {r["power"]: r for r in json.loads(out.read_text())["powers"]}
        assert powers[2]["bound"] > 0
        assert powers[2]["residual_max"] > 0

    @pytest.mark.parametrize("order", ["2", "3"])
    def test_cubic_triple_is_exactly_associative(self, tmp_path, order):
        """x0^2 x1, x1^2 x2, x0 x2^2 on the packaged so(3): every weight
        it reads through order 3 is exact, so each power has residual 0
        at bound 0."""
        x = [Polynomial.variable(3, i) for i in range(3)]
        argv = ["verify", "assoc", "-N", order]
        for k, p in zip("fgh", (x[0] * x[0] * x[1], x[1] * x[1] * x[2],
                                x[0] * x[2] * x[2])):
            argv += [f"--{k}", poly_file(tmp_path, f"{k}.json", 3, p)]
        out = tmp_path / "assoc.json"
        assert main(argv + ["--seed", "0", "--samples", "4096",
                            "--out", str(out)]) == 0
        powers = json.loads(out.read_text())["powers"]
        assert [r["power"] for r in powers] == list(range(int(order) + 1))
        assert all(r["residual_max"] == 0 and r["bound"] == 0
                   for r in powers)

    @pytest.mark.parametrize("suite", SUITES)
    def test_negative_order_exit_2(self, capsys, suite):
        """Every suite rejects -N < 0, also those that read no order."""
        assert main(["verify", suite, "-N", "-2"]) == 2
        assert "truncation order must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["inf", "1e309", "nan"])
    def test_non_finite_policy_exit_2(self, capsys, policy):
        """inf x a zero bound is NaN, which would fail exact rows."""
        assert main(["verify", "assoc", "--policy", policy]) == 2
        assert "policy" in capsys.readouterr().err

    @pytest.mark.parametrize("given", [("f",), ("g", "h"), ("f", "h")])
    def test_partial_assoc_triple_exit_2(self, monkeypatch, capsys, given):
        from starquant import cli

        def no_check(*args, **kwargs):
            raise AssertionError("checked a triple the flags did not give")

        monkeypatch.setattr(cli, "check_associativity", no_check)
        argv = ["verify", "assoc"]
        for k in given:
            argv += [f"--{k}", "/nonexistent.json"]
        assert main(argv) == 2
        missing = capsys.readouterr().err.split("missing")[-1]
        for k in "fgh":
            assert (f"--{k}" in missing) == (k not in given)

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_symmetry_suite(self, capsys):
        assert main(["verify", "symmetry", "--seed", "2",
                     "--samples", "32768"]) == 0
        assert "graded symmetry" in capsys.readouterr().out
