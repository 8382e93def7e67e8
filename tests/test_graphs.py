"""Graph enumeration against a brute-force oracle, plus serialization
round-trips and the mirror involution."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant.errors import EnumerationCapError, ParseError
from starquant.graphs import (KGraph, count_graphs, enumerate_graphs,
                              from_json_obj, parse, serialize, star_graphs,
                              to_json_obj)


def brute_force_count(n, m, degrees):
    """Independent oracle: filter every raw target assignment."""
    slots = []
    for i, p in enumerate(degrees):
        for _ in range(p + 1):
            slots.append(i)
    count = 0
    for assignment in itertools.product(range(n + m), repeat=len(slots)):
        ok = True
        rows = [[] for _ in range(n)]
        for src, tgt in zip(slots, assignment):
            if tgt == src:
                ok = False
                break
            rows[src].append(tgt)
        if not ok:
            continue
        if any(len(set(r)) != len(r) for r in rows):
            continue
        count += 1
    return count


class TestCounts:
    def test_frozen_counts(self):
        assert len(enumerate_graphs(1, 2, [1])) == 2
        assert len(enumerate_graphs(0, 2, [])) == 1
        assert len(enumerate_graphs(2, 2, [1, 1])) == 36

    def test_against_brute_force(self):
        cases = [(1, 2, [1]), (2, 2, [1, 1]), (1, 2, [2]), (1, 3, [2]),
                 (2, 3, [1, 2]), (3, 2, [1, 1, 1]), (2, 1, [1, 1])]
        for n, m, deg in cases:
            got = len(enumerate_graphs(n, m, deg))
            assert got == brute_force_count(n, m, deg), (n, m, deg)
            assert got == count_graphs(n, m, deg)

    @pytest.mark.parametrize("n,m,degrees", [
        (1, -1, [1]), (1, -3, [1]), (2, -2, [0, 0]), (-1, 2, [])])
    @pytest.mark.parametrize("listing", [True, False])
    def test_negative_vertex_counts_rejected(self, n, m, degrees, listing):
        """Refused by enumerate_graphs (listing) and by count_graphs."""
        with pytest.raises(ParseError):
            (enumerate_graphs if listing else count_graphs)(n, m, degrees)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_graphs(4, 2, [1, 1, 1, 1], cap=1000)

    def test_cap_stops_at_the_first_factor_past_it(self, monkeypatch):
        """A huge order fails at once and names the cap, not the count:
        the running product passes the cap after the first vertex, long
        before the 20000-digit count would exist."""
        calls = []
        perm = math.perm
        monkeypatch.setattr(math, "perm",
                            lambda *a: calls.append(a) or perm(*a))
        with pytest.raises(EnumerationCapError,
                           match=r"^more than 1000000 graphs;"):
            enumerate_graphs(3000, 2, [1] * 3000)
        assert len(calls) == 1
        assert count_graphs(3, 2, [1] * 3) == 1728

    def test_canonical_order_stable(self):
        a = [serialize(g) for g in enumerate_graphs(2, 2, [1, 1])]
        b = [serialize(g) for g in enumerate_graphs(2, 2, [1, 1])]
        assert a == b
        keys = [g.out_edges for g in enumerate_graphs(2, 2, [1, 1])]
        assert keys == sorted(keys)


class TestMirror:
    def test_order1(self):
        g_lr, g_rl = enumerate_graphs(1, 2, [1])
        assert serialize(g_lr) == "n=1;m=2;1:[L,R]"
        assert g_lr.mirror() == g_rl
        assert g_rl.mirror() == g_lr

    def test_involution_order2(self):
        graphs = star_graphs(2)
        assert len(graphs) == 36
        for g in graphs:
            assert g.mirror().mirror() == g
            assert g.mirror() in graphs
            assert g.mirror() != g  # every star graph touches the ground

    def test_empty_graph(self):
        g = KGraph(0, 2, ())
        assert g.mirror() == g

    def test_needs_two_ground(self):
        g = enumerate_graphs(1, 3, [2])[0]
        with pytest.raises(ParseError):
            g.mirror()


class TestSerialization:
    def test_example(self):
        g = KGraph(1, 2, ((1, 2),))
        assert serialize(g) == "n=1;m=2;1:[L,R]"
        assert parse("n=1;m=2;1:[L,R]") == g

    def test_round_trip_all_order2(self):
        for g in star_graphs(2):
            assert parse(serialize(g)) == g
            assert from_json_obj(to_json_obj(g)) == g

    @given(st.integers(0, 3), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n, m, data):
        degrees = [data.draw(st.integers(0, 2)) for _ in range(n)]
        if count_graphs(n, m, degrees) == 0:
            return
        graphs = enumerate_graphs(n, m, degrees)
        g = data.draw(st.sampled_from(graphs))
        assert parse(serialize(g)) == g
        assert from_json_obj(to_json_obj(g)) == g

    def test_ground_names_general_m(self):
        g = enumerate_graphs(1, 3, [2])[0]
        assert "G0" in serialize(g)
        assert parse(serialize(g)) == g

    def test_parse_errors(self):
        for bad in ["n=1;m=2;1:[1,R]",      # self-loop
                    "n=1;m=2;1:[L,G7]",     # ground out of range
                    "n=2;m=2;1:[2,R]",      # missing vertex 2
                    "junk",
                    "n=1;m=2;1:[L,R];1:[L,R]",   # duplicate vertex
                    "n=1;m=2;1:[L,Q]"]:
        # noqa: E128
            with pytest.raises(ParseError):
                parse(bad)

    def test_json_ground_names(self):
        g = KGraph(1, 2, ((1, 2),))
        obj = to_json_obj(g)
        assert obj == {"n": 1, "m": 2, "edges": [["G0", "G1"]]}
        assert from_json_obj({"n": 1, "m": 2, "edges": [["L", "R"]]}) == g

    def test_constructor_validation(self):
        with pytest.raises(ParseError):
            KGraph(1, 2, ((0, 1),))  # self-loop
        with pytest.raises(ParseError):
            KGraph(1, 2, ((1, 5),))  # out of range
        with pytest.raises(ParseError):
            KGraph(2, 2, ((2, 3),))  # missing row


class TestStructure:
    def test_edges_order(self):
        g = KGraph(2, 2, ((1, 2), (0, 3)))
        assert list(g.edges()) == [(0, 0, 1), (0, 1, 2), (1, 0, 0), (1, 1, 3)]
        assert g.degrees == (1, 1)
        assert g.edge_count == 4

    def test_doubled_edge_refused(self):
        """Edges form a set: a vertex may not repeat a target, whether the
        graph is built, parsed from text or read from JSON."""
        with pytest.raises(ParseError, match="doubled edge"):
            KGraph(1, 2, ((1, 1),))
        with pytest.raises(ParseError, match="doubled edge"):
            parse("n=2;m=2;1:[2,L];2:[R,R]")
        with pytest.raises(ParseError, match="doubled edge"):
            from_json_obj({"n": 1, "m": 3, "edges": [["G0", "G2", "G0"]]})
        assert KGraph(1, 2, ((1, 2),)).edge_count == 2
