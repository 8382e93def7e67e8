"""Self-tests of the benchmark code (not part of the tier-1 suite).

    python3 -m pytest perfbench -q
"""
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from starquant.series import FormalSeries  # noqa: E402
from starquant.star import StarConfig, star_expansion  # noqa: E402
from starquant.weights import IntegrationConfig, WeightTable  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def spans(*rows):
    return [Span(sid, name, start, end, parent, "r")
            for sid, (name, start, end, parent) in enumerate(rows)]


def test_self_time_subtracts_union_of_clipped_children():
    tree = spans(
        ("star.call", 0.0, 10.0, None),
        ("operators.build", 1.0, 3.0, 0),
        ("operators.apply", 2.0, 5.0, 0),     # overlaps its sibling
        ("weights.ensure", 8.0, 12.0, 0),     # runs past its parent
        ("weights.integrate", 1.5, 2.5, 1),
    )
    assert self_times(tree) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_layer_metrics_do_not_count_nested_same_name_spans_twice():
    tree = spans(
        ("star.call", 0.0, 10.0, None),
        ("star.call", 1.0, 9.0, 0),
        ("operators.build", 2.0, 4.0, 1),
        ("star.probe", 5.0, 6.0, 1),
        ("weights.integrate", 6.0, 8.5, 1),
    )
    m = layers.unit_metrics(tree, {"weights.samples": 10,
                                   "operators.nonzero": 1}, 10.0)
    assert m["star.calls"] == 1
    assert m["star.self_s"] == pytest.approx(2.0 + 2.5)
    assert m["star.probe_s"] == pytest.approx(1.0)
    assert m["operators.build_s"] == pytest.approx(2.0)
    assert m["operators.nonzero_ratio"] == 1.0
    assert m["weights.samples_per_s"] == pytest.approx(4.0)
    assert set(m) | {"trace.overhead_s"} == set(layers.PER_LAYER)


def test_paced_seconds_scale_by_mean_probe_speed():
    ref = pace.REFERENCE_PROBE_S
    # at the reference pace only the probes' own time comes off
    assert pace.paced_seconds(2.0, [ref] * 4, [ref] * 4) == pytest.approx(
        2.0 - 4 * ref)
    # half the interval at half speed: three quarters of the work
    assert pace.paced_seconds(1.0, [], [ref, 2 * ref]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        pace.paced_seconds(1.0, [], [])


def test_pace_sampler_probes_while_started():
    sampler = pace.Pace()
    sampler.start()
    try:
        mark = sampler.mark()
        end = time.perf_counter() + 4 * pace.PERIOD_S
        while time.perf_counter() < end:
            pass
        wall, paced = sampler.since(mark)
    finally:
        sampler.stop()
    assert len(sampler.samples) > pace.MIN_SAMPLES
    assert wall >= 4 * pace.PERIOD_S and paced > 0


def pinned_order2_entries():
    entries = json.loads(workloads.PINNED_TABLE.read_text())
    return [e for e in entries if e["graph"].startswith("n=2;")]


def test_perturbed_weight_is_a_failed_check():
    entries = pinned_order2_entries()
    clean = workloads.Checks()
    _, closed = workloads.check_table(entries, clean)
    workloads.check_closed_form([closed] * 5, clean)
    assert clean.attempted == 3 and not clean.failures

    # one of five tables off by ten times the tolerance
    value, sigma = closed
    moved = (value + 10 * workloads.CLOSED_FORM_SIGMAS * sigma, sigma)
    bad = workloads.Checks()
    workloads.check_closed_form([closed] * 4 + [moved], bad)
    assert bad.attempted == 1 and len(bad.failures) == 1


def test_table_without_the_closed_form_graph_is_a_failed_check():
    entries = [e for e in pinned_order2_entries()
               if e["graph"] != workloads.CLOSED_FORM_GRAPH]
    bad = workloads.Checks()
    _, closed = workloads.check_table(entries, bad)
    workloads.check_closed_form([], bad)
    assert closed is None
    assert bad.attempted == 3 and len(bad.failures) == 3


def test_altered_series_coefficient_is_a_failed_check():
    x = workloads.variables()
    alpha = workloads.so3()
    f, g = x[0] * x[1], x[2] * x[2] + x[0]
    cfg = StarConfig(order=1, table=WeightTable(),
                     integration=IntegrationConfig(seed=0))
    series = star_expansion(f, g, alpha, cfg).series
    clean = workloads.Checks()
    workloads.check_expansion(f, g, alpha, series, clean)
    assert clean.attempted == 2 and not clean.failures

    coeffs = [series.coefficient(0), series.coefficient(1) + x[1]]
    bad = workloads.Checks()
    workloads.check_expansion(f, g, alpha, FormalSeries(3, 1, coeffs), bad)
    assert bad.attempted == 2 and len(bad.failures) == 1


def test_altered_pinned_table_is_refused(tmp_path, monkeypatch):
    copy = tmp_path / "o2_table.json"
    copy.write_text(workloads.PINNED_TABLE.read_text().replace(
        "0.12", "0.13", 1))
    monkeypatch.setattr(workloads, "PINNED_TABLE", copy)
    with pytest.raises(workloads.SetupError):
        workloads.load_pinned_table()


def test_cube_rotations_fix_so3_and_commute_with_star():
    assert len(set(workloads.ROTATIONS)) == 24
    alpha = workloads.so3()
    for rot in workloads.ROTATIONS:
        assert workloads.rotate_bivector(alpha, rot) == alpha
    x = workloads.variables()
    f, g = x[0] * x[0] * x[1], x[1] * x[2] + x[2]
    rot = workloads.ROTATIONS[7]
    cfg = StarConfig(order=1, table=WeightTable(),
                     integration=IntegrationConfig(seed=0))
    plain = star_expansion(f, g, alpha, cfg).series
    moved = star_expansion(workloads.rotate_poly(f, rot),
                           workloads.rotate_poly(g, rot), alpha, cfg).series
    for k in range(2):
        assert moved.coefficient(k) == workloads.rotate_poly(
            plain.coefficient(k), rot)
