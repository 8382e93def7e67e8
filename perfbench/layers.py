"""Which starquant functions the traced run wraps, and the per-layer
metrics computed from their spans and counters.

Layers are the package's modules.  Span names are "<layer>.<what>";
counters use the metric name they feed.  Time metrics sum span
durations, not counting a span nested in another of the same name
(star_graphs calls enumerate_graphs, star calls star_expansion);
"self" metrics subtract the time covered by child spans.
"""
from __future__ import annotations

import importlib
import statistics

from tracing import Recorder, self_times

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "graphs.enum_s": ("s", "lower"),
    "graphs.enum_calls": ("count", "lower"),
    "graphs.count": ("count", "lower"),
    "operators.build_s": ("s", "lower"),
    "operators.build_calls": ("count", "lower"),
    "operators.nonzero_ratio": ("1", "higher"),
    "operators.apply_s": ("s", "lower"),
    "operators.apply_calls": ("count", "lower"),
    "weights.ensure_s": ("s", "lower"),
    "weights.requested": ("count", "lower"),
    "weights.hit_ratio": ("1", "higher"),
    "weights.exact_entries": ("count", "higher"),
    "weights.integrate_s": ("s", "lower"),
    "weights.integrations": ("count", "lower"),
    "weights.samples": ("count", "lower"),
    "weights.samples_per_s": ("1/s", "higher"),
    "weights.s_per_integration": ("s", "lower"),
    "polyvector.jacobi_s": ("s", "lower"),
    "polyvector.jacobi_calls": ("count", "lower"),
    "star.calls": ("count", "lower"),
    "star.self_s": ("s", "lower"),
    "star.probe_s": ("s", "lower"),
    "star.probe_calls": ("count", "lower"),
    "formality.calls": ("count", "lower"),
    "formality.self_s": ("s", "lower"),
    "poly.mul_calls": ("count", "lower"),
    "poly.add_calls": ("count", "lower"),
    "poly.diff_calls": ("count", "lower"),
    "rational.mul_calls": ("count", "lower"),
    "rational.add_calls": ("count", "lower"),
    "series.mul_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def module(name: str):
    # starquant.star is shadowed by the exported star() function
    return importlib.import_module(f"starquant.{name}")


def install(rec: Recorder) -> None:
    """Wrap every layer boundary; rec.uninstall() undoes it."""
    graphs = module("graphs")
    operators = module("operators")
    weights = module("weights")
    polyvector = module("polyvector")
    star = module("star")
    formality = module("formality")
    cli = module("cli")
    poly = module("poly")
    rational = module("rational")
    series = module("series")
    counts = rec.counts

    def graphs_done(args, result):
        if not rec.inside("graphs.enum"):
            counts["graphs.count"] += len(result)

    for attr in ("enumerate_graphs", "star_graphs"):
        rec.wrap_function(graphs, attr, lambda fn: rec.spanned(
            fn, "graphs.enum", graphs_done))

    def built(args, result):
        counts["operators.nonzero"] += bool(result.terms)

    rec.wrap_function(operators, "build_operator",
                      lambda fn: rec.spanned(fn, "operators.build", built))
    rec.wrap_method(operators.PolyDiffOperator, "apply",
                    lambda fn: rec.spanned(fn, "operators.apply"))

    def integrated(args, result):
        counts["weights.samples"] += result[2]

    rec.wrap_function(weights, "integrate_graph_form", lambda fn: rec.spanned(
        fn, "weights.integrate", integrated))

    def wrap_ensure(fn):
        spanned = rec.spanned(fn, "weights.ensure")

        def ensure(table, graphs, *args, **kwargs):
            graphs = list(graphs)
            missing = [g for g in graphs if table.get(g) is None]
            counts["weights.requested"] += len(graphs)
            counts["weights.hits"] += len(graphs) - len(missing)
            result = spanned(table, graphs, *args, **kwargs)
            counts["weights.exact_entries"] += sum(
                table.get(g).exact is not None for g in missing)
            return result

        return ensure

    rec.wrap_method(weights.WeightTable, "ensure", wrap_ensure)
    rec.wrap_function(polyvector, "validate_poisson",
                      lambda fn: rec.spanned(fn, "polyvector.jacobi"))
    for attr in ("star", "star_expansion", "check_associativity",
                 "poisson_center_probe"):
        rec.wrap_function(star, attr,
                          lambda fn: rec.spanned(fn, "star.call"))
    rec.wrap_function(star, "probe_sup",
                      lambda fn: rec.spanned(fn, "star.probe"))
    for attr in ("u_n", "graded_symmetry_check", "linfty_check"):
        rec.wrap_function(formality, attr,
                          lambda fn: rec.spanned(fn, "formality.call"))
    rec.wrap_function(cli, "main", lambda fn: rec.spanned(fn, "cli.main"))

    for cls, attrs, key in (
            (poly.Polynomial, ("__mul__", "__rmul__"), "poly.mul_calls"),
            (poly.Polynomial, ("__add__", "__radd__"), "poly.add_calls"),
            (poly.Polynomial, ("diff",), "poly.diff_calls"),
            (rational.QI, ("__mul__", "__rmul__"), "rational.mul_calls"),
            (rational.QI, ("__add__", "__radd__"), "rational.add_calls"),
            (series.FormalSeries, ("__mul__", "__rmul__"),
             "series.mul_calls")):
        for attr in attrs:
            rec.wrap_method(cls, attr, lambda fn, key=key: rec.counted(fn, key))


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def unit_metrics(spans, counts, wall: float) -> dict:
    """Per-layer metrics of one traced unit (trace.overhead_s is set by
    the caller, which also ran untraced units)."""
    selfs = dict(zip((s.sid for s in spans), self_times(spans)))
    by_id = {s.sid: s for s in spans}
    total, calls, own = {}, {}, {}
    for s in spans:
        own[s.name] = own.get(s.name, 0.0) + selfs[s.sid]
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == s.name:
            continue
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
    integrate_s = total.get("weights.integrate", 0.0)
    integrations = calls.get("weights.integrate", 0)
    builds = calls.get("operators.build", 0)
    requested = counts.get("weights.requested", 0)
    out = {
        "graphs.enum_s": total.get("graphs.enum", 0.0),
        "graphs.enum_calls": calls.get("graphs.enum", 0),
        "graphs.count": counts.get("graphs.count", 0),
        "operators.build_s": total.get("operators.build", 0.0),
        "operators.build_calls": builds,
        "operators.nonzero_ratio": _ratio(
            counts.get("operators.nonzero", 0), builds),
        "operators.apply_s": total.get("operators.apply", 0.0),
        "operators.apply_calls": calls.get("operators.apply", 0),
        "weights.ensure_s": total.get("weights.ensure", 0.0),
        "weights.requested": requested,
        "weights.hit_ratio": _ratio(counts.get("weights.hits", 0), requested),
        "weights.exact_entries": counts.get("weights.exact_entries", 0),
        "weights.integrate_s": integrate_s,
        "weights.integrations": integrations,
        "weights.samples": counts.get("weights.samples", 0),
        "weights.samples_per_s": _ratio(counts.get("weights.samples", 0),
                                        integrate_s),
        "weights.s_per_integration": _ratio(integrate_s, integrations),
        "polyvector.jacobi_s": total.get("polyvector.jacobi", 0.0),
        "polyvector.jacobi_calls": calls.get("polyvector.jacobi", 0),
        "star.calls": calls.get("star.call", 0),
        "star.self_s": own.get("star.call", 0.0),
        "star.probe_s": total.get("star.probe", 0.0),
        "star.probe_calls": calls.get("star.probe", 0),
        "formality.calls": calls.get("formality.call", 0),
        "formality.self_s": own.get("formality.call", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "trace.wall_s": wall,
    }
    for key in ("poly.mul_calls", "poly.add_calls", "poly.diff_calls",
                "rational.mul_calls", "rational.add_calls",
                "series.mul_calls"):
        out[key] = counts.get(key, 0)
    return out


def median_metrics(per_unit: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_unit)
            for k in per_unit[0]}
