"""The per-layer numbers read back from a traced run.

Metric names and units are declared once, in ``BENCHMARK.json``; this
module maps the span-derived metrics to the span they are read from.  Span
metrics are mean milliseconds per call in the traced timed phase, parent
and worker processes together; ``cf.*`` and ``core.affinities_s`` also
cover set-up, where most of their calls happen.  A metric whose layer a
workload never reaches reads 0.
"""

from __future__ import annotations

import statistics

from perfbench.trace import Tracer, explained_share, merge_totals, span_totals

#: Per-layer metric -> the span it is the mean duration of.
SPANS = {
    "cf.fit_s": "cf.fit",
    "cf.predict_all_ms": "cf.predict_all",
    "cf.predict_items_ms": "cf.predict_items",
    "cf.partial_refit_ms": "cf.partial_refit",
    "core.affinities_s": "core.affinities",
    "core.build_lists_ms": "core.build_lists",
    "core.advance_ms": "core.advance",
    "core.refresh_bounds_ms": "core.refresh_bounds",
    "core.consensus_bounds_ms": "core.consensus_bounds",
    "core.rescore_ms": "core.rescore",
    "core.factory_build_ms": "core.factory_build",
    "experiments.task_build_ms": "experiments.task_for",
    "experiments.affinity_columns_ms": "experiments.affinity_columns",
    "parallel.export_ms": "parallel.export",
    "parallel.payload_build_ms": "parallel.payload_build",
    "parallel.dispatch_ms": "parallel.dispatch",
    "parallel.worker_shard_ms": "parallel.worker_shard",
    "parallel.worker_index_build_ms": "parallel.worker_index_build",
    "parallel.merge_ms": "parallel.merge",
    "updates.apply_ms": "updates.apply",
    "updates.refresh_aprefs_ms": "updates.refresh_aprefs",
    "updates.refresh_affinities_ms": "updates.refresh_affinities",
    "updates.retire_ms": "updates.retire",
}

#: Layers whose calls mostly happen during set-up.
SETUP_LAYERS = ("cf.", "core.affinities")


def _mean_ms(entry: dict[str, float] | None) -> float:
    if not entry or not entry["calls"]:
        return 0.0
    return 1000.0 * entry["total"] / entry["calls"]


def per_layer_metrics(tracer: Tracer, workload_layers: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced run: the tracer's and the workload's."""
    layers = dict(workload_layers)
    window = layers.pop("trace.window")
    phase_spans = tracer.phase_spans
    workers = tracer.worker_totals()
    counters = dict(tracer.phase_counters)
    for name, values in workers.items():
        if not values["calls"]:  # worker-side counters ride in "total"
            counters[name] = counters.get(name, 0.0) + values["total"]
    phase = merge_totals(span_totals(phase_spans), {k: v for k, v in workers.items() if v["calls"]})
    setup = span_totals(tracer.setup_spans)
    with_setup = merge_totals(phase, setup)

    metrics: dict[str, float] = {}
    for name, span in SPANS.items():
        table = with_setup if name.startswith(SETUP_LAYERS) else phase
        if name in ("cf.fit_s", "core.affinities_s"):
            durations = [s.duration for s in tracer.setup_spans if s.name == span]
            metrics[name] = statistics.median(durations) if durations else 0.0
        else:
            metrics[name] = _mean_ms(table.get(span))

    def calls(span: str, table=phase) -> float:
        entry = table.get(span)
        return float(entry["calls"]) if entry else 0.0

    runs = counters.get("core.runs", 0.0)
    greca = phase.get("core.run")
    metrics["cf.predict_all_calls"] = calls("cf.predict_all", with_setup)
    metrics["cf.predict_items_cells"] = counters.get(
        "cf.predict_items_cells", 0.0
    ) + tracer.setup_counters.get("cf.predict_items_cells", 0.0)
    metrics["core.stop_check_ms"] = 1000.0 * greca["self"] / greca["calls"] if greca else 0.0
    metrics["core.checks"] = calls("core.advance") / runs if runs else 0.0
    for name in ("core.rounds", "core.sequential_accesses", "core.percent_sa"):
        metrics[name] = counters.get(name, 0.0) / runs if runs else 0.0
    metrics["core.factory_builds"] = calls("core.factory_build")
    lookups = calls("experiments.index_factory")
    metrics["experiments.factory_hit_ratio"] = (
        1.0 - calls("core.factory_build") / lookups if lookups else 0.0
    )
    exports = counters.get("parallel.exports", 0.0)
    metrics["parallel.exports"] = exports
    metrics["parallel.export_hit_ratio"] = (
        counters.get("parallel.export_hits", 0.0) / exports if exports else 0.0
    )
    payloads = calls("parallel.payload_build")
    metrics["parallel.payload_kb"] = (
        counters.get("parallel.payload_bytes", 0.0) / 1024.0 / payloads if payloads else 0.0
    )
    metrics["trace.explained_pct"] = 100.0 * explained_share(phase_spans, *window)
    metrics.update(layers)
    return metrics
