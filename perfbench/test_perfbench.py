"""Tests of the benchmark's own helpers (run with the repository's pytest suite)."""

from __future__ import annotations

import asyncio
import os
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import layers, workloads  # noqa: E402
from perfbench.measure import (  # noqa: E402
    Gate,
    Span,
    best_of,
    highest_supported,
    open_loop,
    schedule,
    self_times,
)
from perfbench.run import count_tracker_errors, declared_metrics  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def test_highest_supported_percentile_needs_ten_samples_beyond_it():
    assert highest_supported(list(range(200))) == {"pct": 95.0, "value": 189.05, "n": 200}
    assert highest_supported(list(range(199)))["pct"] == 90.0
    assert highest_supported(list(range(1000)))["pct"] == 99.0
    assert highest_supported(list(range(20)))["pct"] == 50.0
    assert highest_supported(list(range(19))) is None


def test_best_of_takes_each_runs_least_time_over_the_passes():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 1.5, 4.5]]
    assert best_of(passes) == [2.0, 1.0, 4.5]
    with pytest.raises(ValueError):
        best_of([[1.0, 2.0], [1.0]])


def test_sweep_pass_count_follows_the_measuring_time_not_the_host():
    assert workloads.sweep_passes(1) == workloads.SWEEP_MIN_PASSES
    assert workloads.sweep_passes(24) == 3
    assert workloads.sweep_passes(60) == 8


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(1, "root", 0.0, 10.0, 0, 1),
        Span(2, "a", 1.0, 4.0, 1, 1),
        Span(3, "b", 3.0, 6.0, 1, 1),  # overlaps a: counted once in root's children
        Span(4, "a.child", 2.0, 3.0, 2, 1),
        Span(5, "outside", 9.5, 12.0, 1, 1),  # clipped to the parent's end
    ]
    assert self_times(spans) == {1: 4.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 2.5}


def test_open_loop_charges_a_stall_to_the_requests_due_during_it():
    stall = 0.2

    async def send(index: int) -> int:
        if index == 0:
            time.sleep(stall)  # blocks the loop, and with it the generator
        return index

    async def main():
        return await open_loop(schedule(time.perf_counter() + 0.01, 100.0, 0.05), send)

    samples, outstanding = asyncio.run(main())
    assert [sample.result for sample in samples] == list(range(5))
    assert outstanding <= len(samples)
    for sample in samples[1:]:
        # Sent late, and the latency counts the wait from the due time.
        assert sample.late >= stall - 0.06
        assert sample.latency >= sample.late
        assert sample.done - sample.sent < stall / 2


def _tiny_environment():
    config = workloads.ScalabilityConfig(
        n_users=40, n_items=300, n_ratings=3_000, n_participants=12, n_groups=2, group_size=3
    )
    return workloads.ScalabilityEnvironment(config)


def test_correctness_gate_fires_on_a_tampered_record():
    environment = _tiny_environment()
    group = tuple(environment.participants[:3])
    point = workloads.Point("k=5", (group,), k=5)
    runs = [(point, None, group)]
    record = environment.run_records([group], k=5)[0]

    honest = Gate()
    workloads._check_against_naive(environment, runs, [record], honest)
    assert (honest.attempted, honest.failed) == (1, 0)

    outsider = next(item for item in environment.ratings.items if item not in record.items)
    tampered = replace(record, items=(outsider,) + record.items[1:])
    gate = Gate()
    workloads._check_against_naive(environment, runs, [tampered], gate)
    gate.check(tampered == record, "pass 1 differs")
    assert (gate.attempted, gate.failed, gate.correct) == (2, 2, False)


def test_seeded_inputs_repeat_for_a_seed_and_differ_across_seeds():
    environment = _tiny_environment()
    first = workloads.sweep_points(environment, 3)
    assert first == workloads.sweep_points(environment, 3)
    assert first != workloads.sweep_points(environment, 4)
    load = workloads.ServeLoad(environment, 3)
    queries = load.queries(40)
    popular = sum(1 for query in queries if query.group in load.popular)
    assert popular == 20
    unseen = [query.group for query in queries if query.group not in load.popular]
    assert len(set(unseen)) == len(unseen)


def test_tracker_keyerror_tracebacks_are_counted():
    stderr = "\n".join(
        [
            "Traceback (most recent call last):",
            '  File "/x/multiprocessing/resource_tracker.py", line 239, in main',
            "    cache[rtype].remove(name)",
            "KeyError: '/psm_1'",
            "Traceback (most recent call last):",
            '  File "/x/other.py", line 1, in f',
            "KeyError: 'unrelated'",
            "Traceback (most recent call last):",
            '  File "/x/multiprocessing/resource_tracker.py", line 239, in main',
            "ValueError: other",
            "Traceback (most recent call last):",
            '  File "/x/multiprocessing/resource_tracker.py", line 239, in main',
            "KeyError: '/psm_2'",
        ]
    )
    assert count_tracker_errors(stderr) == 2


def test_every_declared_per_layer_metric_has_a_source(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.end_setup()
    tracer.begin_phase()
    tracer.end_phase()
    sources = set(layers.per_layer_metrics(tracer, {"trace.window": (0.0, 1.0)}))
    environment = SimpleNamespace(dispatch_reports=[], participants=[1])
    report = SimpleNamespace(changed_users=(), invalidated_groups=(), full_rebuild=False)
    sources |= set(workloads._service_layers([], SimpleNamespace(batch_sizes=[]), 0))
    sources |= set(workloads._report_layers(environment, 0))
    sources |= set(workloads._delta_layers(report, environment))
    # Set by each workload's traced-vs-untraced comparison, and by the runner.
    sources |= {"trace.overhead_pct", "parallel.tracker_errors"}
    assert set(declared_metrics(trace=True)) <= sources
