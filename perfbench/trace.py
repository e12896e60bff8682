"""Span tracing around the program's layer boundaries, installed from the outside.

Nothing under ``src/`` knows about this module: :func:`install` replaces
the named functions and methods of the ``repro`` layers with timing
wrappers at run time, and :meth:`Tracer.uninstall` restores them.
Spans (name, start, end, parent, trace id) stay in memory and are written
out when the run ends; spans of one sweep run, service batch or delta share
a trace id, which is the id of their root span.

Worker processes are forked from a traced parent, so they inherit the
wrappers, including the one around the worker entry point
``repro.parallel.worker.run_shard``.  Every module that imported the entry
point by name is patched too, so the pool submits the wrapper (it pickles by
its qualified name).  A worker traces only while the parent's flag file
exists, folds its spans into per-name totals after every shard and rewrites
``worker-<pid>.json`` in the trace directory, which the parent reads when
the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import threading
import time
from typing import Callable

from perfbench.measure import Span, covered, self_times

Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """In-memory spans and counters for one benchmark process (and its workers)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.flag_path = os.path.join(out_dir, "worker-tracing")
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.in_worker = False
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def timed(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """``fn`` wrapped to record one span per call (and feed ``observe``)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent, trace = stack[-1] if stack else (0, 0)
            span_id = next(tracer._ids)
            stack.append((span_id, trace or span_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, trace or span_id))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def take(self) -> list[Span]:
        """Every span recorded so far (cleared)."""
        spans, self.spans = self.spans, []
        return [Span(*span) for span in spans]

    def take_counters(self) -> dict[str, float]:
        with self._lock:
            counters, self.counters = self.counters, {}
        return counters

    # -- patching --------------------------------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, observe: Observer | None = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper (undone by :meth:`uninstall`)."""
        self.patch_with(owner, attr, self.timed(name, getattr(owner, attr), observe))

    def patch_with(self, owner: object, attr: str, replacement: object) -> None:
        # ``None`` marks an attribute a class inherited: uninstalling deletes
        # the override instead of pinning the inherited function on the class.
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original, replacement))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _replacement in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def reinstall(self) -> None:
        for owner, attr, _original, replacement in self._patches:
            setattr(owner, attr, replacement)

    # -- phases ----------------------------------------------------------------------------------

    def end_setup(self) -> None:
        """Keep what set-up recorded and stop tracing (the untraced phase runs next)."""
        self.setup_spans = self.take()
        self.setup_counters = self.take_counters()
        self.uninstall()

    def begin_phase(self) -> None:
        self.take()
        self.take_counters()
        self.reinstall()
        self.set_worker_flag(True)

    def end_phase(self) -> None:
        self.set_worker_flag(False)
        self.uninstall()
        self.phase_spans = self.take()
        self.phase_counters = self.take_counters()

    # -- worker side -----------------------------------------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self.counters = {}
        self.in_worker = True
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: dict[str, dict[str, float]] = {}

    def worker_entry(self, fn: Callable) -> Callable:
        """Wrap the worker entry point: trace while flagged, flush per-name totals."""
        timed = self.timed("parallel.worker_shard", fn)
        tracer = self

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if not tracer.in_worker:
                return timed(*args, **kwargs)  # in-parent execution (serial fallback)
            tracer.enabled = os.path.exists(tracer.flag_path)
            if not tracer.enabled:
                return fn(*args, **kwargs)
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.enabled = False
                tracer._flush_worker()

        return entry

    def _flush_worker(self) -> None:
        # Worker-side counters ride in "total" with no calls.
        counters = {name: {"total": value} for name, value in self.take_counters().items()}
        self._totals = merge_totals(self._totals, span_totals(self.take()), counters)
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self._totals, handle)
        os.replace(path + ".tmp", path)

    def worker_totals(self) -> dict[str, dict[str, float]]:
        """Per-name totals summed over every worker that flushed."""
        tables = []
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.startswith("worker-") and entry.endswith(".json"):
                with open(os.path.join(self.out_dir, entry), encoding="utf-8") as handle:
                    tables.append(json.load(handle))
        return merge_totals(*tables)

    def set_worker_flag(self, on: bool) -> None:
        if on:
            open(self.flag_path, "w").close()
        elif os.path.exists(self.flag_path):
            os.unlink(self.flag_path)

    def write(self, path: str, spans: list[Span]) -> None:
        """Write spans as JSON lines (the trace file of the run)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.__dict__) + "\n")


# -- the program's layer boundaries ---------------------------------------------------------------


def _observe_run(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("core.runs")
    tracer.count("core.rounds", result.rounds)
    tracer.count("core.sequential_accesses", result.sequential_accesses)
    tracer.count("core.percent_sa", result.percent_sequential_accesses)


def _observe_items(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("cf.predict_items_cells", len(result))


def _observe_payloads(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("parallel.payload_bytes", len(pickle.dumps(result)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.cf.predictors import UserBasedCF
    from repro.core import greca, kernels
    from repro.core.affinity import ComputedAffinities
    from repro.core.recommender import GroupRecommender
    from repro.experiments.scalability import ScalabilityEnvironment
    from repro.parallel import evaluation, pool, resilience, worker
    from repro.parallel.shm import SharedArrayRegistry
    from repro.service.service import GrecaService

    patch = tracer.patch
    for attr in ("fit", "predict_all", "partial_refit"):
        patch(UserBasedCF, attr, f"cf.{attr}")
    patch(UserBasedCF, "predict_for_items", "cf.predict_items", _observe_items)
    patch(ComputedAffinities, "__init__", "core.affinities")
    patch(greca.GrecaIndex, "build_lists", "core.build_lists")
    patch(greca.GrecaIndex, "exact_scores_for", "core.rescore")
    patch(greca, "consensus_bounds", "core.consensus_bounds")
    patch(greca.Greca, "run", "core.run", _observe_run)
    kernel_classes = {type(kernels.resolve_kernel(name)) for name in kernels.kernel_names()}
    owners = {
        (owner, attr)
        for cls in kernel_classes
        for attr in ("advance", "refresh_bounds")
        for owner in cls.__mro__
        if attr in owner.__dict__
    }
    for owner, attr in sorted(owners, key=lambda pair: (pair[0].__qualname__, pair[1])):
        patch(owner, attr, f"core.{attr}")
    patch(GroupRecommender, "index_factory", "core.factory_build")
    patch(GroupRecommender, "refresh_aprefs", "updates.refresh_aprefs")
    patch(GroupRecommender, "refresh_affinities", "updates.refresh_affinities")
    patch(ScalabilityEnvironment, "index_factory", "experiments.index_factory")
    patch(ScalabilityEnvironment, "task_for", "experiments.task_for")
    patch(ScalabilityEnvironment, "affinity_columns", "experiments.affinity_columns")
    patch(ScalabilityEnvironment, "run_records", "experiments.run_records")
    patch(ScalabilityEnvironment, "apply_delta", "updates.apply")
    patch(SharedArrayRegistry, "retire_stale", "updates.retire")
    for attr in ("export", "export_affinity"):
        _patch_export(tracer, SharedArrayRegistry, attr)
    patch(evaluation, "build_payloads", "parallel.payload_build", _observe_payloads)
    patch(evaluation, "merge_shard_records", "parallel.merge")
    for executor in (
        pool.SerialShardExecutor,
        pool.ProcessShardExecutor,
        pool.PersistentShardExecutor,
        resilience.SupervisedDispatch,
    ):
        patch(executor, "run", "parallel.dispatch")
    patch(worker, "build_task_index", "parallel.worker_index_build")
    patch(GrecaService, "_materialise_and_evaluate", "service.batch")
    entry = tracer.worker_entry(worker.run_shard)
    for module in (worker, pool, resilience):
        tracer.patch_with(module, "run_shard", entry)


def _patch_export(tracer: Tracer, registry_type: type, attr: str) -> None:
    """Time an export and count it as a hit when it created no new segment."""
    original = registry_type.__dict__[attr]
    timed = tracer.timed("parallel.export", original)

    @functools.wraps(original)
    def export(self, *args, **kwargs):
        if not tracer.enabled:
            return original(self, *args, **kwargs)
        before = len(self.segment_names)
        result = timed(self, *args, **kwargs)
        tracer.count("parallel.exports")
        if len(self.segment_names) == before:
            tracer.count("parallel.export_hits")
        return result

    tracer.patch_with(registry_type, attr, export)


# -- reading the spans back -----------------------------------------------------------------------


def span_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-name total seconds, self seconds and call counts."""
    selfs = self_times(spans)
    return merge_totals(
        *(
            {span.name: {"total": span.duration, "self": selfs[span.span_id], "calls": 1}}
            for span in spans
        )
    )


def merge_totals(*tables: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Per-name totals summed over ``tables`` (a missing key counts as 0)."""
    merged: dict[str, dict[str, float]] = {}
    for table in tables:
        for name, values in table.items():
            into = merged.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            for key in into:
                into[key] += values.get(key, 0.0)
    return merged


def explained_share(spans: list[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` that the root spans cover."""
    roots = [(span.start, span.end) for span in spans if not span.parent]
    return covered(roots, start, end) / (end - start) if end > start else 0.0
