"""Shard payloads and the worker-side evaluation loop.

A shard ships three things to its worker process:

* the :class:`~repro.core.greca.GrecaIndexFactory` of every group appearing
  in the shard, as a column-store handle when the payload crosses a process
  boundary (once per shard, not once per task — sweeps that evaluate one
  group at many sweep points reuse the shard-local factory and its memoised
  column-sliced substrates exactly like the serial reuse layer);
* one :class:`GroupEvalTask` per evaluation, carrying a reference to the
  group's affinity columns (plus the query period's prefix length), the
  consensus function and the query knobs — everything the parent resolved,
  so the worker never touches the recommender, the social network or the
  dataset; and
* the shard's original task indices, so the merger can scatter the records
  back into task order.

:func:`run_shard` is the worker entry point: it rebuilds each task's index
through ``factory.build_columns`` — proven bit-identical to fresh
construction by the engine equivalence tests — and runs :class:`~repro.core.greca.Greca` on it.  Results come back as
:class:`GroupRunRecord` values: plain, picklable scalars only (no numpy
arrays, no list objects), which keeps the result pipes small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.greca import Greca, GrecaIndex, GrecaIndexFactory, GrecaResult
from repro.core.consensus import ConsensusFunction
from repro.exceptions import ConfigurationError

#: Canonical group key used to address factories in a payload: a plain tuple
#: of python ints, hashable and stable across pickling round-trips.
GroupKey = tuple[int, ...]


def group_key(group) -> GroupKey:
    """Canonicalise a group into a hashable, shipment-stable key."""
    return tuple(int(member) for member in group)


@dataclass(frozen=True)
class GroupEvalTask:
    """One group evaluation with fully materialised inputs.

    ``affinity_ref`` holds an :class:`~repro.core.affinity.AffinityColumns`
    (in-process) or an :class:`~repro.parallel.shm.ShmAffinityHandle`
    (descriptors into the column store) covering the group's *full*
    timeline, and ``n_periods`` selects the query period's prefix.  Inputs
    held as dictionaries (the raw case inputs of the engine tests) ship as
    :meth:`AffinityColumns.from_components
    <repro.core.affinity.AffinityColumns.from_components>`, whose exact-float
    façade builds bit-identical indexes.

    ``items`` optionally restricts the candidate universe (``None`` means
    the factory's full catalogue).
    """

    group: GroupKey
    k: int
    consensus: ConsensusFunction
    affinity_ref: object
    n_periods: int
    time_model: str
    items: tuple[int, ...] | None = None
    check_interval: int | None = None


@dataclass(frozen=True)
class GroupRunRecord:
    """Outcome of one GRECA run, reduced to picklable scalars.

    ``percent_sa`` is :attr:`GrecaResult.percent_sequential_accesses`
    evaluated worker-side — the same float the serial path computes, so
    downstream means are bit-identical.
    """

    group: GroupKey
    items: tuple[int, ...]
    percent_sa: float
    sequential_accesses: int
    random_accesses: int
    total_entries: int
    rounds: int
    stopping: str
    consensus: str
    k: int


def record_from_result(group: GroupKey, result: GrecaResult) -> GroupRunRecord:
    """Reduce a :class:`GrecaResult` to its equivalence-relevant facts."""
    return GroupRunRecord(
        group=group,
        items=tuple(result.items),
        percent_sa=result.percent_sequential_accesses,
        sequential_accesses=result.sequential_accesses,
        random_accesses=result.random_accesses,
        total_entries=result.total_entries,
        rounds=result.rounds,
        stopping=result.stopping,
        consensus=result.consensus,
        k=result.k,
    )


@dataclass(frozen=True)
class ShardPayload:
    """Everything one worker needs to evaluate one shard.

    ``factories`` maps each group either to its
    :class:`~repro.core.greca.GrecaIndexFactory` (in-process backends) or to
    a :class:`~repro.parallel.shm.ShmFactoryHandle` (process-crossing
    backends: only segment descriptors cross the pickle boundary, and
    :func:`run_shard` reattaches the arrays worker-side).

    ``fault_plan`` is the deterministic fault-injection harness of
    :mod:`repro.parallel.resilience`: when set, :func:`run_shard` consults
    it before every task and crashes (``os._exit``), raises or stalls at
    the planned (shard, task-position) coordinates.  ``attempt`` is the
    supervisor's dispatch-attempt counter for this shard — retries re-ship
    the payload with ``attempt`` incremented, which is what lets a plan
    fire on the first N attempts and then let the retry succeed without
    any cross-process state.  Both default to the fault-free shape, so
    payloads built by unsupervised callers are unchanged.

    ``min_generation`` is the epoch-adoption floor: the smallest shm export
    generation still live in the shipping registry
    (:attr:`~repro.parallel.shm.SharedArrayRegistry.generation_floor`).
    Warm workers purge cache entries below it before running any task
    (:func:`~repro.parallel.shm.purge_stale`), which is how a persistent
    pool adopts a new epoch — retired-segment caches dropped in-worker —
    without being restarted.  ``0`` (the default) purges nothing.
    """

    shard_index: int
    task_indices: tuple[int, ...]
    tasks: tuple[GroupEvalTask, ...]
    factories: Mapping[GroupKey, object]
    fault_plan: "object | None" = None
    attempt: int = 0
    min_generation: int = 0

    def __post_init__(self) -> None:
        if len(self.task_indices) != len(self.tasks):
            raise ConfigurationError(
                f"shard {self.shard_index}: {len(self.task_indices)} indices "
                f"for {len(self.tasks)} tasks"
            )
        missing = {task.group for task in self.tasks} - set(self.factories)
        if missing:
            raise ConfigurationError(
                f"shard {self.shard_index}: no factory shipped for groups {sorted(missing)}"
            )


def build_task_index(task: GroupEvalTask, factory: GrecaIndexFactory) -> GrecaIndex:
    """Build the task's index from its (resolved) affinity columns."""
    from repro.parallel.shm import resolve_affinity_columns

    return factory.build_columns(
        resolve_affinity_columns(task.affinity_ref),
        time_model=task.time_model,
        items=task.items,
        n_periods=task.n_periods,
    )


def run_task(task: GroupEvalTask, factory: GrecaIndexFactory) -> GroupRunRecord:
    """Evaluate one task against its group's factory (worker-side)."""
    index = build_task_index(task, factory)
    algorithm = Greca(task.consensus, k=task.k, check_interval=task.check_interval)
    return record_from_result(task.group, algorithm.run(index))


def _stable_index_key(task: GroupEvalTask, factory_ref: object) -> tuple | None:
    """A content-stable memo key for the task's index, or ``None``.

    Only fully handle-addressed tasks qualify: the factory and the affinity
    columns must both have arrived as shared-memory handles, whose values
    identify the underlying segments across dispatches — that is what makes
    the per-process index memo safe on a warm persistent pool.  In-process
    payloads get no cross-payload key (their objects have no stable
    identity); they still batch within one payload via the shard-local memo.

    Handle equality covers the full descriptor — segment name, shape, dtype,
    offset, *storage backend* and export generation — so an shm handle and
    an mmap handle for the same logical column, or two exports over a
    recycled segment name, can never alias one memo entry.
    """
    from repro.parallel.shm import ShmAffinityHandle, ShmFactoryHandle

    if not isinstance(factory_ref, ShmFactoryHandle):
        return None
    if not isinstance(task.affinity_ref, ShmAffinityHandle):
        return None
    return (factory_ref, task.affinity_ref, task.n_periods, task.items, task.time_model)


def _shard_local_key(task: GroupEvalTask) -> tuple:
    """A within-payload memo key (id-based; the payload keeps the refs alive)."""
    return (task.group, id(task.affinity_ref), task.n_periods, task.items, task.time_model)


def run_shard(payload: ShardPayload) -> tuple[GroupRunRecord, ...]:
    """Worker entry point: evaluate every task of a shard, in shard order.

    Shared-memory factory and affinity handles are materialised (and
    memoised per worker process, LRU-bounded) before any task runs, so a
    shard's tasks — and, under a persistent pool, every later shard of the
    same factory — share one attached, zero-copy substrate.

    Multi-query batching: a payload carries *all* sweep points of its
    groups, and tasks that resolve to the same index inputs — a k or
    consensus sweep, repeated periods — reuse one built index instead of
    rebuilding it per task.  Handle-addressed indexes additionally persist
    in the per-process memo, so a warm pool re-serves them across
    dispatches.  Index reuse is bit-identical to fresh construction (the
    PR 2 reuse-layer guarantee; indexes are immutable between runs).

    Must stay a module-level function so process pools can address it by
    qualified name regardless of the start method.  perfbench/trace.py
    replaces it by name here and in :mod:`~repro.parallel.pool` and
    :mod:`~repro.parallel.resilience`, which import it.
    """
    from repro.parallel import shm

    if payload.min_generation:
        # Epoch adoption on a warm pool: drop caches (and attachments) of
        # exports the shipping registry has since retired, before anything
        # in this dispatch can be served from them.
        shm.purge_stale(payload.min_generation)
    factories = {key: shm.resolve_factory(value) for key, value in payload.factories.items()}
    local_indexes: dict[tuple, GrecaIndex] = {}
    records = []
    for position, task in enumerate(payload.tasks):
        if payload.fault_plan is not None:
            # Deterministic chaos hook: the plan decides, from (shard,
            # position, attempt) alone, whether to crash, raise or stall
            # here.  A payload without a plan never pays this branch.
            payload.fault_plan.trigger(payload.shard_index, position, payload.attempt)
        factory = factories[task.group]
        stable_key = _stable_index_key(task, payload.factories[task.group])
        local_key = _shard_local_key(task)
        index = None
        if stable_key is not None:
            index = shm.cached_index(stable_key)
        if index is None:
            index = local_indexes.get(local_key)
        if index is None:
            index = build_task_index(task, factory)
            if stable_key is not None:
                shm.store_index(stable_key, index)
            else:
                local_indexes[local_key] = index
        algorithm = Greca(task.consensus, k=task.k, check_interval=task.check_interval)
        records.append(record_from_result(task.group, algorithm.run(index)))
    return tuple(records)
