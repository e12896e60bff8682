"""Sharded parallel group-evaluation layer.

The paper's scalability study evaluates many independent groups over one
shared, read-only index substrate — an embarrassingly parallel workload.
This package partitions those evaluations across process workers while
keeping the serial semantics bit-exact:

* :mod:`repro.parallel.sharding` — deterministic shard planning (any
  partition of the task indices is a valid plan);
* :mod:`repro.parallel.worker` — picklable task/record/payload types and the
  worker-side loop (``factory.build_columns`` + ``Greca.run`` per task);
* :mod:`repro.parallel.shm` — zero-copy shared-memory shipment: the factory
  substrate's large arrays live in ``multiprocessing.shared_memory``
  segments owned by a context-managed :class:`SharedArrayRegistry`
  (unlink-on-exit guaranteed), and payloads carry only
  ``(segment, shape, dtype, offset)`` descriptors that workers reattach;
* :mod:`repro.parallel.pool` — the ``serial`` (in-process) and
  ``persistent`` (warm pool reused across dispatches) shard executors, plus
  the single :class:`ValueError` choice point for ``executor=`` strings;
* :mod:`repro.parallel.merge` — order-restoring merge of per-shard records;
* :mod:`repro.parallel.evaluation` — the :func:`evaluate_tasks` pipeline
  gluing them together (descriptor shipment whenever payloads cross a
  process boundary);
* :mod:`repro.parallel.resilience` — the ``supervised`` fault-tolerant
  dispatch tier: :class:`SupervisedDispatch` wraps a warm persistent pool
  with per-shard timeouts, bounded deterministic retries, pool self-healing
  and serial degradation, reports every recovery in a
  :class:`DispatchReport`, and ships a deterministic :class:`FaultPlan`
  chaos harness for the fault-tolerance suite;
* :mod:`repro.parallel.policy` — :class:`ExecutionPolicy`, the one frozen
  bundle of the dispatch knobs (``n_workers`` / ``executor`` /
  ``supervision``).

Serial execution remains the reference semantics everywhere: the sharded
path must (and, per ``tests/test_parallel_equivalence.py``, does) reproduce
the serial records — access counts, %SA values, top-k items, stopping
reasons — bit-for-bit for every shard count, every partition and every
backend.
"""

from repro.parallel.evaluation import build_payloads, evaluate_tasks
from repro.parallel.merge import merge_shard_records
from repro.parallel.pool import (
    EXECUTOR_PERSISTENT,
    EXECUTOR_SERIAL,
    PersistentShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    available_cpus,
    executor_names,
    register_executor,
    resolve_executor,
    validate_executor_name,
)
from repro.parallel.resilience import (
    EXECUTOR_SUPERVISED,
    VALID_FAULT_MODES,
    DispatchReport,
    FaultPlan,
    FaultSpec,
    ShardAttempt,
    SupervisedDispatch,
    SupervisionPolicy,
    fault_plan_from_env,
    summarise_reports,
)
from repro.parallel.policy import ExecutionPolicy
from repro.parallel.sharding import ShardPlan, plan_shards
from repro.parallel.shm import (
    SharedArrayRegistry,
    SharedArraySpec,
    ShmAffinityHandle,
    ShmFactoryHandle,
    attach_array,
    materialise_affinity,
    materialise_factory,
    resolve_affinity_columns,
    resolve_factory,
)
from repro.parallel.worker import (
    GroupEvalTask,
    GroupRunRecord,
    ShardPayload,
    group_key,
    record_from_result,
    run_shard,
    run_task,
)

__all__ = [
    "DispatchReport",
    "EXECUTOR_PERSISTENT",
    "EXECUTOR_SERIAL",
    "EXECUTOR_SUPERVISED",
    "ExecutionPolicy",
    "FaultPlan",
    "FaultSpec",
    "GroupEvalTask",
    "GroupRunRecord",
    "PersistentShardExecutor",
    "SerialShardExecutor",
    "ShardAttempt",
    "ShardExecutor",
    "ShardPayload",
    "ShardPlan",
    "SharedArrayRegistry",
    "SharedArraySpec",
    "ShmAffinityHandle",
    "ShmFactoryHandle",
    "SupervisedDispatch",
    "SupervisionPolicy",
    "VALID_FAULT_MODES",
    "attach_array",
    "available_cpus",
    "build_payloads",
    "evaluate_tasks",
    "executor_names",
    "fault_plan_from_env",
    "group_key",
    "materialise_affinity",
    "materialise_factory",
    "merge_shard_records",
    "plan_shards",
    "record_from_result",
    "register_executor",
    "resolve_executor",
    "resolve_factory",
    "run_shard",
    "run_task",
    "summarise_reports",
    "validate_executor_name",
]

