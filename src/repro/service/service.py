"""The GRECA serving front-end: queries in, bit-identical records out.

:class:`GrecaService` turns the warm substrate the experiment layer built —
memoised per-group factories, persistent worker pools, zero-copy shm
shipment, supervised fault-tolerant dispatch — into a long-lived query
service.  Concurrent clients ``await service.submit(GroupQuery(...))``; the
service coalesces whatever arrives within a small batching window into one
**group-major** task list (the same ordering discipline
:meth:`~repro.experiments.scalability.ScalabilityEnvironment.run_sweep`
uses, so contiguous shards ship each group's factory once), dispatches the
batch through the environment's executor exactly as a figure driver would,
and scatters the records back to the awaiting clients with per-query
latency accounting.

Three clocks per query (:class:`QueryLatency`):

* **queue** — submit to batch pickup (the coalescing wait plus any backlog
  behind earlier batches);
* **dispatch** — the environment evaluation call, shard planning to merged
  records;
* **merge** — scatter-back from the merged batch to this query's future.

Equivalence is the whole point: a response's record is bit-identical to the
serial ``task_for`` + ``run_task`` reference path for the same query, no
matter how requests interleave or batch (``tests/test_service.py``).  The
dispatch itself runs on a single worker thread, so batches are serialized
against each other and the environment's dispatch-report trail stays
ordered; thread-safety of the substrate underneath (pool lifecycle, shm
export memos, factory memos) is the pool/registry layer's contract.
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.consensus import ConsensusFunction
from repro.exceptions import ConfigurationError, ServiceError
from repro.experiments.scalability import ScalabilityConfig, ScalabilityEnvironment
from repro.parallel import (
    EXECUTOR_SUPERVISED,
    DispatchReport,
    ExecutionPolicy,
    FaultPlan,
    GroupEvalTask,
    GroupRunRecord,
    group_key,
    run_task,
)

#: Queue sentinel that tells the batch loop to finish the current backlog
#: and exit (graceful drain).
_SHUTDOWN = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving layer.

    ``executor=None`` serves every batch through the in-process serial
    reference path (useful as a latency baseline and for equivalence
    harnesses); the default routes batches through the supervised
    fault-tolerant tier over the environment's warm persistent pool.
    ``max_batch_delay`` is the coalescing window: after the first query of
    a batch arrives, the batcher waits at most this long (seconds) for
    companions before dispatching.  ``max_queue`` bounds the submit queue —
    a full queue sheds load with :class:`ServiceError` instead of growing
    without bound.

    ``storage`` selects the column-store backend dispatches export into
    (``"shm"`` shared memory — the default — or ``"mmap"`` spool files).
    """

    n_workers: int = 2
    executor: str | None = EXECUTOR_SUPERVISED
    max_batch_size: int = 32
    max_batch_delay: float = 0.005
    max_queue: int = 1024
    storage: str | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if self.max_batch_delay < 0:
            raise ConfigurationError("max_batch_delay must be >= 0")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        self.execution_policy()  # validates executor and storage names

    def execution_policy(self) -> ExecutionPolicy:
        """The dispatch policy every batch runs under.

        ``executor=None`` is the in-process serial reference path,
        ``n_workers`` notwithstanding; any other executor runs sharded at
        ``n_workers`` over ``storage``.
        """
        if self.executor is None:
            return ExecutionPolicy(storage=self.storage)
        return ExecutionPolicy(
            n_workers=self.n_workers, executor=self.executor, storage=self.storage
        )


@dataclass(frozen=True)
class GroupQuery:
    """One group-recommendation request.

    ``None`` knobs fall back to the environment's config defaults, exactly
    like the corresponding :meth:`ScalabilityEnvironment.task_for`
    arguments.  ``period_index`` addresses the environment's timeline by
    position (``None`` = the current period) so clients never construct
    :class:`~repro.core.timeline.Period` objects.
    """

    group: tuple[int, ...]
    k: int | None = None
    consensus: str | ConsensusFunction | None = None
    affinity: str = "discrete"
    n_items: int | None = None
    period_index: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", group_key(self.group))
        if not self.group:
            raise ConfigurationError("a query needs a non-empty group")


@dataclass(frozen=True)
class QueryLatency:
    """Per-query latency accounting, one entry per clock plus the batch size."""

    queue_seconds: float
    dispatch_seconds: float
    merge_seconds: float
    total_seconds: float
    batch_size: int


@dataclass(frozen=True)
class QueryResponse:
    """One served query: its record, its latency split, its dispatch report.

    ``report`` is the :class:`DispatchReport` of the supervised dispatch
    that carried this query's batch (``None`` for unsupervised executors) —
    an honest account of any timeouts, retries, pool rebuilds or serial
    degradation the batch survived.
    """

    query: GroupQuery
    record: GroupRunRecord
    latency: QueryLatency
    report: DispatchReport | None = None


@dataclass
class _PendingQuery:
    query: GroupQuery
    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.perf_counter)


class GrecaService:
    """Asyncio front-end batching concurrent queries onto the warm substrate.

    Lifecycle: ``await start()`` (or ``async with``), any number of
    concurrent ``await submit(query)`` calls, ``await stop()``.  ``stop``
    drains: queries already accepted are dispatched and answered before the
    batcher exits, then the dispatch thread joins and — when the service
    owns its environment — the environment's pools and shm segments are
    released, leaving ``/dev/shm`` empty.
    """

    def __init__(
        self,
        environment: ScalabilityEnvironment | None = None,
        config: ServiceConfig | None = None,
        scalability_config: ScalabilityConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if environment is not None and scalability_config is not None:
            raise ConfigurationError(
                "pass either a built environment or a scalability_config, not both"
            )
        self.config = config or ServiceConfig()
        self.environment = environment
        self.fault_plan = fault_plan
        self._owns_environment = environment is None
        self._scalability_config = scalability_config
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._batcher: asyncio.Task | None = None
        self._dispatch_pool: ThreadPoolExecutor | None = None
        self._accepting = False
        #: Size of every batch dispatched so far (test/observability hook).
        self.batch_sizes: list[int] = []

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """``True`` between a successful :meth:`start` and :meth:`stop`."""
        return self._queue is not None

    async def start(self) -> "GrecaService":
        """Build the environment (if not supplied) and start accepting queries."""
        if self._queue is not None:
            raise ServiceError("service already started")
        self._loop = asyncio.get_running_loop()
        if self.environment is None:
            # Substrate construction (dataset + CF fit) takes seconds; keep
            # the event loop responsive while it builds.
            config = self._scalability_config
            self.environment = await self._loop.run_in_executor(
                None, lambda: ScalabilityEnvironment(config)
            )
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        # One dispatch thread: batches serialize against each other, so the
        # environment's dispatch_reports trail maps 1:1 onto batches.
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="greca-dispatch"
        )
        self._batcher = self._loop.create_task(self._batch_loop())
        self._accepting = True
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, settle the backlog, release owned resources.

        With ``drain=True`` (the default, and what the SIGTERM/SIGINT
        handlers use) every already-accepted query is dispatched and
        answered first; ``drain=False`` fails queued-but-undispatched
        queries with :class:`ServiceError` instead.  Idempotent.
        """
        if self._queue is None:
            return
        self._accepting = False
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is not _SHUTDOWN and not item.future.done():
                    item.future.set_exception(
                        ServiceError("service stopped before this query dispatched")
                    )
        await self._queue.put(_SHUTDOWN)
        if self._batcher is not None:
            await self._batcher
            self._batcher = None
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=True)
            self._dispatch_pool = None
        self._queue = None
        if self._owns_environment and self.environment is not None:
            self.environment.close()

    async def __aenter__(self) -> "GrecaService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    def install_signal_handlers(self, stop_event: asyncio.Event) -> None:
        """Route SIGTERM/SIGINT to ``stop_event`` for a graceful drain.

        The caller owns the shutdown sequence (``await stop_event.wait()``
        then ``await service.stop()``) so in-flight dispatches finish and
        ``/dev/shm`` is left empty — the contract
        ``tests/test_shm_lifecycle.py`` kills a live service to verify.
        """
        if self._loop is None:
            raise ServiceError("start the service before installing signal handlers")
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(signum, stop_event.set)

    # -- query path ----------------------------------------------------------------------

    async def submit(self, query: GroupQuery) -> QueryResponse:
        """Submit one query and await its response (batched transparently)."""
        if not self._accepting or self._queue is None or self._loop is None:
            raise ServiceError("service is not accepting queries")
        pending = _PendingQuery(query=query, future=self._loop.create_future())
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            raise ServiceError(
                f"service queue full ({self.config.max_queue} queries pending)"
            ) from None
        return await pending.future

    def task_for(self, query: GroupQuery) -> GroupEvalTask:
        """Materialise a query as the shippable task the batch dispatch uses."""
        if self.environment is None:
            raise ServiceError("service has no environment (not started)")
        period = None
        if query.period_index is not None:
            periods = list(self.environment.timeline)
            if not 0 <= query.period_index < len(periods):
                raise ConfigurationError(
                    f"period_index {query.period_index} outside the "
                    f"{len(periods)}-period timeline"
                )
            period = periods[query.period_index]
        return self.environment.task_for(
            query.group,
            k=query.k,
            consensus=query.consensus,
            affinity=query.affinity,
            period=period,
            n_items=query.n_items,
        )

    async def submit_delta(self, delta) -> "object":
        """Apply a :class:`~repro.updates.deltas.RatingDelta` as a new epoch.

        The application runs on the single dispatch thread, so it serialises
        with query batches: every query picked up before the delta finishes
        on the epoch it was dispatched under, and every later batch sees the
        new epoch — no query ever observes a half-applied update, and no
        worker pool is restarted.  Returns the environment's
        :class:`~repro.experiments.scalability.DeltaReport`.
        """
        if not self._accepting or self._loop is None or self._dispatch_pool is None:
            raise ServiceError("service is not accepting updates")
        return await self._loop.run_in_executor(
            self._dispatch_pool, self.environment.apply_delta, delta
        )

    def reference_record(self, query: GroupQuery) -> GroupRunRecord:
        """The serial reference answer for one query (the equivalence oracle).

        Runs the exact ``task_for`` + ``run_task`` path the serial
        evaluation uses, in-process, untouched by batching or executors —
        service responses must match this bit-for-bit.
        """
        task = self.task_for(query)
        return run_task(task, self.environment.index_factory(task.group))

    # -- batching ------------------------------------------------------------------------

    async def _batch_loop(self) -> None:
        while True:
            pending = await self._queue.get()
            if pending is _SHUTDOWN:
                return
            batch = [pending]
            saw_shutdown = await self._coalesce(batch)
            await self._dispatch_batch(batch)
            if saw_shutdown:
                return

    async def _coalesce(self, batch: list) -> bool:
        """Fill ``batch`` up to the size cap within the delay window.

        Returns ``True`` when the shutdown sentinel was consumed while
        coalescing (the batch in hand still gets dispatched — drain
        semantics).
        """
        deadline = self._loop.time() + self.config.max_batch_delay
        while len(batch) < self.config.max_batch_size:
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                # Window closed: take whatever is already queued, no waiting.
                while len(batch) < self.config.max_batch_size:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return False
                    if item is _SHUTDOWN:
                        return True
                    batch.append(item)
                return False
            try:
                item = await asyncio.wait_for(self._queue.get(), remaining)
            except asyncio.TimeoutError:
                return False
            if item is _SHUTDOWN:
                return True
            batch.append(item)
        return False

    async def _dispatch_batch(self, batch: list) -> None:
        picked_up = time.perf_counter()
        try:
            by_position, report, dispatch_seconds = await self._loop.run_in_executor(
                self._dispatch_pool,
                self._materialise_and_evaluate,
                [pending.query for pending in batch],
            )
        except Exception as exc:
            self._fail_batch(batch, exc)
            return
        merge_start = time.perf_counter()
        self.batch_sizes.append(len(batch))
        for position, pending in enumerate(batch):
            now = time.perf_counter()
            latency = QueryLatency(
                queue_seconds=picked_up - pending.enqueued_at,
                dispatch_seconds=dispatch_seconds,
                merge_seconds=now - merge_start,
                total_seconds=now - pending.enqueued_at,
                batch_size=len(batch),
            )
            if not pending.future.done():
                pending.future.set_result(
                    QueryResponse(
                        query=pending.query,
                        record=by_position[position],
                        latency=latency,
                        report=report,
                    )
                )

    @staticmethod
    def _fail_batch(batch: list, exc: BaseException) -> None:
        for pending in batch:
            if not pending.future.done():
                pending.future.set_exception(exc)

    def _materialise_and_evaluate(
        self, queries: Sequence[GroupQuery]
    ) -> tuple[dict, DispatchReport | None, float]:
        """Dispatch-thread body: materialise, order group-major, evaluate.

        Materialising tasks here — not on the event loop — makes each batch
        atomic with respect to :meth:`submit_delta`: both run on the single
        dispatch thread, so a batch's tasks and its evaluation always see
        one epoch.  Group-major order is run_sweep's batching discipline,
        shipping each group's factory (and affinity columns) to as few
        shards as possible.
        """
        entries: list[tuple[tuple[int, ...], int, GroupEvalTask]] = []
        for position, query in enumerate(queries):
            task = self.task_for(query)
            entries.append((task.group, position, task))
        entries.sort(key=lambda entry: entry[:2])
        records, report, dispatch_seconds = self._evaluate(
            [entry[2] for entry in entries]
        )
        by_position = {
            position: record
            for (_group, position, _task), record in zip(entries, records)
        }
        return by_position, report, dispatch_seconds

    def _evaluate(
        self, tasks: Sequence[GroupEvalTask]
    ) -> tuple[list[GroupRunRecord], DispatchReport | None, float]:
        """Dispatch-thread body: evaluate one batch, time it, grab its report."""
        environment = self.environment
        before = len(environment.dispatch_reports)
        start = time.perf_counter()
        records = environment.evaluate(
            tasks,
            policy=self.config.execution_policy(),
            fault_plan=self.fault_plan,
        )
        dispatch_seconds = time.perf_counter() - start
        report = (
            environment.dispatch_reports[-1]
            if len(environment.dispatch_reports) > before
            else None
        )
        return list(records), report, dispatch_seconds
