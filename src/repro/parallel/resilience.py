"""Fault-tolerant dispatch supervision for the sharded parallel layer.

Persistent pools, zero-copy shm shipment and batched multi-query dispatch
make the parallel tier fast, but on their own one crashed or wedged worker
kills a whole figure sweep, with no retry or fallback.  This module turns
dispatch into a supervised operation:

* :class:`SupervisedDispatch` wraps a warm
  :class:`~repro.parallel.pool.PersistentShardExecutor` and adds four
  recovery tiers, none of which can change results (the architecture
  invariant: any shard partition, any backend, any shipment merges to the
  bit-identical serial sequence):

  1. **per-shard wall-clock timeouts** — each shard future is awaited
     against its own deadline, so a stalled worker costs one timeout, not
     the whole run;
  2. **bounded retries with deterministic backoff** — failed or timed-out
     shards are re-dispatched up to :attr:`SupervisionPolicy.max_retries`
     times, sleeping exponentially with *seeded* jitter
     (:meth:`SupervisionPolicy.backoff_seconds` is a pure function of the
     policy seed, the shard and the attempt — chaos runs are replayable);
  3. **pool self-healing** — a crash or timeout poisons the worker pool, so
     the supervisor discards it with the non-blocking
     :meth:`~repro.parallel.pool.PersistentShardExecutor.kill`, lazily
     rebuilds it for the retry, and asks the shm registry to
     :meth:`~repro.parallel.shm.SharedArrayRegistry.reexport_missing` any
     segment that vanished with the dead workers, rewriting pending payload
     handles to the replacement segments;
  4. **graceful degradation** — a shard that exhausts its retry budget is
     re-run in-process on the serial executor (bit-identical by the
     architecture invariant, so degradation never changes results; the
     fault plan is stripped first, because a planned ``os._exit`` must
     never fire inside the parent).

  Every action is recorded in a structured :class:`DispatchReport`
  (per-shard attempt latencies, retries, pool rebuilds, segment re-exports,
  degradations) surfaced through ``SupervisedDispatch.last_report``,
  :func:`repro.parallel.evaluate_tasks`'s ``reports=`` sink,
  ``ScalabilityEnvironment.dispatch_reports`` and the runner's
  ``--executor supervised`` summary line.

* :class:`FaultPlan` is the deterministic fault-injection harness the chaos
  suite (``tests/test_fault_tolerance.py``) drives.  A plan ships *inside*
  the :class:`~repro.parallel.worker.ShardPayload`; ``run_shard`` consults
  it before each task and crashes (``os._exit``), raises
  (:class:`~repro.exceptions.InjectedFaultError`) or stalls at the planned
  (shard, task-position) coordinates.  A spec fires on dispatch attempts
  ``0 .. fires-1`` and the supervisor re-ships retries with the attempt
  counter incremented, so "fail twice then succeed" needs no cross-process
  state and replays exactly.  ``REPRO_FAULT_PLAN`` injects a plan into any
  dispatch from the environment for local chaos runs.

The ``supervised`` executor name registers here (a
:class:`SupervisedDispatch` around a fresh persistent pool), which is how it
appears in the single :class:`ValueError` choice point's backend list.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from concurrent.futures.process import BrokenProcessPool

from repro.exceptions import (
    ConfigurationError,
    DispatchError,
    InjectedFaultError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.parallel.pool import (
    PersistentShardExecutor,
    ShardExecutor,
    register_executor,
)
from repro.parallel.shm import (
    SharedArrayRegistry,
    ShmAffinityHandle,
    ShmFactoryHandle,
    rewrite_affinity_handle,
    rewrite_factory_handle,
)
# perfbench/trace.py swaps a traced wrapper into this module's ``run_shard``
# before the pool forks, so call it through the module global only.
from repro.parallel.worker import GroupRunRecord, ShardPayload, run_shard

#: The fault-tolerant executor spelling (registered at the bottom).
EXECUTOR_SUPERVISED = "supervised"

#: Fault modes the injection harness understands.
FAULT_CRASH = "crash"
FAULT_RAISE = "raise"
FAULT_STALL = "stall"
VALID_FAULT_MODES = (FAULT_CRASH, FAULT_RAISE, FAULT_STALL)

#: Environment variables for local chaos runs (see README "Fault tolerance").
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
FAULT_STALL_SECONDS_ENV = "REPRO_FAULT_STALL_SECONDS"

#: Attempt-record backends (where a shard attempt actually ran).
BACKEND_POOLED = "pooled"
BACKEND_DEGRADED = "serial-degraded"

#: Attempt-record outcomes.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_CRASH = "crash"
OUTCOME_TIMEOUT = "timeout"


# -- deterministic fault injection ---------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault at a (shard, task-position) coordinate.

    The spec fires on dispatch attempts ``0 .. fires-1`` of its shard and is
    silent afterwards — the supervisor increments
    :attr:`~repro.parallel.worker.ShardPayload.attempt` on every retry, so
    ``fires=1`` means "fail the first attempt, succeed on retry" and
    ``fires`` larger than the retry budget forces the degradation path.
    """

    shard: int
    position: int
    mode: str
    fires: int = 1
    stall_seconds: float = 30.0
    exit_code: int = 23

    def __post_init__(self) -> None:
        if self.mode not in VALID_FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}: valid modes are "
                + ", ".join(repr(mode) for mode in VALID_FAULT_MODES)
            )
        if self.shard < 0 or self.position < 0:
            raise ConfigurationError("fault coordinates must be non-negative")
        if self.fires < 1:
            raise ConfigurationError("a fault must fire at least once")
        if self.stall_seconds < 0:
            raise ConfigurationError("stall_seconds must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of planned faults, shipped inside each payload.

    Everything is decided from ``(shard, position, attempt)`` alone — no
    clocks, no randomness, no cross-process state — so a chaos scenario
    replays bit-identically, which is what lets the suite pin exact recovery
    behaviour.
    """

    specs: tuple[FaultSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def spec_at(self, shard: int, position: int) -> FaultSpec | None:
        """The first spec planted at the given coordinate, if any."""
        for spec in self.specs:
            if spec.shard == shard and spec.position == position:
                return spec
        return None

    def trigger(self, shard: int, position: int, attempt: int) -> None:
        """Fire the planned fault for this coordinate/attempt, if any.

        Called by :func:`repro.parallel.worker.run_shard` before each task.
        ``crash`` exits the worker process without any cleanup (``os._exit``
        — the genuine SIGKILL-ish death the pool sees as a broken worker),
        ``raise`` throws :class:`InjectedFaultError`, ``stall`` sleeps past
        any sane shard timeout and then continues (so an *unenforced*
        timeout yields a slow-but-correct run, never a wrong one).
        """
        spec = self.spec_at(shard, position)
        if spec is None or attempt >= spec.fires:
            return
        if spec.mode == FAULT_CRASH:
            os._exit(spec.exit_code)
        if spec.mode == FAULT_RAISE:
            raise InjectedFaultError(shard, position, attempt)
        time.sleep(spec.stall_seconds)

    @classmethod
    def from_string(cls, text: str, stall_seconds: float = 30.0) -> "FaultPlan":
        """Parse ``mode:shard:position[:fires]`` entries separated by ``;``.

        The ``REPRO_FAULT_PLAN`` wire format, e.g.
        ``crash:0:0`` or ``raise:1:2:3;stall:0:1``.
        """
        specs = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) not in (3, 4):
                raise ConfigurationError(
                    f"bad fault entry {chunk!r}: expected mode:shard:position[:fires]"
                )
            try:
                shard, position = int(parts[1]), int(parts[2])
                fires = int(parts[3]) if len(parts) == 4 else 1
            except ValueError as exc:
                raise ConfigurationError(f"bad fault entry {chunk!r}: {exc}") from exc
            specs.append(
                FaultSpec(
                    shard=shard,
                    position=position,
                    mode=parts[0],
                    fires=fires,
                    stall_seconds=stall_seconds,
                )
            )
        if not specs:
            raise ConfigurationError(f"no fault entries in {text!r}")
        return cls(specs=tuple(specs))


def fault_plan_from_env(environ: Mapping[str, str] = os.environ) -> FaultPlan | None:
    """The :data:`FAULT_PLAN_ENV` plan, or ``None`` when chaos is off.

    Checked by :func:`repro.parallel.evaluate_tasks` on every dispatch, so
    ``REPRO_FAULT_PLAN="crash:0:0" python -m repro.experiments.runner
    figure6 --workers 2 --executor supervised`` is a complete local chaos
    run — no code changes, recovery visible in the dispatch summary.
    """
    text = environ.get(FAULT_PLAN_ENV, "").strip()
    if not text:
        return None
    stall = float(environ.get(FAULT_STALL_SECONDS_ENV, "30.0"))
    return FaultPlan.from_string(text, stall_seconds=stall)


def attach_fault_plan(
    payloads: Sequence[ShardPayload], plan: FaultPlan | None
) -> list[ShardPayload]:
    """The same payloads with ``plan`` riding along (a no-op for ``None``)."""
    if plan is None:
        return list(payloads)
    return [replace(payload, fault_plan=plan) for payload in payloads]


# -- supervision policy --------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisionPolicy:
    """The knobs of one supervised dispatch.

    ``timeout`` is a per-shard wall-clock budget measured from the moment
    the shard reaches a worker — not from submission, so shards queued
    behind a saturated pool do not burn budget while waiting (``None``
    disables preemption); ``max_retries`` bounds re-dispatches
    *per shard* beyond the first attempt; the backoff before retry ``r``
    (1-based) is ``min(backoff_base * 2**(r-1), backoff_cap)`` stretched by
    up to ``jitter`` — the jitter is drawn from a generator seeded with
    ``(seed, shard, attempt)``, so it decorrelates shards without
    sacrificing replayability.  ``degrade=False`` turns the serial fallback
    into a :class:`~repro.exceptions.DispatchError` instead.
    """

    timeout: float | None = 30.0
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int = 17
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError("timeout must be positive (or None to disable)")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.jitter < 0:
            raise ConfigurationError("backoff knobs must be non-negative")

    def backoff_seconds(self, shard: int, attempt: int) -> float:
        """Deterministic backoff before re-dispatching ``shard``'s ``attempt``-th retry."""
        if self.backoff_base <= 0:
            return 0.0
        base = min(self.backoff_base * (2 ** max(0, attempt - 1)), self.backoff_cap)
        # Seeding with a string routes through SHA-512, which is stable
        # across processes and runs (unlike hash(), which PYTHONHASHSEED
        # may randomise for strings).
        draw = random.Random(f"{self.seed}:{shard}:{attempt}").random()
        return base * (1.0 + self.jitter * draw)


# -- structured reporting ------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardAttempt:
    """One dispatch attempt of one shard: where it ran, how it ended, how long."""

    shard: int
    attempt: int
    backend: str
    outcome: str
    seconds: float
    error: str = ""


@dataclass(frozen=True)
class DispatchReport:
    """What one supervised dispatch actually did, shard attempt by attempt.

    ``attempts`` is the complete chronology; ``rebuilds`` counts pool
    teardowns (crash or timeout triggered), ``reexported_segments`` counts
    shm segments the self-healing path recreated, ``degraded`` lists the
    shards that fell back to the serial executor after exhausting their
    retry budget.
    """

    n_shards: int
    attempts: tuple[ShardAttempt, ...] = ()
    rebuilds: int = 0
    reexported_segments: int = 0
    degraded: tuple[int, ...] = ()

    @property
    def n_attempts(self) -> int:
        """Total shard attempts, first tries included."""
        return len(self.attempts)

    @property
    def retries(self) -> int:
        """Attempts beyond each shard's first (degraded re-runs included)."""
        first_seen: set[int] = set()
        retries = 0
        for attempt in self.attempts:
            if attempt.shard in first_seen:
                retries += 1
            else:
                first_seen.add(attempt.shard)
        return retries

    @property
    def failures(self) -> tuple[ShardAttempt, ...]:
        """Every attempt that did not complete cleanly."""
        return tuple(a for a in self.attempts if a.outcome != OUTCOME_OK)

    @property
    def ok(self) -> bool:
        """``True`` when every shard's final attempt completed cleanly."""
        last: dict[int, ShardAttempt] = {}
        for attempt in self.attempts:
            last[attempt.shard] = attempt
        return len(last) == self.n_shards and all(
            a.outcome == OUTCOME_OK for a in last.values()
        )

    def shard_seconds(self) -> dict[int, float]:
        """Total wall-clock spent per shard, across all of its attempts."""
        totals: dict[int, float] = {}
        for attempt in self.attempts:
            totals[attempt.shard] = totals.get(attempt.shard, 0.0) + attempt.seconds
        return totals

    def format_summary(self) -> str:
        """One human-readable line for CLIs and logs."""
        verdict = "ok" if self.ok else "FAILED"
        return (
            f"dispatch [{verdict}]: {self.n_shards} shard(s), "
            f"{self.n_attempts} attempt(s) ({self.retries} retries), "
            f"{self.rebuilds} pool rebuild(s), "
            f"{self.reexported_segments} segment re-export(s), "
            f"{len(self.degraded)} degraded shard(s)"
        )


def summarise_reports(reports: Sequence[DispatchReport]) -> str:
    """Aggregate many dispatch reports (a whole figure suite) into one line."""
    if not reports:
        return "supervised dispatch: no dispatches recorded"
    return (
        f"supervised dispatch: {len(reports)} dispatch(es), "
        f"{sum(r.n_attempts for r in reports)} shard attempt(s) "
        f"({sum(r.retries for r in reports)} retries), "
        f"{sum(r.rebuilds for r in reports)} pool rebuild(s), "
        f"{sum(r.reexported_segments for r in reports)} segment re-export(s), "
        f"{sum(len(r.degraded) for r in reports)} degraded shard run(s)"
    )


@dataclass
class _ReportBuilder:
    """Mutable accumulator behind the frozen :class:`DispatchReport`."""

    attempts: list[ShardAttempt] = field(default_factory=list)
    rebuilds: int = 0
    reexported_segments: int = 0
    degraded: set[int] = field(default_factory=set)

    def record(
        self,
        shard: int,
        attempt: int,
        backend: str,
        outcome: str,
        seconds: float,
        error: object = None,
    ) -> None:
        self.attempts.append(
            ShardAttempt(
                shard=shard,
                attempt=attempt,
                backend=backend,
                outcome=outcome,
                seconds=seconds,
                error="" if error is None else repr(error),
            )
        )

    def build(self, n_shards: int) -> DispatchReport:
        return DispatchReport(
            n_shards=n_shards,
            attempts=tuple(self.attempts),
            rebuilds=self.rebuilds,
            reexported_segments=self.reexported_segments,
            degraded=tuple(sorted(self.degraded)),
        )


# -- the supervisor ------------------------------------------------------------------------------


def _rewrite_payload(payload: ShardPayload, mapping: dict[str, str]) -> ShardPayload:
    """A payload whose shm handles reference re-exported segments."""
    if not mapping:
        return payload
    factories = {
        key: rewrite_factory_handle(value, mapping)
        if isinstance(value, ShmFactoryHandle)
        else value
        for key, value in payload.factories.items()
    }
    tasks = tuple(
        replace(task, affinity_ref=rewrite_affinity_handle(task.affinity_ref, mapping))
        if isinstance(task.affinity_ref, ShmAffinityHandle)
        else task
        for task in payload.tasks
    )
    return replace(payload, factories=factories, tasks=tasks)


class SupervisedDispatch(ShardExecutor):
    """A fault-tolerant wrapper around a warm :class:`PersistentShardExecutor`.

    Per-shard timeouts, retries, pool rebuilds, shm re-export and serial
    degradation all act on the wrapped pool, so anything else — an
    in-process executor, or another supervisor — is refused at
    construction with :class:`~repro.exceptions.ConfigurationError`.

    ``registry`` is the shm registry whose segments the current payloads
    reference; :func:`repro.parallel.evaluate_tasks` assigns it for the
    duration of the call, which is what arms the self-healing re-export.
    ``owns_executor`` mirrors ``evaluate_tasks``'s ownership contract: a
    supervisor built around a caller's warm pool must not shut it down.
    """

    #: The wrapped pool's payloads always cross a process boundary.
    ships_payloads = True

    def __init__(
        self,
        executor: PersistentShardExecutor,
        policy: SupervisionPolicy | None = None,
        registry: SharedArrayRegistry | None = None,
        owns_executor: bool = False,
    ) -> None:
        if not isinstance(executor, PersistentShardExecutor):
            raise ConfigurationError(
                "supervision wraps a PersistentShardExecutor, "
                f"got {type(executor).__name__}"
            )
        self.executor = executor
        self.policy = policy or SupervisionPolicy()
        self.registry = registry
        self.owns_executor = owns_executor
        self.last_report: DispatchReport | None = None

    @property
    def warm(self) -> bool:
        """``True`` while the wrapped pool holds live workers."""
        return self.executor.warm

    def shutdown(self) -> None:
        """Release the wrapped pool's workers — only if this wrapper owns it."""
        if self.owns_executor:
            self.executor.shutdown()

    def __enter__(self) -> "SupervisedDispatch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- dispatch ------------------------------------------------------------------------

    def run(self, payloads: Sequence[ShardPayload]) -> list[tuple[GroupRunRecord, ...]]:
        if not payloads:
            self.last_report = DispatchReport(n_shards=0)
            return []
        builder = _ReportBuilder()
        try:
            return self._run_pooled(self.executor, payloads, builder)
        finally:
            # The report survives failure too: a propagated error still
            # leaves the full attempt chronology on last_report.
            self.last_report = builder.build(len(payloads))

    # -- pooled tier ---------------------------------------------------------------------

    def _run_pooled(
        self,
        pool: PersistentShardExecutor,
        payloads: Sequence[ShardPayload],
        builder: _ReportBuilder,
    ) -> list[tuple[GroupRunRecord, ...]]:
        policy = self.policy
        results: list = [None] * len(payloads)
        pending: dict[int, ShardPayload] = dict(enumerate(payloads))
        attempts = {index: payload.attempt for index, payload in pending.items()}
        first_attempt = dict(attempts)
        while pending:
            executor_pool = pool.ensure_pool()
            submitted: dict[int, tuple] = {}
            failures: list[tuple[int, object]] = []
            needs_rebuild = False
            for index, payload in sorted(pending.items()):
                try:
                    submitted[index] = (
                        executor_pool.submit(run_shard, payload),
                        time.perf_counter(),
                    )
                except BrokenProcessPool:
                    # The pool broke under an earlier submit of this round.
                    shard = payload.shard_index
                    error = WorkerCrashError(shard, "pool broke before submission")
                    builder.record(
                        shard, attempts[index], BACKEND_POOLED, OUTCOME_CRASH, 0.0, error
                    )
                    failures.append((index, error))
                    needs_rebuild = True
            for index, (future, started) in submitted.items():
                shard = pending[index].shard_index
                # The timeout budget is measured from the moment collection
                # *reaches* this future, not from submission.  Futures are
                # collected in submission order over a FIFO pool, so by the
                # time the loop gets here every earlier shard has resolved
                # and this shard is executing (or finished) — a shard queued
                # behind a saturated pool no longer burns its wall-clock
                # budget while waiting for a worker, which under concurrent
                # dispatches used to time out shards that never got to run.
                budget = policy.timeout
                try:
                    records = future.result(timeout=budget)
                except FutureTimeoutError:
                    elapsed = time.perf_counter() - started
                    error = ShardTimeoutError(shard, policy.timeout)
                    builder.record(
                        shard, attempts[index], BACKEND_POOLED, OUTCOME_TIMEOUT, elapsed, error
                    )
                    failures.append((index, error))
                    needs_rebuild = True  # the wedged worker must die
                except BrokenProcessPool as exc:
                    elapsed = time.perf_counter() - started
                    error = WorkerCrashError(shard, str(exc))
                    builder.record(
                        shard, attempts[index], BACKEND_POOLED, OUTCOME_CRASH, elapsed, error
                    )
                    failures.append((index, error))
                    needs_rebuild = True
                except Exception as exc:
                    elapsed = time.perf_counter() - started
                    builder.record(
                        shard, attempts[index], BACKEND_POOLED, OUTCOME_ERROR, elapsed, exc
                    )
                    failures.append((index, exc))
                else:
                    elapsed = time.perf_counter() - started
                    builder.record(shard, attempts[index], BACKEND_POOLED, OUTCOME_OK, elapsed)
                    results[index] = records
                    del pending[index]
            if needs_rebuild:
                # Self-heal: discard the poisoned pool without blocking on
                # wedged workers; the next round's ensure_pool() rebuilds.
                pool.kill()
                builder.rebuilds += 1
            if failures:
                # Cheap even without a rebuild: one probe attach per owned
                # segment, re-exporting (and rewriting pending handles for)
                # anything that vanished with the dead workers.
                mapping = self._heal_segments(builder)
                if mapping:
                    pending = {
                        index: _rewrite_payload(payload, mapping)
                        for index, payload in pending.items()
                    }
                    if not needs_rebuild:
                        # Retry workers must fork *after* the re-export so
                        # they inherit ownership of the fresh segments (a
                        # pre-fork worker's attach would unregister them
                        # from the fork-shared resource tracker).
                        pool.kill()
                        builder.rebuilds += 1
            backoff = 0.0
            for index, error in failures:
                attempts[index] += 1
                performed = attempts[index] - first_attempt[index]
                if performed > policy.max_retries:
                    payload = pending.pop(index)
                    results[index] = self._degrade(payload, attempts[index], builder, error)
                else:
                    pending[index] = replace(pending[index], attempt=attempts[index])
                    backoff = max(
                        backoff, policy.backoff_seconds(pending[index].shard_index, performed)
                    )
            if pending and backoff > 0:
                time.sleep(backoff)
        return results

    # -- recovery helpers ----------------------------------------------------------------

    def _heal_segments(self, builder: _ReportBuilder) -> dict[str, str]:
        """Re-export vanished shm segments; ``{old: new}`` for payload rewriting."""
        if self.registry is None or self.registry.closed:
            return {}
        mapping = self.registry.reexport_missing()
        builder.reexported_segments += len(mapping)
        return mapping

    def _degrade(
        self,
        payload: ShardPayload,
        attempt: int,
        builder: _ReportBuilder,
        cause: object,
    ) -> tuple[GroupRunRecord, ...]:
        """Last resort: the failing shard, serially, in-process.

        Bit-identical to a pooled success by the architecture invariant
        (same ``run_shard``, same FP order, merge untouched).  The fault
        plan is stripped first — degradation must be able to succeed, and a
        planned ``os._exit`` must never fire in the parent process.
        """
        shard = payload.shard_index
        if not self.policy.degrade:
            builder.degraded.add(shard)
            error = DispatchError(
                f"shard {shard} failed after {attempt} attempt(s) and degradation is disabled"
            )
            raise error from (cause if isinstance(cause, BaseException) else None)
        stripped = replace(payload, fault_plan=None, attempt=attempt)
        started = time.perf_counter()
        try:
            records = run_shard(stripped)
        except Exception as exc:
            builder.record(
                shard,
                attempt,
                BACKEND_DEGRADED,
                OUTCOME_ERROR,
                time.perf_counter() - started,
                exc,
            )
            builder.degraded.add(shard)
            raise
        builder.record(
            shard, attempt, BACKEND_DEGRADED, OUTCOME_OK, time.perf_counter() - started
        )
        builder.degraded.add(shard)
        return records


# -- executor registration -----------------------------------------------------------------------
# "supervised" = a SupervisedDispatch around a fresh persistent pool with the
# default policy.  Like "persistent", resolving the string builds a fresh
# instance; warmth across calls requires holding the instance (the
# ScalabilityEnvironment wraps its own memoised pool instead).

register_executor(
    EXECUTOR_SUPERVISED,
    lambda n_workers: SupervisedDispatch(
        PersistentShardExecutor(n_workers), owns_executor=True
    ),
    needs_workers=True,
)
