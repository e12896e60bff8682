"""Shard executors: where (and how) shard payloads actually run.

Two concrete executors share one tiny interface — a list of
:class:`~repro.parallel.worker.ShardPayload` values in, one record tuple per
shard out, *in shard order*:

* :class:`SerialShardExecutor` runs every shard in-process.  It exercises the
  full shard/merge machinery without any pickling or process management,
  which makes it the deterministic harness the shard-plan-invariance tests
  drive (and a useful debugging backend: drop-in, single-threaded,
  breakpoint-friendly).
* :class:`PersistentShardExecutor` (``executor="persistent"``) keeps one
  warm :class:`concurrent.futures.ProcessPoolExecutor` alive across calls.
  Payloads carry column-store descriptors (see :mod:`repro.parallel.shm`);
  records are pickled back and collected in submission order, so shard
  order — and therefore the merged task order — never depends on worker
  scheduling.  A
  :class:`~repro.experiments.scalability.ScalabilityEnvironment` holds one
  instance per worker count, so the figure 4–8 drivers pay worker spawn —
  and, with the worker-side factory cache, the substrate shipment — once
  per environment instead of once per driver.  ``shutdown()`` (or the
  context manager, or ``ScalabilityEnvironment.close``) releases the
  workers; a pool broken by a dead worker is discarded so the next call
  starts a fresh one.  A pool resolved for a single call is shut down by
  :func:`~repro.parallel.evaluation.evaluate_tasks` on the way out.

``executor=`` strings are validated in exactly one place:
:func:`validate_executor_name`, which raises :class:`ValueError` listing the
valid backends.  That list is *derived* from the executor registry
(:func:`register_executor` / :func:`executor_names`) rather than maintained
by hand, so the ``supervised`` fault-tolerant wrapper of
:mod:`repro.parallel.resilience`, which registers itself on import, appears
in the error text automatically.  Both :func:`resolve_executor` (the library
path) and the runner's ``--executor`` flag go through it, so an unknown name
fails at the choice point instead of deep inside ``evaluate_tasks``.  The
whole knob bundle lives in one frozen
:class:`~repro.parallel.policy.ExecutionPolicy`.

The context-managed shared-memory registry that guarantees segment unlink on
exit/failure lives in :mod:`repro.parallel.shm` and is re-exported here as
:class:`SharedArrayRegistry` — the executors and the registry are the two
halves of the persistent zero-copy setup.
"""

from __future__ import annotations

import abc
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Callable, Sequence

from repro.exceptions import ConfigurationError
from repro.parallel.shm import SharedArrayRegistry  # noqa: F401  (re-export)

# perfbench/trace.py swaps a traced wrapper into this module's ``run_shard``
# before the pool forks, so call it through the module global only.
from repro.parallel.worker import GroupRunRecord, ShardPayload, run_shard

#: Executor spellings accepted by the ``executor=`` knobs.
EXECUTOR_SERIAL = "serial"
EXECUTOR_PERSISTENT = "persistent"


@dataclass(frozen=True)
class _ExecutorEntry:
    """One registered backend: how to build it and whether it fans out."""

    builder: Callable[[int | None], "ShardExecutor"]
    needs_workers: bool


#: The single registry behind ``executor=`` strings.  Registration order is
#: presentation order in the :class:`ValueError` text, so the built-in
#: backends register at the bottom of this module and extensions append.
_EXECUTOR_BUILDERS: "dict[str, _ExecutorEntry]" = {}


def register_executor(
    name: str,
    builder: Callable[[int | None], "ShardExecutor"],
    *,
    needs_workers: bool,
) -> None:
    """Register an ``executor=`` spelling with the single validation choice point.

    ``builder`` receives the caller's ``n_workers`` (``None`` allowed only
    when ``needs_workers`` is false) and returns a fresh executor instance.
    Registering is what puts a backend into :func:`executor_names` — and
    therefore into the :class:`ValueError` message — so new modes cannot
    drift out of the error text.
    """
    _EXECUTOR_BUILDERS[name] = _ExecutorEntry(builder=builder, needs_workers=needs_workers)


def executor_names() -> tuple[str, ...]:
    """Every registered ``executor=`` spelling, in registration order."""
    return tuple(_EXECUTOR_BUILDERS)


def available_cpus() -> int:
    """The number of CPUs this process may actually use.

    Affinity-mask aware where the platform exposes it (containers and CI
    runners often grant fewer cores than ``os.cpu_count`` reports), falling
    back to the raw count.  The paper-scale summary and the benchmark
    records report this one value.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def validate_executor_name(name: str) -> str:
    """The single choice point for ``executor=`` strings.

    Raises :class:`ValueError` naming the valid backends — derived from the
    executor registry, never hand-maintained; both :func:`resolve_executor`
    and ``runner.py --executor`` route through here, so an unknown spelling
    never reaches ``evaluate_tasks``.
    """
    if name not in _EXECUTOR_BUILDERS:
        raise ValueError(
            f"unknown executor {name!r}: valid backends are "
            + ", ".join(repr(valid) for valid in executor_names())
        )
    return name


class ShardExecutor(abc.ABC):
    """Runs shard payloads and returns their records in shard order."""

    #: Whether payloads cross a process boundary.  ``evaluate_tasks`` ships
    #: column-store descriptors exactly when this is ``True``.
    ships_payloads = False

    @abc.abstractmethod
    def run(self, payloads: Sequence[ShardPayload]) -> list[tuple[GroupRunRecord, ...]]:
        """Evaluate every payload; element ``s`` holds shard ``s``'s records."""


class SerialShardExecutor(ShardExecutor):
    """In-process executor: the sharded pipeline without processes."""

    def run(self, payloads: Sequence[ShardPayload]) -> list[tuple[GroupRunRecord, ...]]:
        return [run_shard(payload) for payload in payloads]


class PersistentShardExecutor(ShardExecutor):
    """A warm process pool reused across dispatches (``executor="persistent"``).

    The pool is created lazily on the first :meth:`run` and survives until
    :meth:`shutdown` (or context exit), so successive figure-driver calls
    inside one environment pay worker spawn once.  Combined with descriptor
    shipment and the worker-side factory cache this is what amortises the
    whole substrate shipment to once per environment.  A pool broken by a
    dead worker is discarded, so the next dispatch transparently starts a
    fresh one.

    Pool lifecycle is thread-safe: concurrent dispatches (the serving layer
    routes many client requests onto one memoised pool) may race a dead
    pool's teardown against its rebuild, and an unserialized
    check-then-create in :meth:`ensure_pool` would build two pools — the
    loser overwritten and orphaned together with its worker processes and
    ``/dev/shm`` attachments.  A single lock covers every ``_pool``
    transition (create, kill, shutdown), so exactly one thread rebuilds and
    every other thread reuses its pool.
    """

    ships_payloads = True

    def __init__(self, n_workers: int) -> None:
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        self.n_workers = n_workers
        self._pool: ProcessPoolExecutor | None = None
        self._lifecycle = threading.Lock()

    @property
    def warm(self) -> bool:
        """``True`` while a worker pool is alive and reusable."""
        return self._pool is not None

    def ensure_pool(self) -> ProcessPoolExecutor:
        """The live worker pool, created lazily (at most once across threads).

        Public because the dispatch supervisor
        (:class:`repro.parallel.resilience.SupervisedDispatch`) submits
        shard futures individually to enforce per-shard timeouts.

        The parent's resource tracker is started first: a worker forked
        before it exists inherits none, and its first segment attach would
        launch a private tracker — one extra process per worker.
        """
        with self._lifecycle:
            if self._pool is None:
                resource_tracker.ensure_running()
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
            return self._pool

    def run(self, payloads: Sequence[ShardPayload]) -> list[tuple[GroupRunRecord, ...]]:
        if not payloads:
            return []
        pool = self.ensure_pool()
        try:
            futures = [pool.submit(run_shard, payload) for payload in payloads]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            # A dead worker poisons the whole pool.  Discard it with the
            # non-blocking teardown — ``shutdown(wait=True)`` can hang
            # forever when the break coexists with a *wedged* (stalled, not
            # dead) worker — so the executor is always left in a consistent,
            # lazily-recreatable state: the next run() starts a fresh pool
            # without any manual shutdown() in between.
            self.kill()
            raise

    def kill(self) -> None:
        """Forcibly discard the pool without ever blocking on its workers.

        Terminates worker processes outright (a worker wedged in an
        injected stall — or a real infinite loop — never finishes its task,
        so a graceful ``shutdown(wait=True)`` would deadlock), then detaches
        from the executor with ``wait=False``.  Used by the broken-pool
        handler above and by the dispatch supervisor's self-healing rebuild;
        the next :meth:`run` lazily creates a fresh pool.
        """
        with self._lifecycle:
            pool = self._pool
            self._pool = None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # already dead / already reaped
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pool already broken beyond shutdown
            pass

    def shutdown(self) -> None:
        """Release the worker processes; the next :meth:`run` starts fresh."""
        with self._lifecycle:
            pool = self._pool
            self._pool = None
        if pool is not None:
            # The blocking wait happens outside the lock so a concurrent
            # ensure_pool() is never stalled behind worker teardown.
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "PersistentShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


#: perfbench/trace.py times ``ProcessShardExecutor.run`` by name; the alias
#: keeps that name resolvable.
ProcessShardExecutor = PersistentShardExecutor


def resolve_executor(
    executor: ShardExecutor | str | None, n_workers: int | None
) -> ShardExecutor:
    """Resolve the user-facing ``executor=`` knob into a :class:`ShardExecutor`.

    ``None`` picks a fresh persistent pool (the only reason to reach the
    sharded path is to fan out); strings select by name (unknown names raise
    :class:`ValueError` from :func:`validate_executor_name`); instances pass
    through.  The process-based backends demand an explicit worker count — a
    silent one-worker pool would pickle the whole workload into a single
    subprocess for zero parallelism, which is never what the caller meant.

    Resolving builds a *fresh* executor; persistence across calls requires
    the caller to hold the instance (``ScalabilityEnvironment`` memoises one
    per worker count).  ``evaluate_tasks`` shuts down any pool it resolved
    itself, so a string never leaks worker processes.
    """
    if isinstance(executor, ShardExecutor):
        return executor
    name = EXECUTOR_PERSISTENT if executor is None else validate_executor_name(executor)
    entry = _EXECUTOR_BUILDERS[name]
    if entry.needs_workers and n_workers is None:
        raise ConfigurationError(
            f"the {name} executor needs an explicit "
            "worker count: pass n_workers (or an executor instance)"
        )
    return entry.builder(n_workers)


# -- built-in backend registrations --------------------------------------------------------------
# Registration order is the order the ValueError text lists backends in;
# extensions (repro.parallel.resilience's "supervised") append on import.

register_executor(EXECUTOR_SERIAL, lambda n_workers: SerialShardExecutor(), needs_workers=False)
register_executor(
    EXECUTOR_PERSISTENT,
    lambda n_workers: PersistentShardExecutor(n_workers),
    needs_workers=True,
)
