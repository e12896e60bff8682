"""Concurrency regression suite for the pool / registry / environment layer.

The serving layer (:mod:`repro.service`) is the first caller that drives
one environment from multiple threads at once.  These tests pin the races
that surfaced under that load:

* ``PersistentShardExecutor.ensure_pool()`` raced ``kill()`` and itself —
  two concurrent dispatches could both observe a dead pool and rebuild it
  twice, orphaning a ``ProcessPoolExecutor`` (and its worker processes and
  /dev/shm attachments) that nothing would ever shut down;
* ``SharedArrayRegistry.export()`` raced its ``id()``-memo — two threads
  exporting the same memoised factory packed its arrays into two segments,
  the loser lingering unmemoised until ``close()``;
* the environment's factory/pool/registry memos had the same
  check-then-set shape, and its live factory dict used to be iterated by a
  dispatch while ``task_for`` inserted into it.

Every test here fails deterministically (or near-deterministically, with
barriers maximising the race window) against the unlocked code.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.greca import GrecaIndexFactory
from repro.experiments.scalability import ScalabilityConfig, ScalabilityEnvironment
from repro.parallel import ExecutionPolicy, PersistentShardExecutor, SharedArrayRegistry
from repro.parallel import pool as pool_module
from test_shm_lifecycle import assert_unlinked

#: The environment's warm two-worker pool.
PERSISTENT_2 = ExecutionPolicy(n_workers=2, executor="persistent")


class _SlowRecordingPool:
    """ProcessPoolExecutor stand-in whose construction is slow and counted.

    The sleep inside ``__init__`` holds the check-then-set window open: an
    unlocked ``ensure_pool`` racing itself is then guaranteed to build (and
    orphan) one pool per thread.
    """

    instances: list["_SlowRecordingPool"] = []

    def __init__(self, max_workers=None):
        time.sleep(0.15)
        type(self).instances.append(self)
        self.max_workers = max_workers
        self._processes = {}
        self.shutdowns = 0

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns += 1


@pytest.fixture
def slow_pool_class(monkeypatch):
    _SlowRecordingPool.instances = []
    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _SlowRecordingPool)
    return _SlowRecordingPool


def _race(n_threads, target):
    """Run ``target`` on N threads released together; re-raise any failure."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def runner():
        barrier.wait()
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=runner) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def test_ensure_pool_builds_exactly_once_across_threads(slow_pool_class):
    """Racing ensure_pool() calls must share one pool, not orphan duplicates."""
    executor = PersistentShardExecutor(2)
    seen = []
    _race(4, lambda: seen.append(executor.ensure_pool()))
    assert len(slow_pool_class.instances) == 1
    assert all(pool is slow_pool_class.instances[0] for pool in seen)


def test_kill_then_racing_rebuilds_leave_no_orphan(slow_pool_class):
    """After kill(), concurrent dispatches agree on a single replacement pool."""
    executor = PersistentShardExecutor(2)
    executor.ensure_pool()
    executor.kill()
    _race(4, executor.ensure_pool)
    # One original + one replacement; shutdown() reaches the replacement.
    assert len(slow_pool_class.instances) == 2
    executor.shutdown()
    assert slow_pool_class.instances[-1].shutdowns >= 1
    assert not executor.warm


def test_registry_export_race_creates_one_segment():
    """Concurrent export() of one memoised factory must share one segment."""
    rng = np.random.default_rng(3)
    items = list(range(201, 241))
    factory = GrecaIndexFactory(
        members=[1, 2, 3],
        aprefs={
            member: {item: round(float(rng.uniform(0.0, 5.0)), 3) for item in items}
            for member in [1, 2, 3]
        },
    )
    registry = SharedArrayRegistry()
    handles = []
    try:
        _race(8, lambda: handles.append(registry.export(factory)))
        assert len(set(handles)) == 1
        assert len(registry.segment_names) == 1
    finally:
        names = registry.segment_names
        registry.close()
    assert_unlinked(names)


@pytest.fixture(scope="module")
def shared_environment():
    env = ScalabilityEnvironment(
        ScalabilityConfig(
            n_users=40,
            n_items=300,
            n_ratings=3_000,
            n_participants=12,
            n_groups=2,
            group_size=3,
        )
    )
    yield env
    env.close()


def test_two_threads_dispatching_through_one_environment(shared_environment):
    """The ISSUE's scenario: two threads share the memoised pool and registry.

    Both dispatch the same workload through ``executor="persistent"``
    simultaneously; both must come back bit-identical to the serial
    reference, the environment must hold exactly one pool per worker count
    and one registry, and close() must leave /dev/shm empty.
    """
    env = shared_environment
    groups = env.random_groups()
    tasks = [env.task_for(group) for group in groups]
    serial = env.evaluate(tasks)
    results = []
    _race(
        2,
        lambda: results.append(env.evaluate(tasks, policy=PERSISTENT_2)),
    )
    assert len(results) == 2
    assert all(records == serial for records in results)
    assert list(env._persistent_pools) == [2]
    names = env.shm_segment_names()
    assert names  # the dispatches actually shipped through shared memory
    env.close()
    assert_unlinked(names)


def test_task_for_concurrent_with_dispatch(shared_environment):
    """task_for() inserting factories must not break an in-flight dispatch.

    The dispatch snapshots the factory map; without the snapshot, the
    factory-warming loop iterating the live dict while another thread
    inserts raises ``RuntimeError: dictionary changed size during
    iteration`` intermittently.
    """
    env = shared_environment
    base_groups = env.random_groups()
    tasks = [env.task_for(group) for group in base_groups]
    serial = env.evaluate(tasks)
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            # Fresh groups every round: each task_for inserts a new factory
            # into the memo the dispatch thread is concurrently reading.
            for group in env.random_groups(2):
                env.task_for(group)

    churner = threading.Thread(target=churn)
    churner.start()
    try:
        for _ in range(5):
            assert env.evaluate(tasks, policy=PERSISTENT_2) == serial
    finally:
        stop.set()
        churner.join()
