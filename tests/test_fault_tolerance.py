"""Chaos suite for the fault-tolerant dispatch supervisor.

Drives :class:`repro.parallel.SupervisedDispatch` through deterministic
injected faults — worker crashes (``os._exit``), raised exceptions and
stalls — and pins the three invariants the resilience layer promises:

* **bit-identical results**: every recovered dispatch returns exactly the
  serial reference records, for every fault mode and every shard count
  (recovery may change *where* a shard runs, never *what* it computes);
* **honest reporting**: the :class:`~repro.parallel.DispatchReport` records
  each attempt, retry, pool rebuild, segment re-export and degradation that
  actually happened;
* **no leaks**: `/dev/shm` segments are unlinked after every chaos run, the
  crashed-worker and stalled-worker cases included.

The fault plans are pure functions of (shard, task-position, attempt), so
every scenario here replays exactly — there is no flakiness budget.
"""

from __future__ import annotations

import time
from dataclasses import replace
from multiprocessing import shared_memory

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.core.affinity import AffinityColumns
from repro.core.consensus import make_consensus
from repro.core.greca import GrecaIndexFactory
from repro.exceptions import (
    AlgorithmError,
    ConfigurationError,
    DispatchError,
    InjectedFaultError,
)
from repro.parallel import (
    DispatchReport,
    ExecutionPolicy,
    FaultPlan,
    FaultSpec,
    GroupEvalTask,
    PersistentShardExecutor,
    SerialShardExecutor,
    SharedArrayRegistry,
    SupervisedDispatch,
    SupervisionPolicy,
    build_payloads,
    evaluate_tasks,
    executor_names,
    fault_plan_from_env,
    group_key,
    plan_shards,
    run_shard,
    summarise_reports,
    validate_executor_name,
)
from test_shm_lifecycle import assert_unlinked

#: Fast-retry policy for chaos runs: tiny backoff, generous shard budget.
FAST = dict(max_retries=2, backoff_base=0.001)

#: The environment's warm two-worker pool, bare and supervised.
PERSISTENT_2 = ExecutionPolicy(n_workers=2, executor="persistent")
SUPERVISED_2 = ExecutionPolicy(n_workers=2, executor="supervised")


def _make_factory(members, seed):
    rng = np.random.default_rng(seed)
    items = list(range(101, 141))
    aprefs = {
        member: {item: round(float(rng.uniform(0.0, 5.0)), 3) for item in items}
        for member in members
    }
    return GrecaIndexFactory(members=members, aprefs=aprefs)


@pytest.fixture(scope="module")
def workload():
    """Two groups x four k-values: eight tasks over two factories."""
    groups = {
        group_key([1, 2, 3]): _make_factory([1, 2, 3], seed=7),
        group_key([4, 5, 6]): _make_factory([4, 5, 6], seed=11),
    }
    statics = {
        group_key([1, 2, 3]): {(1, 2): 0.4, (1, 3): 0.1, (2, 3): 0.8},
        group_key([4, 5, 6]): {(4, 5): 0.6, (4, 6): 0.3, (5, 6): 0.2},
    }
    columns = {key: AffinityColumns.from_components(statics[key], {}, {}) for key in groups}
    tasks = [
        GroupEvalTask(
            group=key,
            k=k,
            consensus=make_consensus("AP"),
            affinity_ref=columns[key],
            n_periods=0,
            time_model="discrete",
        )
        for key in groups
        for k in (3, 5, 4, 6)
    ]
    return groups, tasks


@pytest.fixture(scope="module")
def reference(workload):
    """The serial reference records the recovered runs must reproduce exactly."""
    factories, tasks = workload
    return evaluate_tasks(tasks, factories)


def _supervised_run(workload, n_shards, fault_plan, policy):
    """One supervised dispatch over a fresh pool+registry; closes both."""
    factories, tasks = workload
    pool = PersistentShardExecutor(2)
    registry = SharedArrayRegistry()
    supervisor = SupervisedDispatch(pool, policy=policy, owns_executor=True)
    reports: list[DispatchReport] = []
    try:
        records = evaluate_tasks(
            tasks,
            factories,
            n_shards=n_shards,
            executor=supervisor,
            registry=registry,
            fault_plan=fault_plan,
            reports=reports,
        )
    finally:
        supervisor.shutdown()
        names = registry.segment_names
        registry.close()
    assert_unlinked(names)
    (report,) = reports
    return records, report


# -- the chaos matrix ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
@pytest.mark.parametrize("mode", ["crash", "raise", "stall"])
def test_supervised_dispatch_recovers_bit_identically(workload, reference, mode, n_shards):
    """Every fault mode, every shard count: recovery reproduces the serial records."""
    fault_shard = min(1, n_shards - 1)
    policy = SupervisionPolicy(
        timeout=1.0 if mode == "stall" else 30.0, **FAST
    )
    plan = FaultPlan(
        (FaultSpec(shard=fault_shard, position=0, mode=mode, fires=1, stall_seconds=6.0),)
    )
    records, report = _supervised_run(workload, n_shards, plan, policy)
    assert records == reference
    assert report.ok
    assert report.n_shards == n_shards
    assert report.retries >= 1
    assert not report.degraded  # one fire, two retries: recovery beats the budget
    outcomes = {attempt.outcome for attempt in report.attempts}
    if mode == "crash":
        assert "crash" in outcomes
        assert report.rebuilds >= 1
    elif mode == "stall":
        assert "timeout" in outcomes
        assert report.rebuilds >= 1  # the wedged worker was terminated
    else:
        assert "error" in outcomes
        assert report.rebuilds == 0  # a clean exception never poisons the pool
    # The failing shard's last attempt succeeded on the pooled backend.
    last = [a for a in report.attempts if a.shard == fault_shard][-1]
    assert last.outcome == "ok" and last.backend == "pooled"


def test_fault_that_outlives_the_budget_degrades_to_serial(workload, reference):
    """fires > max_retries: the shard degrades — and the records still match."""
    plan = FaultPlan((FaultSpec(shard=0, position=0, mode="raise", fires=99),))
    records, report = _supervised_run(
        workload, 2, plan, SupervisionPolicy(max_retries=1, backoff_base=0.001)
    )
    assert records == reference
    assert report.ok
    assert report.degraded == (0,)
    degraded = [a for a in report.attempts if a.backend == "serial-degraded"]
    assert [a.shard for a in degraded] == [0]
    assert degraded[0].outcome == "ok"


def test_crash_degradation_strips_the_fault_plan(workload, reference):
    """A crash plan outliving the budget must not ``os._exit`` the parent.

    The degraded serial re-run executes the payload in-process; if the fault
    plan still rode along, the planned crash would kill pytest itself.  The
    supervisor strips it, so this test *completing* is the assertion — the
    record check on top proves degradation stayed bit-identical.
    """
    plan = FaultPlan((FaultSpec(shard=0, position=0, mode="crash", fires=99),))
    records, report = _supervised_run(
        workload, 2, plan, SupervisionPolicy(max_retries=1, backoff_base=0.001)
    )
    assert records == reference
    # Shard 0 is planned; shard 1 degrades too (every crash round breaks the
    # shared pool under it) — collateral damage, recovered identically.
    assert 0 in report.degraded
    assert report.rebuilds >= 1


def test_degradation_disabled_raises_dispatch_error(workload):
    factories, tasks = workload
    plan = FaultPlan((FaultSpec(shard=0, position=0, mode="raise", fires=99),))
    pool = PersistentShardExecutor(2)
    registry = SharedArrayRegistry()
    supervisor = SupervisedDispatch(
        pool,
        policy=SupervisionPolicy(max_retries=1, backoff_base=0.001, degrade=False),
        owns_executor=True,
    )
    reports: list[DispatchReport] = []
    try:
        with pytest.raises(DispatchError) as excinfo:
            evaluate_tasks(
                tasks,
                factories,
                n_shards=2,
                executor=supervisor,
                registry=registry,
                fault_plan=plan,
                reports=reports,
            )
    finally:
        supervisor.shutdown()
        names = registry.segment_names
        registry.close()
    assert isinstance(excinfo.value.__cause__, InjectedFaultError)
    assert_unlinked(names)
    # The report still landed in the sink, with the full failure chronology.
    (report,) = reports
    assert not report.ok
    assert all(a.outcome == "error" for a in report.attempts if a.shard == 0)


def test_genuine_task_error_propagates_after_degradation(workload):
    """A deterministic task bug fails every tier — and surfaces as itself."""
    factories, tasks = workload
    poisoned = tasks + [replace(tasks[0], k=0)]  # Greca rejects k <= 0
    pool = PersistentShardExecutor(2)
    registry = SharedArrayRegistry()
    supervisor = SupervisedDispatch(
        pool, policy=SupervisionPolicy(max_retries=1, backoff_base=0.001), owns_executor=True
    )
    reports: list[DispatchReport] = []
    try:
        with pytest.raises(AlgorithmError):
            evaluate_tasks(
                poisoned,
                factories,
                n_shards=2,
                executor=supervisor,
                registry=registry,
                reports=reports,
            )
    finally:
        supervisor.shutdown()
        names = registry.segment_names
        registry.close()
    assert_unlinked(names)
    (report,) = reports
    assert not report.ok
    assert report.degraded  # the retry budget was honestly spent first
    assert any(a.backend == "serial-degraded" and a.outcome == "error" for a in report.attempts)


def test_multiple_faults_across_shards(workload, reference):
    """Independent faults in different shards all recover in one dispatch."""
    plan = FaultPlan(
        (
            FaultSpec(shard=0, position=1, mode="raise", fires=1),
            FaultSpec(shard=2, position=0, mode="raise", fires=2),
        )
    )
    records, report = _supervised_run(workload, 3, plan, SupervisionPolicy(**FAST))
    assert records == reference
    assert report.ok
    assert report.retries >= 3  # shard 0 once, shard 2 twice


# -- shared-memory self-healing -----------------------------------------------------------------


def test_registry_reexport_missing_recreates_vanished_segments(workload):
    factories, _ = workload
    registry = SharedArrayRegistry()
    old_names: list[str] = []
    try:
        handle = registry.export(next(iter(factories.values())))
        old_names = list(registry.segment_names)
        assert registry.reexport_missing() == {}  # nothing missing yet
        victim = shared_memory.SharedMemory(name=handle.matrix.segment)
        original = bytes(victim.buf)
        victim.unlink()
        victim.close()
        mapping = registry.reexport_missing()
        assert set(mapping) == {handle.matrix.segment}
        fresh_name = mapping[handle.matrix.segment]
        assert fresh_name in registry.segment_names
        # Byte-identical content under the fresh name, memoised handle rewritten.
        probe = shared_memory.SharedMemory(name=fresh_name)
        assert bytes(probe.buf) == original
        probe.close()
        rewritten = registry.export(next(iter(factories.values())))
        assert rewritten.matrix.segment == fresh_name
    finally:
        names = set(registry.segment_names) | set(old_names)
        registry.close()
    assert_unlinked(names)


def test_supervisor_heals_externally_unlinked_segments(workload, reference):
    """Vanished segments are re-exported mid-dispatch and the retry succeeds.

    Each supervisor wraps a fresh pool here, so retry workers fork fresh
    (empty caches) and genuinely re-attach through the healed handles.
    """
    factories, tasks = workload
    registry = SharedArrayRegistry()
    with SupervisedDispatch(
        PersistentShardExecutor(2), policy=SupervisionPolicy(**FAST), owns_executor=True
    ) as warmup:
        records = evaluate_tasks(
            tasks, factories, n_shards=2, executor=warmup, registry=registry
        )
    assert records == reference
    names_before = list(registry.segment_names)
    victim = shared_memory.SharedMemory(name=names_before[0])
    victim.unlink()  # an over-eager tracker / foreign cleanup nukes the file
    victim.close()
    reports: list[DispatchReport] = []
    with SupervisedDispatch(
        PersistentShardExecutor(2), policy=SupervisionPolicy(**FAST), owns_executor=True
    ) as supervisor:
        healed = evaluate_tasks(
            tasks,
            factories,
            n_shards=2,
            executor=supervisor,
            registry=registry,
            reports=reports,
        )
    (report,) = reports
    assert healed == reference
    assert report.ok
    assert report.reexported_segments >= 1
    names = set(names_before) | set(registry.segment_names)
    registry.close()
    assert_unlinked(names)


def test_supervision_keyword_wraps_any_backend(workload, reference):
    """evaluate_tasks(supervision=...) supervises the pool it builds itself."""
    factories, tasks = workload
    reports: list[DispatchReport] = []
    plan = FaultPlan((FaultSpec(shard=0, position=0, mode="raise", fires=1),))
    records = evaluate_tasks(
        tasks,
        factories,
        n_shards=2,
        supervision=SupervisionPolicy(**FAST),
        fault_plan=plan,
        reports=reports,
    )
    (report,) = reports
    assert records == reference
    assert report.ok and report.retries >= 1


# -- the harness itself -------------------------------------------------------------------------


def test_fault_plan_from_string_and_env(monkeypatch):
    plan = FaultPlan.from_string("crash:0:0;raise:1:2:3", stall_seconds=9.0)
    assert plan.specs[0].mode == "crash" and plan.specs[0].fires == 1
    assert plan.specs[1] == FaultSpec(shard=1, position=2, mode="raise", fires=3, stall_seconds=9.0)
    assert plan.spec_at(1, 2).fires == 3
    assert plan.spec_at(5, 5) is None
    with pytest.raises(ConfigurationError):
        FaultPlan.from_string("explode:0:0")
    with pytest.raises(ConfigurationError):
        FaultPlan.from_string("crash:0")
    with pytest.raises(ConfigurationError):
        FaultPlan.from_string(";")
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    assert fault_plan_from_env() is None
    monkeypatch.setenv("REPRO_FAULT_PLAN", "stall:0:1")
    monkeypatch.setenv("REPRO_FAULT_STALL_SECONDS", "2.5")
    plan = fault_plan_from_env()
    assert plan.specs[0].mode == "stall" and plan.specs[0].stall_seconds == 2.5


def test_fault_plan_trigger_respects_fires_and_attempt():
    plan = FaultPlan((FaultSpec(shard=0, position=0, mode="raise", fires=2),))
    with pytest.raises(InjectedFaultError):
        plan.trigger(0, 0, attempt=0)
    with pytest.raises(InjectedFaultError):
        plan.trigger(0, 0, attempt=1)
    plan.trigger(0, 0, attempt=2)  # beyond fires: silent
    plan.trigger(1, 0, attempt=0)  # other coordinates: silent


def test_backoff_is_deterministic_bounded_and_shard_decorrelated():
    policy = SupervisionPolicy(backoff_base=0.05, backoff_cap=0.2, jitter=0.25, seed=3)
    assert policy.backoff_seconds(1, 1) == policy.backoff_seconds(1, 1)
    assert policy.backoff_seconds(1, 1) != policy.backoff_seconds(2, 1)
    for shard in range(4):
        for attempt in range(1, 6):
            backoff = policy.backoff_seconds(shard, attempt)
            assert 0.0 < backoff <= 0.2 * 1.25
    assert SupervisionPolicy(backoff_base=0.0).backoff_seconds(0, 1) == 0.0


def test_policy_and_spec_validation():
    with pytest.raises(ConfigurationError):
        SupervisionPolicy(timeout=0.0)
    with pytest.raises(ConfigurationError):
        SupervisionPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError):
        FaultSpec(shard=0, position=0, mode="nope")
    with pytest.raises(ConfigurationError):
        FaultSpec(shard=-1, position=0, mode="raise")
    with pytest.raises(ConfigurationError):
        FaultSpec(shard=0, position=0, mode="raise", fires=0)


def test_supervisors_do_not_nest():
    """A supervisor wraps a warm pool: not another supervisor, not an in-process executor."""
    inner = SupervisedDispatch(PersistentShardExecutor(2))
    with pytest.raises(ConfigurationError):
        SupervisedDispatch(inner)
    with pytest.raises(ConfigurationError):
        SupervisedDispatch(SerialShardExecutor())


def test_report_properties_and_summaries(workload, reference):
    plan = FaultPlan((FaultSpec(shard=0, position=0, mode="raise", fires=1),))
    _, report = _supervised_run(workload, 2, plan, SupervisionPolicy(**FAST))
    assert report.n_attempts == len(report.attempts)
    seconds = report.shard_seconds()
    assert set(seconds) == {0, 1} and all(value >= 0.0 for value in seconds.values())
    assert "ok" in report.format_summary()
    line = summarise_reports([report, report])
    assert "2 dispatch(es)" in line
    assert summarise_reports([]) == "supervised dispatch: no dispatches recorded"


def test_supervised_registers_at_the_single_choice_point():
    assert "supervised" in executor_names()
    assert validate_executor_name("supervised") == "supervised"
    with pytest.raises(ValueError, match="'supervised'"):
        validate_executor_name("definitely-not-a-backend")


def test_supervised_string_backend_round_trips(workload, reference):
    """executor='supervised' resolves, runs, recovers and shuts down cleanly."""
    factories, tasks = workload
    reports: list[DispatchReport] = []
    plan = FaultPlan((FaultSpec(shard=1, position=0, mode="raise", fires=1),))
    records = evaluate_tasks(
        tasks,
        factories,
        n_shards=2,
        executor="supervised",
        fault_plan=plan,
        reports=reports,
    )
    (report,) = reports
    assert records == reference
    assert report.ok and report.retries >= 1


# -- satellite: the persistent pool after a break ------------------------------------------------


def _crash_payloads(workload, n_shards):
    factories, tasks = workload
    payloads = build_payloads(plan_shards(len(tasks), n_shards), tasks, factories)
    plan = FaultPlan((FaultSpec(shard=0, position=0, mode="crash", fires=99),))
    return [replace(payload, fault_plan=plan) for payload in payloads], payloads


def test_persistent_pool_recovers_without_manual_shutdown(workload):
    """Satellite regression: a broken pool is lazily recreated by the next run()."""
    crashing, clean = _crash_payloads(workload, 2)
    pool = PersistentShardExecutor(2)
    try:
        with pytest.raises(BrokenProcessPool):
            pool.run(crashing)
        assert not pool.warm  # the poisoned pool was discarded, not kept
        records = pool.run(clean)  # no shutdown() in between
        assert len(records) == 2
    finally:
        pool.shutdown()


# -- satellite: the environment under faults -----------------------------------------------------


@pytest.fixture(scope="module")
def small_environment():
    """A scaled-down ScalabilityEnvironment (seconds, not minutes, to build)."""
    from repro.experiments.scalability import ScalabilityConfig, ScalabilityEnvironment

    config = ScalabilityConfig(
        n_users=40,
        n_items=300,
        n_ratings=3_000,
        n_participants=12,
        n_groups=2,
        group_size=3,
    )
    environment = ScalabilityEnvironment(config)
    yield environment
    environment.close()


def test_environment_close_is_idempotent_and_reopens(small_environment):
    env = small_environment
    groups = env.random_groups()
    serial = env.run_records(groups)
    parallel = env.run_records(groups, policy=PERSISTENT_2)
    assert parallel == serial
    names = env._shared_registry().segment_names
    env.close()
    env.close()  # idempotent: a second close must be a no-op, not an error
    assert_unlinked(names)
    # ...and the next parallel dispatch lazily recreates pool and registry.
    again = env.run_records(groups, policy=PERSISTENT_2)
    assert again == serial


def test_environment_survives_mid_sweep_worker_crash(small_environment):
    """An unsupervised crash propagates — and the next evaluate just works."""
    env = small_environment
    groups = env.random_groups()
    serial = env.run_records(groups)
    tasks = [env.task_for(group) for group in groups]
    crash = FaultPlan((FaultSpec(shard=0, position=0, mode="crash", fires=99),))
    with pytest.raises(BrokenProcessPool):
        env.evaluate(tasks, policy=PERSISTENT_2, fault_plan=crash)
    # No manual close() in between: the broken pool was discarded by its own
    # handler and the environment's registry is still serving segments.
    records = env.evaluate(tasks, policy=PERSISTENT_2)
    assert records == serial


def test_environment_supervised_sweep_records_reports(small_environment):
    from repro.experiments.scalability import SweepPoint

    env = small_environment
    groups = tuple(tuple(group) for group in env.random_groups())
    points = [SweepPoint(groups=groups, k=3), SweepPoint(groups=groups, k=5)]
    serial = env.run_sweep(points)
    env.dispatch_reports.clear()
    plan = FaultPlan((FaultSpec(shard=1, position=0, mode="raise", fires=1),))
    supervised = env.run_sweep(points, policy=SUPERVISED_2, fault_plan=plan)
    assert supervised == serial
    report = env.last_dispatch_report
    assert report is not None and report.ok and report.retries >= 1
    assert "1 dispatch(es)" in summarise_reports(env.dispatch_reports)


def test_environment_supervised_crash_mid_sweep_recovers(small_environment):
    """The supervised sweep absorbs a worker crash the persistent sweep cannot."""
    env = small_environment
    groups = env.random_groups()
    serial = env.run_records(groups)
    tasks = [env.task_for(group) for group in groups]
    crash = FaultPlan((FaultSpec(shard=0, position=0, mode="crash", fires=1),))
    env.dispatch_reports.clear()
    records = env.evaluate(tasks, policy=SUPERVISED_2, fault_plan=crash)
    assert records == serial
    report = env.last_dispatch_report
    assert report.ok and report.rebuilds >= 1
    # The warm pool the supervisor wrapped belongs to the environment and
    # was rebuilt in place; a plain persistent dispatch reuses it.
    assert env.evaluate(tasks, policy=PERSISTENT_2) == serial


def test_supervised_crash_during_epoch_adoption_recovers_on_new_epoch():
    """A worker crash on the first post-delta dispatch heals onto the new epoch.

    The crash fires while the warm workers are adopting a freshly applied
    :class:`~repro.updates.deltas.RatingDelta` — stale-epoch caches being
    purged in-worker, retired segments re-exported on demand — so the
    supervisor's rebuild + retry must land on the *new* epoch's substrate:
    the merged records equal the post-delta serial reference bit-for-bit,
    never the pre-delta one resurrected from a stale cache.
    """
    from repro.experiments.scalability import ScalabilityConfig, ScalabilityEnvironment
    from repro.updates import random_deltas

    config = ScalabilityConfig(
        n_users=40,
        n_items=300,
        n_ratings=3_000,
        n_participants=12,
        n_groups=2,
        group_size=3,
    )
    env = ScalabilityEnvironment(config)
    try:
        groups = env.random_groups()
        serial_before = env.run_records(groups)
        # Warm the supervised tier (pool + shm exports) on epoch 0.
        assert env.run_records(groups, policy=SUPERVISED_2) == serial_before
        delta = random_deltas(env.ratings, env.social, env.timeline, n_deltas=1, seed=3)[0]
        report = env.apply_delta(delta)
        assert report.epoch == 1 and report.touched_users
        serial_after = env.run_records(groups)
        crash = FaultPlan((FaultSpec(shard=0, position=0, mode="crash", fires=1),))
        env.dispatch_reports.clear()
        records = env.run_records(groups, policy=SUPERVISED_2, fault_plan=crash)
        assert records == serial_after
        dispatch = env.last_dispatch_report
        assert dispatch.ok and dispatch.rebuilds >= 1
        # The healed pool keeps serving the new epoch without further drama.
        assert env.run_records(groups, policy=PERSISTENT_2) == serial_after
    finally:
        env.close()


def test_kill_discards_a_wedged_pool_promptly(workload):
    """kill() must never block on a stalled worker (shutdown(wait=True) would)."""
    factories, tasks = workload
    payloads = build_payloads(plan_shards(len(tasks), 1), tasks, factories)
    plan = FaultPlan((FaultSpec(shard=0, position=0, mode="stall", fires=1, stall_seconds=60.0),))
    wedged = replace(payloads[0], fault_plan=plan)
    pool = PersistentShardExecutor(1)
    try:
        future = pool.ensure_pool().submit(run_shard, wedged)
        time.sleep(0.3)  # let the worker pick the payload up and enter the stall
        started = time.perf_counter()
        pool.kill()
        assert time.perf_counter() - started < 5.0
        assert not pool.warm
        with pytest.raises(BrokenProcessPool):
            future.result(timeout=10.0)
        records = pool.run(payloads)  # and the executor is reusable
        assert len(records) == 1
    finally:
        pool.shutdown()


def test_queued_shard_does_not_burn_timeout_budget_while_waiting(workload, reference):
    """Stall-behind-queue: a shard queued behind a saturated pool keeps its budget.

    One worker, two shards, both stalling 0.9s on their first task, a 1.5s
    per-shard timeout.  Shard 1 spends ~0.9s queued behind shard 0 before a
    worker even picks it up; a submission-anchored budget (the old
    accounting) had already burnt that wait and preempted shard 1 mid-run —
    a spurious timeout, retry and pool rebuild for a shard that was merely
    *queued*, which is exactly what concurrent service dispatches provoke.
    The budget now starts when the shard reaches the worker, so neither
    shard times out and the dispatch is retry-free.
    """
    factories, tasks = workload
    plan = FaultPlan(
        (
            FaultSpec(shard=0, position=0, mode="stall", fires=1, stall_seconds=0.9),
            FaultSpec(shard=1, position=0, mode="stall", fires=1, stall_seconds=0.9),
        )
    )
    pool = PersistentShardExecutor(1)  # saturated: shard 1 must queue
    registry = SharedArrayRegistry()
    supervisor = SupervisedDispatch(
        pool, policy=SupervisionPolicy(timeout=1.5, **FAST), owns_executor=True
    )
    reports: list[DispatchReport] = []
    try:
        records = evaluate_tasks(
            tasks,
            factories,
            n_shards=2,
            executor=supervisor,
            registry=registry,
            fault_plan=plan,
            reports=reports,
        )
    finally:
        supervisor.shutdown()
        names = registry.segment_names
        registry.close()
    assert_unlinked(names)
    assert records == reference
    (report,) = reports
    assert report.ok
    outcomes = [attempt.outcome for attempt in report.attempts]
    assert "timeout" not in outcomes, outcomes
    assert report.retries == 0
    assert report.rebuilds == 0
