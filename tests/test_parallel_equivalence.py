"""Serial ≡ parallel equivalence of the sharded group-evaluation layer.

The sharded layer (:mod:`repro.parallel`) must be *observationally
invisible*: for any shard count, any executor backend and any partition of
the tasks, the merged records — %SA values, sequential/random access counts,
top-k items, stopping reasons, round counts — must be bit-for-bit the serial
reference sequence.  This suite pins that down at three levels:

* **engine level** — the golden grid of :mod:`engine_grid` replayed through
  :func:`repro.parallel.evaluate_tasks` at shard counts {1, 2, 3, 7}, with
  the in-process executor (objects handed over as they are, or shipped as
  column-store descriptors like a process pool gets them), the persistent
  pool and both storage backends (shared memory and mmap spool files),
  against a serial :class:`~repro.core.greca.Greca` reference run;
* **plan level** — seeded property cases: *arbitrary* partitions of the task
  indices (shuffled, uneven, non-contiguous) merge to exactly the serial
  sequence, so the planner's particular slicing policy is irrelevant to
  correctness;
* **environment level** — :class:`ScalabilityEnvironment` measurements
  (``average_percent_sa``, ``run_records`` across periods / item subsets /
  consensus functions, ``run_quick_smoke``, the figure 6/8 drivers) under
  a sharded :class:`~repro.parallel.ExecutionPolicy` produce the exact
  serial statistics, standard errors included.

Float equality here is exact (``==``), never approximate: the merger restores
task order before anything is summed, so there is no legitimate source of
floating-point divergence.
"""

from __future__ import annotations

import os
import random

import pytest

from engine_grid import GRECA_CASES, greca_case_inputs

from repro.core.affinity import AffinityColumns
from repro.core.consensus import make_consensus
from repro.core.greca import Greca, GrecaIndex, GrecaIndexFactory
from repro.exceptions import ConfigurationError
from repro.experiments import figure6, figure8
from repro.experiments.scalability import (
    ScalabilityConfig,
    ScalabilityEnvironment,
    run_quick_smoke,
    summarize_percent_sa,
)
from repro.parallel import (
    ExecutionPolicy,
    GroupEvalTask,
    PersistentShardExecutor,
    SerialShardExecutor,
    ShardPayload,
    ShardPlan,
    SharedArrayRegistry,
    build_payloads,
    evaluate_tasks,
    group_key,
    materialise_factory,
    merge_shard_records,
    plan_shards,
    record_from_result,
    resolve_executor,
    run_shard,
)

#: Shard counts required by the acceptance criteria.
SHARD_COUNTS = (1, 2, 3, 7)


class ShippingSerialExecutor(SerialShardExecutor):
    """In-process executor whose payloads ship by descriptor, as a pool's do.

    Exercises export → descriptor → reattach without any process in between,
    so a divergence it shows is a shipment bug, not a scheduling one.
    """

    ships_payloads = True


def fan_out(n_workers: int, **knobs) -> ExecutionPolicy:
    """A sharded policy over ``n_workers`` workers."""
    return ExecutionPolicy(n_workers=n_workers, **knobs)


#: Seeds for the shard-plan invariance property cases.
PLAN_SEEDS = tuple(range(10))


# -- shard planner ------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n_tasks,n_shards",
    [(1, 1), (5, 1), (5, 2), (5, 5), (5, 7), (16, 3), (16, 7), (100, 7), (0, 3)],
)
def test_plan_shards_is_a_balanced_contiguous_partition(n_tasks, n_shards):
    plan = plan_shards(n_tasks, n_shards)
    # A true partition in task order...
    assert [i for shard in plan.shards for i in shard] == list(range(n_tasks))
    # ...with no empty shards, at most n_shards of them...
    assert plan.n_shards == min(n_shards, n_tasks)
    assert all(len(shard) > 0 for shard in plan.shards)
    # ...balanced to within one task.
    if plan.n_shards:
        sizes = plan.shard_sizes()
        assert max(sizes) - min(sizes) <= 1


def test_plan_shards_rejects_bad_counts():
    with pytest.raises(ConfigurationError):
        plan_shards(4, 0)
    with pytest.raises(ConfigurationError):
        plan_shards(-1, 2)


def test_shard_plan_rejects_non_partitions():
    with pytest.raises(ConfigurationError):
        ShardPlan(n_tasks=3, shards=((0, 1), (1, 2)))  # duplicate index
    with pytest.raises(ConfigurationError):
        ShardPlan(n_tasks=3, shards=((0,), (2,)))  # missing index
    with pytest.raises(ConfigurationError):
        ShardPlan(n_tasks=2, shards=((0, 1, 2),))  # out of range


def test_merge_rejects_mismatched_results(grid_serial):
    plan = plan_shards(3, 2)
    record = grid_serial[0]
    with pytest.raises(ConfigurationError):
        merge_shard_records(plan, [[record, record]])  # one shard of results missing
    with pytest.raises(ConfigurationError):
        merge_shard_records(plan, [[record], [record]])  # shard 0 under-delivers


def test_group_key_canonicalises_to_python_ints():
    np = pytest.importorskip("numpy")
    key = group_key([np.int64(3), np.int32(1), 2])
    assert key == (3, 1, 2)
    assert all(type(member) is int for member in key)


# -- engine level: the golden grid through the sharded pipeline ---------------------------------


def _grid_tasks() -> tuple[list[GroupEvalTask], dict]:
    """Every golden-grid GRECA case as a shippable task + its group factory.

    Distinct cases share member ids, so the factory key embeds the case index
    to keep one factory (and one preference substrate) per case.  The case's
    affinity dictionaries ride as their exact-float column set, covering
    every period of the case.
    """
    tasks: list[GroupEvalTask] = []
    factories: dict = {}
    for case_index, case in enumerate(GRECA_CASES):
        inputs = greca_case_inputs(case)
        key = group_key([case_index * 1000 + member for member in inputs["members"]])
        factories[key] = GrecaIndexFactory(
            members=inputs["members"], aprefs=inputs["aprefs"]
        )
        columns = AffinityColumns.from_components(
            inputs["static"], inputs["periodic"], inputs["averages"]
        )
        tasks.append(
            GroupEvalTask(
                group=key,
                k=case["k"],
                consensus=make_consensus(case["consensus"]),
                affinity_ref=columns,
                n_periods=columns.n_periods,
                time_model=inputs["time_model"],
                check_interval=case["check_interval"],
            )
        )
    return tasks, factories


def _grid_serial_records() -> list:
    """Serial reference: fresh index construction + one Greca run per case."""
    records = []
    for case_index, case in enumerate(GRECA_CASES):
        inputs = greca_case_inputs(case)
        key = group_key([case_index * 1000 + member for member in inputs["members"]])
        index = GrecaIndex(**inputs)
        algorithm = Greca(
            make_consensus(case["consensus"]),
            k=case["k"],
            check_interval=case["check_interval"],
        )
        records.append(record_from_result(key, algorithm.run(index)))
    return records


@pytest.fixture(scope="module")
def grid_serial():
    return _grid_serial_records()


@pytest.fixture(scope="module")
def grid_tasks():
    return _grid_tasks()


def assert_records_identical(actual, expected):
    """Field-by-field bit-identity, with a per-case diff on failure."""
    assert len(actual) == len(expected)
    for position, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, (
            f"task {position} diverged:\n  sharded: {got}\n  serial:  {want}"
        )


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_sharded_inprocess_matches_serial(grid_tasks, grid_serial, n_shards):
    """Golden grid, in-process shard executor, shard counts {1, 2, 3, 7}."""
    tasks, factories = grid_tasks
    records = evaluate_tasks(
        tasks, factories, n_shards=n_shards, executor=SerialShardExecutor()
    )
    assert_records_identical(records, grid_serial)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_sharded_process_pool_matches_serial(grid_tasks, grid_serial, n_shards):
    """Golden grid, real process workers (shm descriptors), {1, 2, 3, 7}.

    No executor is named, so the call resolves a pool of its own and shuts
    it down on the way out.
    """
    tasks, factories = grid_tasks
    records = evaluate_tasks(tasks, factories, n_shards=n_shards)
    assert_records_identical(records, grid_serial)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_sharded_shm_inprocess_matches_serial(grid_tasks, grid_serial, n_shards):
    """Golden grid, descriptor shipment attached in-process, {1, 2, 3, 7}.

    Factories and affinity columns go through export → descriptor → reattach
    → ``GrecaIndexFactory.from_columns`` / ``build_columns``.
    """
    tasks, factories = grid_tasks
    records = evaluate_tasks(
        tasks, factories, n_shards=n_shards, executor=ShippingSerialExecutor()
    )
    assert_records_identical(records, grid_serial)


@pytest.fixture(scope="module")
def warm_pool():
    """One persistent pool shared by every persistent-executor grid case."""
    with PersistentShardExecutor(n_workers=3) as pool:
        yield pool


@pytest.fixture(scope="module")
def warm_registry():
    """One long-lived shm registry, segments shared across dispatches."""
    with SharedArrayRegistry() as registry:
        yield registry


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_sharded_persistent_pool_matches_serial(
    grid_tasks, grid_serial, warm_pool, warm_registry, n_shards
):
    """Golden grid through one warm persistent pool + shared registry.

    Successive parametrised cases reuse the same worker processes and the
    same shared-memory segments — the exact amortisation the figure suite
    relies on — and every shard count must still merge to the serial
    records bit-for-bit.
    """
    tasks, factories = grid_tasks
    records = evaluate_tasks(
        tasks, factories, n_shards=n_shards, executor=warm_pool, registry=warm_registry
    )
    assert_records_identical(records, grid_serial)
    assert warm_pool.warm  # evaluate_tasks must not tear down a caller-owned pool
    assert not warm_registry.closed  # ...nor unlink a caller-owned registry


def test_persistent_pool_stays_warm_across_dispatches(grid_tasks, grid_serial):
    """Two dispatches reuse one ProcessPoolExecutor; records stay identical."""
    tasks, factories = grid_tasks
    with PersistentShardExecutor(n_workers=2) as pool, SharedArrayRegistry() as registry:
        first = evaluate_tasks(tasks, factories, executor=pool, registry=registry)
        inner = pool._pool
        assert inner is not None
        second = evaluate_tasks(tasks, factories, executor=pool, registry=registry)
        assert pool._pool is inner  # same warm pool, not a respawn
        assert_records_identical(first, grid_serial)
        assert_records_identical(second, grid_serial)
    assert not pool.warm  # context exit released the workers


def test_materialised_factory_builds_bit_identical_indexes(grid_tasks, grid_serial):
    """export → materialise round-trips to a factory with identical behaviour."""
    tasks, factories = grid_tasks
    with SharedArrayRegistry() as registry:
        handles = {key: registry.export(factory) for key, factory in factories.items()}
        # Exporting the same factory twice references the same segment.
        assert registry.export(factories[tasks[0].group]) is handles[tasks[0].group]
        from repro.parallel.worker import run_task

        records = [
            run_task(task, materialise_factory(handles[task.group])) for task in tasks
        ]
    assert_records_identical(records, grid_serial)


def test_grid_summary_statistics_are_bit_identical(grid_tasks, grid_serial):
    """Means/standard errors computed from merged records match serial exactly."""
    tasks, factories = grid_tasks
    records = evaluate_tasks(tasks, factories, n_shards=3, executor="serial")
    merged = summarize_percent_sa([record.percent_sa for record in records])
    reference = summarize_percent_sa([record.percent_sa for record in grid_serial])
    assert merged == reference


# -- plan level: shard-plan invariance ----------------------------------------------------------


def _random_partition(rng: random.Random, n_tasks: int) -> ShardPlan:
    """An arbitrary (shuffled, uneven, non-contiguous) partition of the tasks."""
    indices = list(range(n_tasks))
    rng.shuffle(indices)
    n_shards = rng.randint(1, n_tasks)
    boundaries = sorted(rng.sample(range(1, n_tasks), n_shards - 1)) if n_shards > 1 else []
    shards = []
    start = 0
    for end in boundaries + [n_tasks]:
        shards.append(tuple(indices[start:end]))
        start = end
    return ShardPlan(n_tasks=n_tasks, shards=tuple(shards))


@pytest.mark.parametrize("seed", PLAN_SEEDS)
def test_any_partition_merges_to_the_serial_records(grid_tasks, grid_serial, seed):
    """Property: *any* partition of the same tasks merges to the same stats."""
    tasks, factories = grid_tasks
    plan = _random_partition(random.Random(52_000 + seed), len(tasks))
    records = evaluate_tasks(
        tasks, factories, executor=SerialShardExecutor(), plan=plan
    )
    assert_records_identical(records, grid_serial)
    merged = summarize_percent_sa([record.percent_sa for record in records])
    reference = summarize_percent_sa([record.percent_sa for record in grid_serial])
    assert merged == reference


def test_random_partition_through_real_processes(grid_tasks, grid_serial):
    """One shuffled partition end-to-end through a process pool."""
    tasks, factories = grid_tasks
    plan = _random_partition(random.Random(99), len(tasks))
    with PersistentShardExecutor(n_workers=3) as pool:
        records = evaluate_tasks(tasks, factories, executor=pool, plan=plan)
    assert_records_identical(records, grid_serial)


def test_executor_worker_count_drives_default_shard_count(grid_tasks, grid_serial):
    """An executor instance without n_shards fans out one shard per worker."""
    tasks, factories = grid_tasks
    dispatched = []

    class RecordingPool(PersistentShardExecutor):
        def run(self, payloads):
            dispatched.append(len(payloads))
            return super().run(payloads)

    with RecordingPool(n_workers=3) as pool:
        records = evaluate_tasks(tasks, factories, executor=pool)
    assert_records_identical(records, grid_serial)
    assert dispatched == [3]


def test_fan_out_without_an_executor_uses_a_pool_of_its_own(grid_tasks, grid_serial):
    """n_shards alone resolves a fresh process pool, shut down on the way out."""
    tasks, factories = grid_tasks
    backend = resolve_executor(None, 2)
    assert isinstance(backend, PersistentShardExecutor) and backend.n_workers == 2
    records = evaluate_tasks(tasks, factories, n_shards=2)
    assert_records_identical(records, grid_serial)


def test_evaluate_tasks_without_knobs_stays_in_process(grid_tasks, grid_serial):
    """No knobs → the full payload/merge pipeline, but no process is spawned."""
    tasks, factories = grid_tasks
    spawned = []

    class RecordingSerialExecutor(SerialShardExecutor):
        def run(self, payloads):
            spawned.append(len(payloads))
            return super().run(payloads)

    # The default backend must behave exactly like the in-process executor.
    records = evaluate_tasks(tasks, factories)
    reference = evaluate_tasks(tasks, factories, executor=RecordingSerialExecutor())
    assert_records_identical(records, grid_serial)
    assert records == reference
    assert spawned == [1]  # single in-process shard


def test_process_executor_requires_a_worker_count(grid_tasks):
    """The process-pool backends error without n_workers instead of using 1."""
    tasks, factories = grid_tasks
    with pytest.raises(ConfigurationError):
        evaluate_tasks(tasks, factories, executor="persistent")
    with pytest.raises(ConfigurationError):
        evaluate_tasks(tasks, factories, executor="supervised")


@pytest.mark.parametrize("bogus", ["threads", "thread", "PROCESS", "async", ""])
def test_unknown_executor_name_raises_value_error(grid_tasks, bogus):
    """Unknown executor names fail at the single choice point, listing backends."""
    tasks, factories = grid_tasks
    with pytest.raises(ValueError, match="'serial', 'persistent', 'supervised'"):
        resolve_executor(bogus, 2)
    with pytest.raises(ValueError, match="'serial', 'persistent', 'supervised'"):
        evaluate_tasks(tasks, factories, n_shards=2, executor=bogus)


def test_runner_rejects_unknown_executor_before_running():
    """--executor goes through the same choice point, before any experiment."""
    from repro.experiments import runner

    with pytest.raises(ValueError, match="'serial', 'persistent', 'supervised'"):
        runner.main(["--executor", "threads", "--list"])


def test_run_shard_preserves_shard_order(grid_tasks):
    """Worker-side records come back in shard task order."""
    tasks, factories = grid_tasks
    payload = build_payloads(plan_shards(len(tasks), 1), tasks, factories)[0]
    records = run_shard(payload)
    assert [record.group for record in records] == [task.group for task in tasks]


def test_payload_requires_every_factory(grid_tasks):
    tasks, factories = grid_tasks
    with pytest.raises(ConfigurationError):
        ShardPayload(
            shard_index=0,
            task_indices=(0,),
            tasks=(tasks[0],),
            factories={},
        )


# -- environment level --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_environment() -> ScalabilityEnvironment:
    """A seconds-scale substrate: 5 groups over a 260-item catalogue."""
    return ScalabilityEnvironment(
        ScalabilityConfig(
            n_users=60,
            n_items=260,
            n_ratings=3_000,
            n_participants=16,
            n_groups=5,
            seed=11,
        )
    )


@pytest.fixture(scope="module")
def tiny_groups(tiny_environment):
    return tiny_environment.random_groups()


@pytest.mark.parametrize("n_workers", SHARD_COUNTS)
def test_environment_average_percent_sa_is_shard_count_invariant(
    tiny_environment, tiny_groups, n_workers
):
    """The headline %SA statistic is exact for every required shard count."""
    serial = tiny_environment.average_percent_sa(tiny_groups)
    sharded = tiny_environment.average_percent_sa(tiny_groups, policy=fan_out(n_workers))
    assert sharded == serial  # mean, std error and n_runs, all exact


def test_environment_sweep_points_match_serial(tiny_environment, tiny_groups):
    """Period, item-restriction and consensus sweeps through real workers."""
    period = tiny_environment.timeline[2]
    for knobs in (
        dict(period=period),
        dict(n_items=120),
        dict(consensus="PD V2", k=4),
        dict(period=period, n_items=60, consensus="MO"),
    ):
        serial = tiny_environment.run_records(tiny_groups, **knobs)
        sharded = tiny_environment.run_records(tiny_groups, policy=fan_out(2), **knobs)
        assert_records_identical(sharded, serial)


def test_environment_serial_executor_backend_matches_serial(
    tiny_environment, tiny_groups
):
    """The in-process backend exercises sharding/merging without processes."""
    serial = tiny_environment.run_records(tiny_groups)
    sharded = tiny_environment.run_records(
        tiny_groups, policy=fan_out(3, executor="serial")
    )
    assert_records_identical(sharded, serial)


@pytest.mark.parametrize("n_workers", SHARD_COUNTS)
def test_environment_persistent_executor_is_shard_count_invariant(
    tiny_environment, tiny_groups, n_workers
):
    """The persistent backend (warm pool + env-owned shm registry) is exact."""
    serial = tiny_environment.average_percent_sa(tiny_groups)
    sharded = tiny_environment.average_percent_sa(
        tiny_groups, policy=fan_out(n_workers, executor="persistent")
    )
    assert sharded == serial
    # The environment memoised a warm pool for this worker count...
    assert tiny_environment._persistent_pools[n_workers].warm
    # ...and its shm registry owns the shipped segments.
    registry = tiny_environment._registries.get("shm")
    assert registry is not None and not registry.closed


def test_environment_persistent_pool_is_reused_across_calls(
    tiny_environment, tiny_groups
):
    """Same worker count → same pool object and same warm ProcessPoolExecutor."""
    persistent = fan_out(2, executor="persistent")
    first = tiny_environment.run_records(tiny_groups, policy=persistent)
    pool = tiny_environment._persistent_pools[2]
    inner = pool._pool
    second = tiny_environment.run_records(tiny_groups, policy=persistent)
    assert tiny_environment._persistent_pools[2] is pool and pool._pool is inner
    assert_records_identical(second, first)


def test_environment_close_releases_and_recreates_lazily(tiny_environment, tiny_groups):
    """close() shuts pools down and unlinks segments; later calls just work."""
    serial = tiny_environment.run_records(tiny_groups)
    persistent = fan_out(2, executor="persistent")
    tiny_environment.run_records(tiny_groups, policy=persistent)
    registry = tiny_environment._registries["shm"]
    names = registry.segment_names
    assert names  # shm shipment actually happened
    tiny_environment.close()
    assert registry.closed and not tiny_environment._persistent_pools
    from multiprocessing import shared_memory

    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    # The environment recovers transparently: the next dispatch recreates
    # its pool and registry and still matches serial bit-for-bit.
    again = tiny_environment.run_records(tiny_groups, policy=persistent)
    assert_records_identical(again, serial)
    tiny_environment.close()


def test_environment_persistent_requires_worker_count(tiny_environment, tiny_groups):
    with pytest.raises(ConfigurationError):
        tiny_environment.run_records(
            tiny_groups, policy=ExecutionPolicy(executor="persistent")
        )


def test_quick_smoke_sharded_statistics_match_serial():
    """run_quick_smoke reports identical statistics under the sharded path."""
    config = ScalabilityConfig(
        n_users=60, n_items=260, n_ratings=3_000, n_participants=16, n_groups=5, seed=11
    )
    serial = run_quick_smoke(config=config)
    fanned = run_quick_smoke(config=config, policy=fan_out(2))
    assert fanned.stats == serial.stats
    assert fanned.n_workers == 2
    persistent = run_quick_smoke(config=config, policy=fan_out(2, executor="persistent"))
    assert persistent.stats == serial.stats


def test_figure_drivers_sharded_match_serial(tiny_environment, tiny_groups):
    """Figure 6 and Figure 8 produce identical result objects with workers.

    Groups are pinned explicitly because the drivers draw fresh random
    groups per call; the comparison is about the execution path, not the
    draw.
    """
    serial6 = figure6.run(environment=tiny_environment, groups=tiny_groups)
    sharded6 = figure6.run(environment=tiny_environment, groups=tiny_groups, policy=fan_out(2))
    assert sharded6 == serial6

    serial8 = figure8.run(environment=tiny_environment, groups=tiny_groups)
    sharded8 = figure8.run(environment=tiny_environment, groups=tiny_groups, policy=fan_out(2))
    assert sharded8 == serial8


# -- columnar affinity shipment + batched dispatch ----------------------------------------------


def test_environment_columnar_task_facade_matches_dict_task(tiny_environment, tiny_groups):
    """task_for's column-borne task reproduces the dict-built cached index exactly.

    ``cached_index`` builds from the recommender's affinity dictionaries at
    the query period; the task carries the group's full-timeline columns and
    a period prefix.  Every affinity model must give the same record.
    """
    from repro.parallel.worker import run_task

    group = tiny_groups[0]
    factory = tiny_environment.index_factory(group)
    period = tiny_environment.timeline[2]
    for knobs in (
        dict(),
        dict(period=period),
        dict(period=period, n_items=120, k=4),
        dict(affinity="continuous", period=period),
        dict(affinity="time-agnostic"),
        dict(affinity="none", consensus="MO"),
    ):
        task = tiny_environment.task_for(group, **knobs)
        (from_dicts,) = tiny_environment.run_records([group], **knobs)
        assert run_task(task, factory) == from_dicts


@pytest.mark.parametrize("n_workers", SHARD_COUNTS)
def test_environment_batched_sweep_matches_serial(tiny_environment, tiny_groups, n_workers):
    """One batched dispatch over a mixed sweep is exact at {1, 2, 3, 7} shards."""
    from repro.experiments.scalability import SweepPoint

    points = [
        SweepPoint(groups=tiny_groups, period=period)
        for period in tiny_environment.timeline
    ] + [
        SweepPoint(groups=tiny_groups, k=4),
        SweepPoint(groups=tiny_groups, consensus="MO"),
        SweepPoint(groups=tiny_groups, n_items=120),
    ]
    serial = tiny_environment.run_sweep(points)
    batched = tiny_environment.run_sweep(points, policy=fan_out(n_workers))
    assert batched == serial


def test_batched_sweep_dispatches_once_group_major(tiny_environment, tiny_groups):
    """run_sweep issues exactly one dispatch, with group-major payloads.

    One payload per (shard, factory): a factory may only appear in a second
    payload when a contiguous shard boundary happens to split its task run —
    never once per sweep point, which is what the pre-batching drivers paid.
    """
    from collections import Counter

    from repro.experiments.scalability import SweepPoint

    dispatches = []

    class RecordingSerialExecutor(SerialShardExecutor):
        n_workers = 3

        def run(self, payloads):
            dispatches.append(payloads)
            return super().run(payloads)

    points = [
        SweepPoint(groups=tiny_groups, period=period)
        for period in tiny_environment.timeline
    ]
    serial = tiny_environment.run_sweep(points)
    batched = tiny_environment.run_sweep(
        points, policy=ExecutionPolicy(executor=RecordingSerialExecutor())
    )
    assert batched == serial
    assert len(dispatches) == 1  # the whole figure sweep crossed the pool once
    (payloads,) = dispatches
    shipments = Counter()
    for payload in payloads:
        for group in payload.factories:
            shipments[group] += 1
    # Each factory ships to at most two shards (a boundary split), and the
    # total is far below the one-per-(point, shard) of per-point dispatching.
    assert all(count <= 2 for count in shipments.values())
    assert sum(shipments.values()) <= len(tiny_groups) + len(payloads) - 1


@pytest.mark.parametrize("n_workers", SHARD_COUNTS)
def test_figure6_batched_process_dispatch_is_shard_count_invariant(
    tiny_environment, tiny_groups, n_workers
):
    """Figure 6's single-dispatch parallel path stays exact at every shard count."""
    serial = figure6.run(environment=tiny_environment, groups=tiny_groups)
    fanned = figure6.run(
        environment=tiny_environment, groups=tiny_groups, policy=fan_out(n_workers)
    )
    assert fanned == serial


# -- storage backends: mmap spool files behind the same descriptor seam -------------------------


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_mmap_process_matches_serial(grid_tasks, grid_serial, n_shards):
    """Golden grid, real process workers over file-backed columns, {1, 2, 3, 7}.

    The mmap backend must be observationally invisible exactly like shm: the
    workers attach spool files instead of ``/dev/shm`` segments, but every
    record — %SA, SA/RA counts, top-k, stopping reasons — is bit-identical.
    """
    tasks, factories = grid_tasks
    records = evaluate_tasks(tasks, factories, n_shards=n_shards, storage="mmap")
    assert_records_identical(records, grid_serial)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_mmap_inprocess_attach_matches_serial(grid_tasks, grid_serial, n_shards):
    """Forced descriptor shipment attached in-process, file-backed columns.

    Exercises export → spool file → reattach → ``GrecaIndexFactory
    .from_columns`` without any process in between, so a divergence here is a
    storage-backend bug, not a scheduling one.
    """
    tasks, factories = grid_tasks
    records = evaluate_tasks(
        tasks,
        factories,
        n_shards=n_shards,
        executor=ShippingSerialExecutor(),
        storage="mmap",
    )
    assert_records_identical(records, grid_serial)


def test_grid_mmap_registry_descriptors_are_spool_files(grid_tasks, grid_serial):
    """A caller-owned mmap registry exports absolute spool paths, all deleted on close."""
    tasks, factories = grid_tasks
    with SharedArrayRegistry(storage="mmap") as registry:
        records = evaluate_tasks(
            tasks, factories, n_shards=3, executor=ShippingSerialExecutor(), registry=registry
        )
        assert_records_identical(records, grid_serial)
        names = registry.segment_names
        assert names and all(os.path.isabs(name) for name in names)
        assert all(os.path.exists(name) for name in names)
        assert all(name.startswith(registry.spool_path) for name in names)
    assert registry.closed
    assert all(not os.path.exists(name) for name in names)
    assert not os.path.exists(registry.spool_path)


def test_grid_mmap_supervised_fault_recovery_matches_serial(grid_tasks, grid_serial):
    """The chaos path over file-backed columns: recovery is still bit-identical.

    One clean worker exception plus one hard crash; the supervisor retries,
    rebuilds the pool, re-ships the spool-file descriptors, and the merged
    records equal the serial reference exactly.
    """
    from repro.parallel import FaultPlan, FaultSpec, SupervisionPolicy

    tasks, factories = grid_tasks
    plan = FaultPlan(
        (
            FaultSpec(shard=0, position=1, mode="raise", fires=1),
            FaultSpec(shard=1, position=0, mode="crash", fires=1),
        )
    )
    records = evaluate_tasks(
        tasks,
        factories,
        n_shards=3,
        executor="supervised",
        storage="mmap",
        supervision=SupervisionPolicy(max_retries=2, backoff_base=0.001),
        fault_plan=plan,
    )
    assert_records_identical(records, grid_serial)


@pytest.mark.parametrize("bogus", ["disk", "file", "MMAP", "tape", ""])
def test_unknown_storage_raises_value_error(grid_tasks, bogus):
    """Unknown storage names fail at the single choice point, listing backends."""
    from repro.parallel import validate_storage_name

    tasks, factories = grid_tasks
    with pytest.raises(ValueError, match="'shm', 'mmap'"):
        validate_storage_name(bogus)
    with pytest.raises(ValueError, match="'shm', 'mmap'"):
        evaluate_tasks(
            tasks, factories, n_shards=2, executor=SerialShardExecutor(), storage=bogus
        )
    with pytest.raises(ValueError, match="'shm', 'mmap'"):
        ExecutionPolicy(storage=bogus)


def test_storage_conflicts_with_caller_owned_registry(grid_tasks):
    """storage= must agree with a caller-owned registry's backend."""
    tasks, factories = grid_tasks
    with SharedArrayRegistry() as registry:
        with pytest.raises(ConfigurationError, match="storage"):
            evaluate_tasks(
                tasks,
                factories,
                n_shards=2,
                executor=ShippingSerialExecutor(),
                registry=registry,
                storage="mmap",
            )


def test_runner_rejects_unknown_storage_before_running():
    """--storage goes through the same choice point, before any experiment."""
    from repro.experiments import runner

    with pytest.raises(ValueError, match="'shm', 'mmap'"):
        runner.main(["--storage", "tape", "--list"])


@pytest.mark.parametrize("n_workers", SHARD_COUNTS)
def test_environment_mmap_storage_is_shard_count_invariant(
    tiny_environment, tiny_groups, n_workers
):
    """run_records over the mmap backend is exact for every required shard count."""
    serial = tiny_environment.run_records(tiny_groups)
    spooled = tiny_environment.run_records(
        tiny_groups, policy=fan_out(n_workers, executor="persistent", storage="mmap")
    )
    assert_records_identical(spooled, serial)
    # The environment keeps one registry per storage backend; the mmap one
    # holds absolute spool paths, never shm names.
    registry = tiny_environment._registries.get("mmap")
    assert registry is not None and not registry.closed
    assert registry.storage == "mmap"
    assert all(os.path.isabs(name) for name in registry.segment_names)


def test_environment_average_percent_sa_mmap_matches_serial(
    tiny_environment, tiny_groups
):
    """The headline statistic is exact over file-backed columns too."""
    serial = tiny_environment.average_percent_sa(tiny_groups)
    spooled = tiny_environment.average_percent_sa(
        tiny_groups, policy=fan_out(2, storage="mmap")
    )
    assert spooled == serial


# -- ExecutionPolicy: one bundle for the dispatch knobs -------------------------------------------


def test_policy_default_is_the_serial_reference(tiny_environment, tiny_groups):
    """An all-defaults policy selects the serial path, same as no policy at all."""
    assert ExecutionPolicy().is_serial
    assert ExecutionPolicy().storage_name == "shm"
    assert not ExecutionPolicy(n_workers=2).is_serial
    serial = tiny_environment.run_records(tiny_groups)
    bundled = tiny_environment.run_records(tiny_groups, policy=ExecutionPolicy())
    assert_records_identical(bundled, serial)


def test_execution_policy_validates_on_construction():
    """The bundle holds four knobs and fails at build time on a bad one."""
    from dataclasses import fields

    assert [field.name for field in fields(ExecutionPolicy)] == [
        "n_workers",
        "executor",
        "supervision",
        "storage",
    ]
    with pytest.raises(ConfigurationError):
        ExecutionPolicy(n_workers=0)
    with pytest.raises(ValueError, match="'serial', 'persistent', 'supervised'"):
        ExecutionPolicy(n_workers=2, executor="process")
    with pytest.raises(ValueError, match="'shm', 'mmap'"):
        ExecutionPolicy(storage="tape")
    with pytest.raises(ConfigurationError):
        ExecutionPolicy(supervision="yes")


def test_figure_drivers_accept_a_bundled_policy(tiny_environment, tiny_groups):
    """Figure 6 under policy=(2 workers, mmap) equals its serial rendering."""
    serial = figure6.run(environment=tiny_environment, groups=tiny_groups)
    bundled = figure6.run(
        environment=tiny_environment,
        groups=tiny_groups,
        policy=ExecutionPolicy(n_workers=2, storage="mmap"),
    )
    assert bundled == serial
