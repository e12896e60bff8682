"""Epoch-versioned incremental updates: the delta-equivalence matrix.

The contract of :mod:`repro.updates` + ``ScalabilityEnvironment.apply_delta``:
after N :class:`RatingDelta` batches applied *incrementally* — touched-row
similarity refresh, partial apref patching, append-only affinity extension,
memo invalidation, shm retirement — the environment is **bit-identical** to a
full rebuild over the merged history.  Not approximately: the same similarity
matrices, the same aprefs, the same affinity columns, and therefore the same
GRECA records (%SA, SA/RA counts, top-k, stopping reasons, rounds) on every
execution tier.

The oracle is a second environment built from
``base_substrate.with_deltas(deltas)`` — the "rebuilt from scratch over the
merged ratings/likes/timeline" world.  Every test compares the evolved
(incremental) environment against it:

* serial records across periods / consensus / k / item-subset knobs;
* the sharded tiers at shard counts {1, 2, 3, 7} — persistent warm pools
  over shared memory and mmap spool files, and supervised dispatch;
* the figure 6 / figure 8 drivers;
* the asyncio service: ``submit_delta`` between query waves, with epoch
  adoption and **zero pool restarts** (asserted via pool object identity);
* :class:`EpochManager` snapshot → restore replay reaching the same records.

Float equality is exact (``==``) throughout, matching the repo's
serial ≡ parallel discipline.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import figure6, figure8
from repro.experiments.scalability import (
    EnvironmentSubstrate,
    ScalabilityConfig,
    ScalabilityEnvironment,
)
from repro.parallel import ExecutionPolicy, evaluate_tasks, group_key
from repro.service import GrecaService, GroupQuery, ServiceConfig
from repro.updates import EpochManager, RatingDelta, random_deltas
from repro.updates.epoch import JOURNAL_VERSION, delta_from_json, delta_to_json
from repro.data.ratings import Rating

#: Shard counts required by the acceptance criteria.
SHARD_COUNTS = (1, 2, 3, 7)

CONFIG = ScalabilityConfig(
    n_users=40,
    n_items=150,
    n_ratings=1_600,
    n_participants=12,
    n_groups=3,
    seed=5,
)


@pytest.fixture(scope="module")
def base_substrate():
    return EnvironmentSubstrate.generate(CONFIG)


@pytest.fixture(scope="module")
def deltas(base_substrate):
    """Three cumulative batches; the second one appends a fresh period."""
    return random_deltas(
        base_substrate.ratings,
        base_substrate.social,
        base_substrate.timeline,
        n_deltas=3,
        seed=7,
        new_period_every=2,
    )


@pytest.fixture(scope="module")
def groups(base_substrate):
    """Fixed explicit groups — the comparison is about state, not the draw."""
    participants = base_substrate.participants
    return [
        tuple(participants[:3]),
        tuple(participants[3:7]),
        tuple(participants[7:10]),
    ]


@pytest.fixture(scope="module")
def oracle_env(base_substrate, deltas):
    """Full rebuild over the merged history: the equivalence oracle."""
    env = ScalabilityEnvironment(CONFIG, substrate=base_substrate.with_deltas(deltas))
    yield env
    env.close()


@pytest.fixture(scope="module")
def evolved(base_substrate, deltas, groups):
    """The incremental world: warm caches, then apply every delta in order.

    Factories (and the apref caches beneath them) are warmed *before* the
    deltas so the refresh/invalidation paths actually run — a cold
    environment would trivially rebuild everything on first use.
    """
    env = ScalabilityEnvironment(CONFIG, substrate=base_substrate)
    for group in groups:
        env.index_factory(group)
    manager = EpochManager(env)
    for delta in deltas:
        manager.apply(delta)
    yield env, manager
    env.close()


def assert_records_identical(actual, expected):
    assert len(actual) == len(expected)
    for position, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, (
            f"group {position} diverged:\n  incremental: {got}\n  rebuilt:     {want}"
        )


# -- delta construction -------------------------------------------------------------------------


def test_delta_rejects_duplicate_pair_within_batch():
    rating = Rating(1, 2, 4.0, 100)
    again = Rating(1, 2, 3.0, 200)
    with pytest.raises(ConfigurationError):
        RatingDelta(ratings=(rating, again))
    assert RatingDelta().is_empty
    assert not RatingDelta(ratings=(rating,)).is_empty


def test_random_deltas_draw_valid_cumulative_events(base_substrate, deltas):
    """Pairs are unrated and never re-drawn; likes stay inside the span."""
    rated = {
        (r.user_id, r.item_id) for r in base_substrate.ratings.ratings
    }
    span_end = base_substrate.timeline.end
    for delta in deltas:
        for rating in delta.ratings:
            key = (rating.user_id, rating.item_id)
            assert key not in rated  # unrated at draw time, unique across deltas
            rated.add(key)
            assert rating.user_id in base_substrate.ratings.users
            assert rating.item_id in base_substrate.ratings.items
        if delta.new_period is not None:
            assert delta.new_period.start == span_end + 1
            span_end = delta.new_period.end
        for like in delta.page_likes:
            assert like.user_id in base_substrate.social.users
            assert base_substrate.timeline.beginning <= like.timestamp <= span_end
    assert any(delta.new_period is not None for delta in deltas)


# -- serial equivalence -------------------------------------------------------------------------


def test_incremental_serial_matches_full_rebuild(evolved, oracle_env, groups):
    """The core oracle: every sweep knob, incremental vs rebuilt, exact."""
    env, _ = evolved
    assert list(env.timeline) == list(oracle_env.timeline)
    appended = env.timeline.current  # the delta-appended period
    for knobs in (
        dict(),
        dict(k=4),
        dict(consensus="PD V2"),
        dict(period=appended),
        dict(period=env.timeline[0], n_items=80),
    ):
        assert_records_identical(
            env.run_records(groups, **knobs), oracle_env.run_records(groups, **knobs)
        )


def test_delta_reports_track_epochs_and_touched_state(evolved, deltas):
    env, manager = evolved
    assert env.epoch == len(deltas)
    assert [report.epoch for report in manager.reports] == [1, 2, 3]
    first = manager.reports[0]
    # Warm caches existed at epoch 1: aprefs moved and factories invalidated.
    assert first.touched_users and first.changed_users and first.invalidated_groups
    assert not first.full_rebuild
    assert all(report.affinity_changed for report in manager.reports)


def test_new_user_delta_falls_back_to_full_rebuild(base_substrate, deltas, groups, oracle_env):
    """A rating for an unknown user takes the slow path — still exact."""
    env = ScalabilityEnvironment(CONFIG, substrate=base_substrate)
    for group in groups:
        env.index_factory(group)
    stranger = max(base_substrate.ratings.users) + 10_000
    item = base_substrate.ratings.items[0]
    extra = RatingDelta(ratings=(Rating(stranger, item, 5.0, base_substrate.timeline.end),))
    for delta in deltas:
        env.apply_delta(delta)
    report = env.apply_delta(extra)
    assert report.full_rebuild
    oracle = ScalabilityEnvironment(
        CONFIG, substrate=base_substrate.with_deltas([*deltas, extra])
    )
    assert_records_identical(env.run_records(groups), oracle.run_records(groups))
    oracle.close()
    env.close()


# -- sharded tiers ------------------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_incremental_persistent_matrix(evolved, oracle_env, groups, n_shards):
    """Warm persistent pools over post-delta state, shard counts {1, 2, 3, 7}."""
    env, _ = evolved
    sharded = env.run_records(
        groups, policy=ExecutionPolicy(n_workers=n_shards, executor="persistent")
    )
    assert_records_identical(sharded, oracle_env.run_records(groups))


def test_incremental_supervised_matches_oracle(evolved, oracle_env, groups):
    env, _ = evolved
    sharded = env.run_records(
        groups, policy=ExecutionPolicy(n_workers=2, executor="supervised")
    )
    assert_records_identical(sharded, oracle_env.run_records(groups))
    assert env.dispatch_reports[-1].ok


@pytest.mark.parametrize("storage", ("shm", "mmap"))
def test_incremental_process_shipment_matrix(evolved, oracle_env, groups, storage):
    """Post-delta factories and affinity columns ship by descriptor to a
    pool of the call's own, under both storage backends, bit-identically."""
    env, _ = evolved
    tasks = [env.task_for(group) for group in groups]
    factories = {group_key(group): env.index_factory(group) for group in groups}
    records = evaluate_tasks(tasks, factories, n_shards=2, storage=storage)
    assert_records_identical(records, oracle_env.run_records(groups))


def test_epoch_adoption_keeps_warm_pools_alive(base_substrate, deltas, groups, oracle_env):
    """Zero pool restarts: the pre-delta pool object survives every epoch."""
    env = ScalabilityEnvironment(CONFIG, substrate=base_substrate)
    persistent = ExecutionPolicy(n_workers=2, executor="persistent")
    env.run_records(groups, policy=persistent)  # warm epoch 0
    pool = env._persistent_pools[2]
    inner = pool._pool
    registry = env._shared_registry()
    for delta in deltas:
        env.apply_delta(delta)
    post = env.run_records(groups, policy=persistent)
    # Same pool wrapper, same live ProcessPoolExecutor, same registry object —
    # the new epoch was adopted by the existing workers, not by replacements.
    assert env._persistent_pools[2] is pool and pool._pool is inner
    assert env._shared_registry() is registry and not registry.closed
    assert_records_identical(post, oracle_env.run_records(groups))
    env.close()


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_incremental_mmap_storage_matrix(evolved, oracle_env, groups, n_shards):
    """File-backed columns over post-delta state, shard counts {1, 2, 3, 7}.

    The evolved environment sits three epoch swaps past its base substrate;
    dispatching it over the mmap backend must still reproduce the rebuilt
    oracle bit-for-bit — the spool files carry the *adopted* epoch's bytes.
    """
    env, _ = evolved
    sharded = env.run_records(
        groups, policy=ExecutionPolicy(n_workers=n_shards, storage="mmap")
    )
    assert_records_identical(sharded, oracle_env.run_records(groups))


def test_epoch_adoption_retires_spool_files_and_adopts(
    base_substrate, deltas, groups, oracle_env
):
    """mmap across epoch swaps: retired spool files delete, fresh ones adopt.

    Mirrors the warm-pool adoption contract on the file-backed tier — the
    epoch-0 exports live as spool files, each swap's retirement deletes the
    stale ones under the same generation-token floor that unlinks shm
    segments, and the post-swap dispatch serves the new epoch through the
    *same* registry object from fresh files.  Closing the environment leaves
    the spool directory gone entirely.
    """
    env = ScalabilityEnvironment(CONFIG, substrate=base_substrate)
    policy = ExecutionPolicy(n_workers=2, executor="persistent", storage="mmap")
    env.run_records(groups, policy=policy)  # epoch-0 spool exports
    registry = env._shared_registry("mmap")
    names_before = registry.segment_names
    assert names_before and all(os.path.isabs(name) for name in names_before)
    retired: list[str] = []
    for delta in deltas:
        report = env.apply_delta(delta)
        retired.extend(report.retired_segments)
    retired_files = [name for name in retired if os.path.isabs(name)]
    assert retired_files  # the swaps actually retired spool-file exports
    assert all(not os.path.exists(name) for name in retired_files)
    post = env.run_records(groups, policy=policy)
    assert env._shared_registry("mmap") is registry and not registry.closed
    assert set(registry.segment_names).isdisjoint(retired_files)
    assert_records_identical(post, oracle_env.run_records(groups))
    spool = registry.spool_path
    env.close()
    assert not os.path.exists(spool)
    assert all(not os.path.exists(name) for name in names_before)


def test_figure_drivers_match_full_rebuild(evolved, oracle_env, groups):
    """Figure 6 and Figure 8 over the evolved substrate equal the rebuilt one."""
    env, _ = evolved
    assert figure6.run(environment=env, groups=groups) == figure6.run(
        environment=oracle_env, groups=groups
    )
    assert figure8.run(environment=env, groups=groups) == figure8.run(
        environment=oracle_env, groups=groups
    )


# -- service ------------------------------------------------------------------------------------


def test_service_adopts_epochs_between_query_waves(
    base_substrate, deltas, groups, oracle_env
):
    """submit_delta between waves: wave 1 on epoch 0, wave 2 on epoch N.

    The service keeps its single dispatch thread and (supervised) worker
    pool across every epoch — responses after the deltas equal the rebuilt
    oracle, with no restart in between.
    """
    env = ScalabilityEnvironment(CONFIG, substrate=base_substrate)
    wave1_expected = env.run_records(groups)  # also warms the caches pre-delta
    config = ServiceConfig(n_workers=2, executor="supervised", max_batch_delay=0.01)

    async def session():
        service = GrecaService(environment=env, config=config)
        async with service:
            wave1 = await asyncio.gather(
                *(service.submit(GroupQuery(group=group)) for group in groups)
            )
            reports = [await service.submit_delta(delta) for delta in deltas]
            wave2 = await asyncio.gather(
                *(service.submit(GroupQuery(group=group)) for group in groups)
            )
        return wave1, reports, wave2

    wave1, reports, wave2 = asyncio.run(session())
    assert_records_identical([response.record for response in wave1], wave1_expected)
    assert [report.epoch for report in reports] == [1, 2, 3]
    assert env.epoch == len(deltas)
    assert_records_identical(
        [response.record for response in wave2], oracle_env.run_records(groups)
    )
    env.close()


# -- journal ------------------------------------------------------------------------------------


def test_delta_json_round_trip(deltas):
    for delta in deltas:
        assert delta_from_json(delta_to_json(delta)) == delta


def test_epoch_manager_snapshot_restore_reaches_identical_state(
    tmp_path, evolved, oracle_env, groups
):
    env, manager = evolved
    path = manager.snapshot(tmp_path / "journal.json")
    restored = EpochManager.restore(path)
    assert restored.epoch == manager.epoch
    assert restored.applied == manager.applied
    assert_records_identical(
        restored.environment.run_records(groups), oracle_env.run_records(groups)
    )
    restored.environment.close()


def test_snapshot_failing_mid_write_keeps_the_previous_journal(
    tmp_path, monkeypatch, base_substrate, deltas
):
    """A write that dies halfway leaves the last good journal restorable."""
    import io

    env = ScalabilityEnvironment(CONFIG, substrate=base_substrate)
    manager = EpochManager(env)
    manager.apply(deltas[0])
    path = manager.snapshot(tmp_path / "journal.json")
    manager.apply(deltas[1])

    real_open = io.open

    class HalfWriter:
        """A text handle that writes half of what it is given, then fails."""

        def __init__(self, handle):
            self._handle = handle

        def write(self, text):
            self._handle.write(text[: len(text) // 2])
            self._handle.flush()
            raise OSError("device failed mid-write")

        def __getattr__(self, name):
            return getattr(self._handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._handle.close()

    def failing_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return HalfWriter(handle) if "w" in mode else handle

    monkeypatch.setattr(io, "open", failing_open)
    with pytest.raises(OSError):
        manager.snapshot(path)
    monkeypatch.undo()

    assert [entry.name for entry in tmp_path.iterdir()] == ["journal.json"]
    restored = EpochManager.restore(path)
    assert restored.epoch == 1
    assert restored.applied == [deltas[0]]
    restored.environment.close()
    env.close()


def test_restore_rejects_unknown_journal_version(tmp_path, evolved):
    _, manager = evolved
    path = manager.snapshot(tmp_path / "journal.json")
    import json

    payload = json.loads(path.read_text())
    payload["version"] = JOURNAL_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError):
        EpochManager.restore(path)
