"""Shared harness for the scalability experiments (Section 4.2, Figures 5-8).

The paper's setup: 20 random groups drawn from the quality-study
participants, default group size 6, ``k = 10``, 3,900 candidate items, AP
consensus, discrete time model over 6 two-month periods.  Every figure varies
exactly one of those knobs and reports the *average percentage of sequential
accesses* (%SA) GRECA needs, compared to a naive algorithm that scans every
list entirely (lower is better; the paper reports savings of 75% or more).

:class:`ScalabilityEnvironment` builds the shared substrate once (dataset,
social network, fitted recommender, participant pool) so that the individual
figure drivers only loop over their parameter of interest.

The environment also owns the **index-reuse layer**: one
:class:`~repro.core.greca.GrecaIndexFactory` per group (sharing the columnar
preference substrate across every sweep point) and a memo of fully built
indexes keyed by ``(group, affinity, period, n_items)``.  Sweeping ``k`` or
the consensus function therefore reuses the exact same index object, and
sweeping the period or the item count only rebuilds the small affinity
dictionaries — never the preference matrix.  Cached indexes are immutable
between runs (every :meth:`Greca.run` materialises fresh lists/counters), and
the reuse layer is proven bit-identical to per-point construction by
``tests/test_engine_properties.py`` and the golden-grid reuse test.

Group evaluation is embarrassingly parallel — every figure averages over
independent groups sharing a read-only substrate — so the measurement
methods accept a ``policy=`` (:class:`~repro.parallel.ExecutionPolicy`)
routing the runs through :mod:`repro.parallel`: tasks are sharded across
process workers, each worker receives the memoised per-group factories of
its shard (exported to the column store once, never rebuilt), and the
per-shard records merge back deterministically in group order.  Serial stays
the default and the reference semantics; ``tests/test_parallel_equivalence.py``
proves the sharded path bit-identical to it.  The environment owns one
shared-memory registry whose segments every dispatch ships by descriptor.
:func:`run_paper_scale` drives the full Table 5-scale substrate
(:meth:`ScalabilityConfig.paper_scale`) through that layer.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import mean, stdev
from typing import Iterator, Sequence

from repro.core.affinity import AffinityColumns
from repro.core.consensus import ConsensusFunction, make_consensus
from repro.core.greca import Greca, GrecaIndex, GrecaIndexFactory
from repro.core.recommender import GroupRecommender
from repro.core.timeline import Period, Timeline, one_year_timeline
from repro.data.movielens import (
    MOVIELENS_1M_MOVIES,
    MOVIELENS_1M_RATINGS,
    MOVIELENS_1M_USERS,
    MovieLensConfig,
    generate_movielens_like,
)
from repro.data.ratings import RatingsDataset
from repro.data.social import SocialConfig, SocialNetwork, SocialNetworkGenerator
from repro.exceptions import ConfigurationError
from repro.groups.formation import GroupFormer
from repro.parallel import (
    EXECUTOR_PERSISTENT,
    EXECUTOR_SUPERVISED,
    DispatchReport,
    ExecutionPolicy,
    FaultPlan,
    GroupEvalTask,
    GroupRunRecord,
    PersistentShardExecutor,
    ShardExecutor,
    SharedArrayRegistry,
    SupervisedDispatch,
    available_cpus,
    evaluate_tasks,
    group_key,
    record_from_result,
    resolve_executor,
    run_task,
)

#: Paper defaults (Section 4.2, "Experiment Settings").
DEFAULT_N_GROUPS = 20
DEFAULT_GROUP_SIZE = 6
DEFAULT_K = 10
DEFAULT_N_ITEMS = 3_900
DEFAULT_CONSENSUS = "AP"


@dataclass(frozen=True)
class ScalabilityConfig:
    """Configuration of the shared scalability substrate.

    The defaults are scaled down from the paper (which uses the full
    MovieLens 1M catalogue) so that the benchmark suite runs in seconds; the
    paper-scale values can be requested explicitly.
    """

    n_users: int = 150
    n_items: int = 3_900
    n_ratings: int = 80_000
    n_participants: int = 48
    n_groups: int = 8
    group_size: int = DEFAULT_GROUP_SIZE
    k: int = DEFAULT_K
    consensus: str = DEFAULT_CONSENSUS
    granularity: str = "two-month"
    seed: int = 17

    def __post_init__(self) -> None:
        if self.n_participants < self.group_size:
            raise ConfigurationError("need at least group_size participants")
        if self.n_groups <= 0 or self.group_size < 2:
            raise ConfigurationError("n_groups must be positive and group_size >= 2")

    @classmethod
    def paper_scale(cls, seed: int = 17) -> "ScalabilityConfig":
        """The paper's full MovieLens-1M substrate (Section 4.2, Table 5).

        6,040 users, 3,952 movies, 1,000,209 synthetic ratings, the paper's
        20 random groups of 6 over 48 study-scale participants.  Building
        this environment takes on the order of a minute (dataset generation
        plus CF fitting), which is why it lives behind an explicit preset —
        the sharded paper-scale run (``python -m repro.experiments.runner
        --paper-scale``) and the slow MovieLens scale test are its users.
        """
        return cls(
            n_users=MOVIELENS_1M_USERS,
            n_items=MOVIELENS_1M_MOVIES,
            n_ratings=MOVIELENS_1M_RATINGS,
            n_participants=48,
            n_groups=DEFAULT_N_GROUPS,
            seed=seed,
        )


@dataclass(frozen=True)
class AccessStats:
    """Average %SA over a set of runs, with the spread reported by the paper's error bars."""

    mean_percent_sa: float
    std_error: float
    n_runs: int

    @property
    def mean_saveup(self) -> float:
        """Average percentage of accesses avoided."""
        return 100.0 - self.mean_percent_sa


def summarize_percent_sa(values: Sequence[float]) -> AccessStats:
    """Aggregate per-run %SA values into mean and standard error."""
    if not values:
        raise ConfigurationError("no %SA values to summarise")
    spread = stdev(values) / (len(values) ** 0.5) if len(values) > 1 else 0.0
    return AccessStats(mean_percent_sa=mean(values), std_error=spread, n_runs=len(values))


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point of a figure driver: a set of groups plus query knobs.

    The figure 4–8 drivers evaluate many of these; handing them to
    :meth:`ScalabilityEnvironment.run_sweep` in one list is what lets the
    parallel path batch a whole figure into a single dispatch.
    """

    groups: tuple[tuple[int, ...], ...]
    k: int | None = None
    consensus: str | ConsensusFunction | None = None
    affinity: str = "discrete"
    period: Period | None = None
    n_items: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "groups",
            tuple(tuple(int(member) for member in group) for group in self.groups),
        )
        if not self.groups:
            raise ConfigurationError("a sweep point needs at least one group")


@dataclass(frozen=True)
class EnvironmentSubstrate:
    """The raw data a :class:`ScalabilityEnvironment` is built from.

    Normally derived from a :class:`ScalabilityConfig` by :meth:`generate`;
    the incremental-update machinery injects one explicitly so a *fresh*
    environment can be built over already-merged data — the equivalence
    oracle for :meth:`ScalabilityEnvironment.apply_delta` is precisely a
    fresh environment over :meth:`with_deltas` of the base substrate.
    """

    ratings: RatingsDataset
    timeline: Timeline
    participants: tuple[int, ...]
    social: SocialNetwork

    @classmethod
    def generate(cls, config: ScalabilityConfig) -> "EnvironmentSubstrate":
        """The config-driven synthetic substrate (the historical default)."""
        ratings = generate_movielens_like(
            MovieLensConfig(
                n_users=config.n_users,
                n_items=config.n_items,
                n_ratings=config.n_ratings,
                seed=config.seed,
            )
        )
        timeline = one_year_timeline(granularity=config.granularity)
        participants = tuple(ratings.users[: config.n_participants])
        social = SocialNetworkGenerator(SocialConfig(seed=config.seed)).generate(
            participants, timeline
        )
        return cls(
            ratings=ratings, timeline=timeline, participants=participants, social=social
        )

    def with_deltas(self, deltas) -> "EnvironmentSubstrate":
        """The substrate after applying ``deltas`` in order (by full merge).

        Each delta contributes ``ratings``, ``page_likes`` and optionally a
        ``new_period`` (the :class:`~repro.updates.deltas.RatingDelta`
        shape).  The participants are carried over explicitly — they are a
        prefix of the *base* user set and must not drift when a delta
        introduces new users.
        """
        ratings, social, timeline = self.ratings, self.social, self.timeline
        for delta in deltas:
            if delta.new_period is not None:
                timeline = timeline.extended(delta.new_period)
            if delta.ratings:
                ratings = ratings.extended(delta.ratings)
            if delta.page_likes:
                social = social.with_likes(delta.page_likes)
        return EnvironmentSubstrate(
            ratings=ratings,
            timeline=timeline,
            participants=self.participants,
            social=social,
        )


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`ScalabilityEnvironment.apply_delta` call did.

    ``full_rebuild`` reports whether the CF substrate took the incremental
    path (in-place cell writes + partial refit) or fell back to a full
    predictor re-fit (a delta introducing unseen users or items changes the
    matrix shape).  Either way the resulting state is bit-identical to a
    fresh environment over the merged substrate.  ``changed_users`` are the
    cached-apref users whose values actually moved; ``invalidated_groups``
    the memoised group keys dropped because of them (or of an affinity
    change); ``retired_segments`` the shm segments unlinked because their
    exports died with those memos.
    """

    epoch: int
    touched_users: tuple[int, ...]
    changed_users: tuple[int, ...]
    invalidated_groups: tuple[tuple[int, ...], ...]
    retired_segments: tuple[str, ...]
    full_rebuild: bool
    affinity_changed: bool


class ScalabilityEnvironment:
    """Shared substrate for Figures 5-8: data, recommender and group pool."""

    def __init__(
        self,
        config: ScalabilityConfig | None = None,
        substrate: EnvironmentSubstrate | None = None,
    ) -> None:
        self.config = config or ScalabilityConfig()
        config = self.config

        if substrate is None:
            substrate = EnvironmentSubstrate.generate(config)
        self.ratings: RatingsDataset = substrate.ratings
        self.timeline: Timeline = substrate.timeline
        self.participants: tuple[int, ...] = substrate.participants
        self.social: SocialNetwork = substrate.social
        #: Epoch counter: 0 for the base substrate, +1 per applied delta.
        self.epoch = 0
        self.recommender = GroupRecommender(
            ratings=self.ratings,
            social=self.social,
            timeline=self.timeline,
            affinity_universe=self.participants,
        ).fit()
        self.former = GroupFormer(self.ratings, candidates=self.participants, seed=config.seed)
        self._index_factories: dict[tuple[int, ...], GrecaIndexFactory] = {}
        self._index_cache: dict[tuple, GrecaIndex] = {}
        # Full-timeline affinity columns per (group, affinity model): the
        # shippable counterpart of the per-task affinity dictionaries.  One
        # entry serves every query period of a sweep (tasks carry a period
        # prefix), and the shm registry memoises one segment per entry.
        self._affinity_columns: dict[tuple, tuple[AffinityColumns, str]] = {}
        # Parallel resources, created lazily and released by close(): one
        # warm persistent pool per worker count and one shared-memory
        # registry whose segments are shipped (once) to every dispatch.
        self._persistent_pools: dict[int, PersistentShardExecutor] = {}
        self._registry: SharedArrayRegistry | None = None
        # The report trail of every supervised dispatch this environment
        # performed.
        self.dispatch_reports: list[DispatchReport] = []
        # One reentrant lock serialises every memo/lifecycle mutation above:
        # the serving layer dispatches from worker threads while clients keep
        # materialising tasks, and unlocked check-then-set on the pool or
        # registry slot would let two threads build (and orphan) duplicates.
        self._state_lock = threading.RLock()

    # -- parallel resource ownership ---------------------------------------------------------

    def _persistent_pool(self, n_workers: int | None) -> PersistentShardExecutor:
        """The environment's warm pool for ``n_workers`` (created on first use)."""
        if n_workers is None:
            raise ConfigurationError(
                "the persistent executor needs an explicit worker count: pass n_workers"
            )
        with self._state_lock:
            pool = self._persistent_pools.get(int(n_workers))
            if pool is None:
                pool = PersistentShardExecutor(int(n_workers))
                self._persistent_pools[int(n_workers)] = pool
            return pool

    def _shared_registry(self) -> SharedArrayRegistry:
        """The environment's shm registry (recreated lazily after close())."""
        with self._state_lock:
            if self._registry is None or self._registry.closed:
                self._registry = SharedArrayRegistry()
            return self._registry

    def shm_segment_names(self) -> tuple[str, ...]:
        """Names of the live shared-memory segments this environment owns.

        Empty when no registry exists (nothing parallel has run, or
        :meth:`close` already released everything).  The serving layer's
        shutdown checks and the lifecycle tests use this to assert
        ``/dev/shm`` really is clean.
        """
        with self._state_lock:
            registry = self._registry
            if registry is None or registry.closed:
                return ()
            return registry.segment_names

    def _resolve_backend(
        self, executor: ShardExecutor | str | None, n_workers: int | None
    ) -> tuple[ShardExecutor, bool]:
        """Resolve ``executor=`` — routing ``"persistent"`` to the warm pool.

        ``"supervised"`` wraps the warm pool in a fresh
        :class:`SupervisedDispatch` under the default
        :class:`~repro.parallel.SupervisionPolicy` (a policy's
        ``supervision`` overrides it inside ``evaluate_tasks``) — a fresh
        wrapper per call (wrappers are cheap and stateless between runs)
        around the memoised pool, so supervised dispatches still reuse warm
        workers and survive :meth:`close` (the next call re-wraps whatever
        pool the environment then holds).  Returns the backend and whether
        it was built for this call alone (and must be shut down after it).
        """
        if executor == EXECUTOR_PERSISTENT:
            return self._persistent_pool(n_workers), False
        if executor == EXECUTOR_SUPERVISED:
            return SupervisedDispatch(self._persistent_pool(n_workers)), False
        backend = resolve_executor(executor, n_workers)
        return backend, backend is not executor

    def close(self) -> None:
        """Release parallel resources: shut pools down, unlink shm segments.

        Safe to call at any time (and repeatedly): the next parallel
        dispatch lazily recreates what it needs.  Serial evaluation never
        touches these resources at all.  A registry abandoned without
        ``close()`` still unlinks its segments via its ``weakref.finalize``
        backstop — this method just makes the release deterministic.
        """
        with self._state_lock:
            pools = list(self._persistent_pools.values())
            self._persistent_pools.clear()
            registry, self._registry = self._registry, None
        for pool in pools:
            pool.shutdown()
        if registry is not None:
            registry.close()

    def __enter__(self) -> "ScalabilityEnvironment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- incremental updates (epoch adoption) ------------------------------------------------

    @property
    def substrate(self) -> EnvironmentSubstrate:
        """The current raw substrate (reflecting every applied delta)."""
        with self._state_lock:
            return EnvironmentSubstrate(
                ratings=self.ratings,
                timeline=self.timeline,
                participants=self.participants,
                social=self.social,
            )

    def apply_delta(self, delta) -> DeltaReport:
        """Adopt a :class:`~repro.updates.deltas.RatingDelta` as a new epoch.

        New ratings over known users/items are written into the fitted CF
        matrix in place and the model state is partially refit (touched
        similarity rows, full gemm, means); a delta introducing unseen users
        or items falls back to a full predictor re-fit.  New page likes and
        an optional appended period extend the affinity substrate
        append-only.  Cached aprefs are patched item-wise where provably
        bit-stable, and only the memoised factories/indexes of groups whose
        inputs actually changed are dropped — the next dispatch rebuilds
        exactly those, while shm exports of the dropped memos are retired
        (unlinked) and warm pool workers purge the dead generations via the
        payload-carried floor, with **zero pool restarts**.

        The resulting environment state is bit-identical to a fresh
        ``ScalabilityEnvironment(config, substrate=old.substrate
        .with_deltas([delta]))`` — the equivalence the epoch test matrix
        enforces across serial, persistent, supervised and service paths.
        """
        with self._state_lock:
            return self._apply_delta_locked(delta)

    def _apply_delta_locked(self, delta) -> DeltaReport:
        touched = tuple(sorted({rating.user_id for rating in delta.ratings}))
        affinity_changed = bool(delta.page_likes) or delta.new_period is not None
        full_rebuild = False
        changed_users: set[int] = set()

        if delta.ratings:
            merged = self.ratings.extended(delta.ratings)
            predictor = self.recommender.predictor
            known = all(
                self.ratings.has_user(rating.user_id) and self.ratings.has_item(rating.item_id)
                for rating in delta.ratings
            )
            self.ratings = merged
            self.recommender.ratings = merged
            if known and predictor.is_fitted:
                for rating in delta.ratings:
                    predictor.matrix.set_rating(rating.user_id, rating.item_id, rating.value)
                predictor.partial_refit(touched)
                changed_users = self.recommender.refresh_aprefs(touched)
            else:
                # Shape change (new user/item row or column): rebuild the CF
                # substrate outright — identical to the oracle by construction.
                full_rebuild = True
                predictor.fit(merged)
                changed_users = self.recommender.invalidate_aprefs()

        if affinity_changed:
            timeline = self.timeline
            if delta.new_period is not None:
                timeline = timeline.extended(delta.new_period)
            social = self.social.with_likes(delta.page_likes)
            like_users = sorted({like.user_id for like in delta.page_likes})
            self.recommender.refresh_affinities(social, timeline, like_users)
            self.social = social
            self.timeline = timeline

        # Memo invalidation: a group is dirty when a member's aprefs changed
        # (its factory embeds them); any affinity change dirties every
        # affinity-column memo and every finished index.
        if full_rebuild:
            invalidated = set(self._index_factories)
        else:
            invalidated = {
                key for key in self._index_factories if changed_users.intersection(key)
            }
        for key in invalidated:
            del self._index_factories[key]
        if affinity_changed or full_rebuild:
            self._affinity_columns.clear()
            self._index_cache.clear()
        else:
            for key in [key for key in self._index_cache if key[0] in invalidated]:
                del self._index_cache[key]

        # Retire shm exports whose memos just died: their segments unlink
        # now, and the next dispatch's payloads carry the raised generation
        # floor so warm workers purge the dead caches — no pool restart.
        retired: tuple[str, ...] = ()
        if self._registry is not None and not self._registry.closed:
            retired = self._registry.retire_stale(
                live_factories=list(self._index_factories.values()),
                live_columns=[entry[0] for entry in self._affinity_columns.values()],
            )

        self.epoch += 1
        return DeltaReport(
            epoch=self.epoch,
            touched_users=touched,
            changed_users=tuple(sorted(changed_users)),
            invalidated_groups=tuple(sorted(invalidated)),
            retired_segments=retired,
            full_rebuild=full_rebuild,
            affinity_changed=affinity_changed,
        )

    # -- index reuse -----------------------------------------------------------------------------

    @staticmethod
    def _memo_key(
        group: Sequence[int], affinity: str, period: Period | None, n_items: int | None
    ) -> tuple:
        """Canonical memo key for one sweep point.

        Built exclusively from hashable, shipment-stable values: the group as
        a tuple of python ints (never the caller's list, never numpy
        integers), the affinity name as ``str`` and ``n_items`` as a plain
        ``int``.  The same canonical group key addresses the factory cache,
        so the parallel layer can ship memoised factories to workers keyed
        identically on both sides of the pickle boundary.
        """
        return (
            group_key(group),
            str(affinity),
            period,
            None if n_items is None else int(n_items),
        )

    def index_factory(self, group: Sequence[int]) -> GrecaIndexFactory:
        """The (memoised) per-group index factory over the full catalogue."""
        key = group_key(group)
        factory = self._index_factories.get(key)
        if factory is None:
            with self._state_lock:
                factory = self._index_factories.get(key)
                if factory is None:
                    factory = self.recommender.index_factory(list(group), exclude_rated=False)
                    self._index_factories[key] = factory
        return factory

    def affinity_columns(
        self, group: Sequence[int], affinity: str = "discrete"
    ) -> tuple[AffinityColumns, str]:
        """Memoised full-timeline ``(AffinityColumns, time_model)`` for one group.

        For the temporal models the columns come straight from the
        :class:`~repro.core.affinity.ComputedAffinities` columnar substrate
        (:meth:`~repro.core.affinity.ComputedAffinities.group_columns`,
        element-identical to the scalar accessors); the ablation models go
        through the dict components.  Either way a query at period index
        ``p`` uses the ``p + 1``-period prefix, bit-identical to
        :meth:`~repro.core.recommender.GroupRecommender.affinity_components`
        at that period.
        """
        key = (group_key(group), str(affinity))
        entry = self._affinity_columns.get(key)
        if entry is not None:
            return entry
        with self._state_lock:
            entry = self._affinity_columns.get(key)
            if entry is not None:
                return entry
            members = list(group)
            if affinity in ("discrete", "continuous"):
                pairs = [
                    (left, right)
                    for position, left in enumerate(members)
                    for right in members[position + 1 :]
                ]
                columns = self.recommender.computed_affinities.group_columns(pairs)
                time_model = affinity
            else:
                static, periodic, averages, time_model = self.recommender.affinity_components(
                    members, period=self.timeline.current, affinity=affinity
                )
                columns = AffinityColumns.from_components(static, periodic, averages)
            entry = (columns, time_model)
            self._affinity_columns[key] = entry
        return entry

    def cached_index(
        self,
        group: Sequence[int],
        period: Period | None = None,
        affinity: str = "discrete",
        n_items: int | None = None,
    ) -> GrecaIndex:
        """A GRECA index for one sweep point, built through the reuse layer.

        Bit-identical to ``recommender.build_index(group, period=period,
        affinity=affinity, exclude_rated=False, items=items[:n_items])`` —
        the scan-equivalence tests enforce this — but sweep points sharing a
        group reuse the columnar preference substrate, and repeated points
        reuse the index object outright.
        """
        if period is None and self.timeline is not None:
            period = self.timeline.current
        key = self._memo_key(group, affinity, period, n_items)
        index = self._index_cache.get(key)
        if index is None:
            static, periodic, averages, time_model = self.recommender.affinity_components(
                list(group), period=period, affinity=affinity
            )
            items = list(self.ratings.items[:n_items]) if n_items is not None else None
            index = self.index_factory(group).build(
                static,
                periodic=periodic,
                averages=averages,
                time_model=time_model,
                items=items,
            )
            self._index_cache[key] = index
        return index

    # -- groups ----------------------------------------------------------------------------------

    def random_groups(self, n_groups: int | None = None, group_size: int | None = None) -> list[list[int]]:
        """The paper's "20 different random groups" (counts from the config by default)."""
        return self.former.random_groups(
            n_groups or self.config.n_groups, group_size or self.config.group_size
        )

    def build_default_indexes(self) -> list:
        """Pre-built GRECA indexes for the default benchmark point.

        One index per default random group, discrete affinity model, full
        catalogue.  The perf gate (:func:`run_quick_smoke`) and the engine
        benchmark (``benchmarks/test_bench_engine.py``) both measure exactly
        this workload, so it is defined in one place.
        """
        return [self.cached_index(group) for group in self.random_groups()]

    # -- measurement ------------------------------------------------------------------------------

    def _consensus_fn(
        self, consensus: str | ConsensusFunction | None
    ) -> ConsensusFunction:
        if isinstance(consensus, ConsensusFunction):
            return consensus
        return make_consensus(consensus or self.config.consensus)

    def percent_sa(
        self,
        group: Sequence[int],
        k: int | None = None,
        consensus: str | ConsensusFunction | None = None,
        affinity: str = "discrete",
        period: Period | None = None,
        n_items: int | None = None,
    ) -> float:
        """%SA of one GRECA run for one group (index built through the reuse layer)."""
        consensus_fn = self._consensus_fn(consensus)
        index = self.cached_index(group, period=period, affinity=affinity, n_items=n_items)
        result = Greca(consensus_fn, k=k or self.config.k).run(index)
        return result.percent_sequential_accesses

    def task_for(
        self,
        group: Sequence[int],
        k: int | None = None,
        consensus: str | ConsensusFunction | None = None,
        affinity: str = "discrete",
        period: Period | None = None,
        n_items: int | None = None,
    ) -> GroupEvalTask:
        """Materialise one sweep point as a shippable :class:`GroupEvalTask`.

        Resolves everything a worker must not touch — the consensus function,
        the query period, the affinity inputs, the restricted item tuple —
        and warms the group's factory in the (memoised) factory cache, so
        dispatching the task ships the cached factory instead of rebuilding
        the preference substrate per worker.  The affinity inputs ride as a
        reference to the group's memoised full-timeline
        :meth:`affinity_columns` plus the query period's prefix length — the
        shape descriptor shipment turns into a few column-store handles.
        """
        if period is None and self.timeline is not None:
            period = self.timeline.current
        self.index_factory(group)  # warm the shared substrate before shipping
        items = (
            tuple(self.ratings.items[: int(n_items)]) if n_items is not None else None
        )
        columns, time_model = self.affinity_columns(group, affinity)
        return GroupEvalTask(
            group=group_key(group),
            k=int(k or self.config.k),
            consensus=self._consensus_fn(consensus),
            affinity_ref=columns,
            n_periods=self.timeline.index_of(period) + 1 if columns.n_periods else 0,
            time_model=time_model,
            items=items,
        )

    @property
    def last_dispatch_report(self) -> DispatchReport | None:
        """The most recent supervised dispatch's report, if any dispatch ran supervised."""
        return self.dispatch_reports[-1] if self.dispatch_reports else None

    def evaluate(
        self,
        tasks: Sequence[GroupEvalTask],
        policy: ExecutionPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> list[GroupRunRecord]:
        """Evaluate materialised tasks, serially or through the sharded layer.

        Under the default (serial) policy the tasks run in-process in task
        order through the same ``factory.build_columns`` + :class:`Greca`
        path the workers use — the serial reference semantics.  A policy
        with ``n_workers`` (and/or an ``executor``: ``"serial"``,
        ``"persistent"``, ``"supervised"`` or an instance) partitions the
        tasks into shards, each worker receives its shard's group factories
        — by zero-copy descriptor for the process-crossing backends, the
        environment's registry owning the segments — and the per-shard
        records are merged back deterministically in task order,
        bit-identical to the serial run (``tests/test_parallel_equivalence.py``).
        ``executor="persistent"`` reuses one warm worker pool per worker
        count across calls (released by :meth:`close`);
        ``executor="supervised"`` adds the fault-tolerant dispatch tier on
        top of that warm pool, under the default supervision policy.  Each
        supervised dispatch appends its
        :class:`~repro.parallel.DispatchReport` to :attr:`dispatch_reports`.
        A policy ``supervision`` (a
        :class:`~repro.parallel.SupervisionPolicy`) tunes the supervised
        tier or supervises a pool of the call's own, and ``fault_plan=``
        injects deterministic faults (the chaos suite's hook).  Serial
        evaluation ignores both.
        """
        policy = policy or ExecutionPolicy()
        if policy.is_serial:
            return [run_task(task, self.index_factory(task.group)) for task in tasks]
        for task in tasks:  # warm any factory not already memoised by task_for
            self.index_factory(task.group)
        backend, owned = self._resolve_backend(policy.executor, policy.n_workers)
        # Process-crossing backends ship zero-copy: the environment-owned
        # registry places each memoised factory's arrays in shared memory
        # once, and every dispatch (figure drivers, persistent-pool calls)
        # references the same segments.
        registry = self._shared_registry() if backend.ships_payloads else None
        # Snapshot the factory memo: concurrent service requests keep
        # inserting factories via task_for while this dispatch iterates the
        # map, and sharing the live dict would intermittently raise
        # "dictionary changed size during iteration" mid-dispatch.
        with self._state_lock:
            factories = dict(self._index_factories)
        try:
            return evaluate_tasks(
                tasks,
                factories,
                n_shards=policy.n_workers,
                executor=backend,
                registry=registry,
                supervision=policy.supervision,
                fault_plan=fault_plan,
                reports=self.dispatch_reports,
            )
        finally:
            if owned and isinstance(backend, PersistentShardExecutor):
                backend.shutdown()

    def run_records(
        self,
        groups: Sequence[Sequence[int]],
        k: int | None = None,
        consensus: str | ConsensusFunction | None = None,
        affinity: str = "discrete",
        period: Period | None = None,
        n_items: int | None = None,
        policy: ExecutionPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> list[GroupRunRecord]:
        """One GRECA run record per group, in group order.

        Serial (the default) goes through :meth:`cached_index`, so repeated
        sweep points reuse finished index objects outright; a sharded
        ``policy=`` ships each shard the memoised factories of its groups
        and rebuilds the per-point indexes worker-side — a bit-identical
        computation by the reuse layer's equivalence guarantee.
        """
        policy = policy or ExecutionPolicy()
        if policy.is_serial:
            consensus_fn = self._consensus_fn(consensus)
            records = []
            for group in groups:
                index = self.cached_index(
                    group, period=period, affinity=affinity, n_items=n_items
                )
                result = Greca(consensus_fn, k=k or self.config.k).run(index)
                records.append(record_from_result(group_key(group), result))
            return records
        tasks = [
            self.task_for(
                group,
                k=k,
                consensus=consensus,
                affinity=affinity,
                period=period,
                n_items=n_items,
            )
            for group in groups
        ]
        return self.evaluate(tasks, policy=policy, fault_plan=fault_plan)

    def run_sweep(
        self,
        points: Sequence[SweepPoint],
        policy: ExecutionPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> list[list[GroupRunRecord]]:
        """Evaluate many sweep points; one record list per point, in point order.

        Serial (the default) runs each point through :meth:`run_records` —
        the reference semantics, reusing finished indexes outright.  Under a
        sharded ``policy=`` every point's tasks are materialised up front and
        **batched into one dispatch**: tasks are ordered group-major (so a
        contiguous shard plan ships each group's factory — and its affinity
        columns — to as few shards as possible, one payload per (shard,
        factory) when points share their groups), evaluated once, and
        scattered back per point.  Workers loop the sweep points of a shard
        against their per-process memoised indexes instead of paying one
        dispatch per point.  Records are bit-identical to the per-point
        serial runs (``tests/test_parallel_equivalence.py``).
        """
        policy = policy or ExecutionPolicy()
        if policy.is_serial:
            return [
                self.run_records(
                    point.groups,
                    k=point.k,
                    consensus=point.consensus,
                    affinity=point.affinity,
                    period=point.period,
                    n_items=point.n_items,
                )
                for point in points
            ]
        entries = []  # (group key, point index, position within point, task)
        for point_index, point in enumerate(points):
            for position, group in enumerate(point.groups):
                task = self.task_for(
                    group,
                    k=point.k,
                    consensus=point.consensus,
                    affinity=point.affinity,
                    period=point.period,
                    n_items=point.n_items,
                )
                entries.append((task.group, point_index, position, task))
        entries.sort(key=lambda entry: entry[:3])
        records = self.evaluate(
            [entry[3] for entry in entries], policy=policy, fault_plan=fault_plan
        )
        results: list[list[GroupRunRecord]] = [
            [None] * len(point.groups) for point in points  # type: ignore[list-item]
        ]
        for (_, point_index, position, _task), record in zip(entries, records):
            results[point_index][position] = record
        return results

    def average_percent_sa(
        self,
        groups: Sequence[Sequence[int]],
        k: int | None = None,
        consensus: str | ConsensusFunction | None = None,
        affinity: str = "discrete",
        period: Period | None = None,
        n_items: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> AccessStats:
        """Average %SA over a collection of groups (one GRECA run each).

        A sharded ``policy=`` routes the runs through the sharded layer; the
        per-group %SA values are merged back in group order before
        averaging, so the reported mean and standard error are bit-identical
        to the serial run.
        """
        records = self.run_records(
            groups,
            k=k,
            consensus=consensus,
            affinity=affinity,
            period=period,
            n_items=n_items,
            policy=policy,
        )
        return summarize_percent_sa([record.percent_sa for record in records])


@contextmanager
def owned_environment(
    environment: ScalabilityEnvironment | None,
    config: ScalabilityConfig | None = None,
) -> Iterator[ScalabilityEnvironment]:
    """The figure drivers' environment-ownership contract, in one place.

    A caller-supplied environment passes through untouched (the caller
    releases it); a driver-built one is closed on the way out — normal
    return, exception or interrupt alike — so a failure mid-figure can
    never leak a persistent pool or ``/dev/shm`` segments.  This is the
    same try/finally parity :func:`run_quick_smoke` and
    :func:`run_paper_scale` follow.
    """
    owns = environment is None
    environment = environment if environment is not None else ScalabilityEnvironment(config)
    try:
        yield environment
    finally:
        if owns:
            environment.close()


# -- perf smoke gate ----------------------------------------------------------------------------

#: Default wall-clock budgets for :func:`run_quick_smoke` (seconds).  The
#: measurement budget is calibrated against the batched columnar engine
#: (~0.25 s for the 8 default groups, see BENCH_engine.json): a regression
#: back to per-entry speed (~1.3 s) blows it with margin, while normal CI
#: noise does not.
QUICK_SMOKE_TOTAL_BUDGET = 20.0
QUICK_SMOKE_MEASURE_BUDGET = 1.0


@dataclass(frozen=True)
class QuickSmokeResult:
    """Outcome of the one-point scalability smoke run."""

    stats: AccessStats
    setup_seconds: float
    measure_seconds: float
    total_budget: float
    measure_budget: float
    n_workers: int | None = None
    sharded: bool = False

    @property
    def within_budget(self) -> bool:
        """``True`` when both the total and the measurement budget held."""
        total = self.setup_seconds + self.measure_seconds
        return total <= self.total_budget and self.measure_seconds <= self.measure_budget

    def format_summary(self) -> str:
        """One-paragraph human-readable summary for the CLI."""
        verdict = "OK" if self.within_budget else "OVER BUDGET"
        if not self.sharded:
            workers = "serial"
        elif self.n_workers is not None:
            workers = f"{self.n_workers} workers"
        else:
            workers = "sharded"  # custom executor, worker count unknown here
        return (
            f"quick smoke [{verdict}]: mean %SA={self.stats.mean_percent_sa:.2f} "
            f"(±{self.stats.std_error:.2f}, {self.stats.n_runs} groups, {workers}) | "
            f"setup {self.setup_seconds:.2f}s + measure {self.measure_seconds:.2f}s "
            f"(budgets: total {self.total_budget:.0f}s, measure {self.measure_budget:.1f}s)"
        )


def run_quick_smoke(
    total_budget: float = QUICK_SMOKE_TOTAL_BUDGET,
    measure_budget: float = QUICK_SMOKE_MEASURE_BUDGET,
    config: ScalabilityConfig | None = None,
    policy: ExecutionPolicy | None = None,
) -> QuickSmokeResult:
    """Run one default scalability point under a wall-clock budget.

    This is the fail-fast perf gate (``make bench`` /
    ``python -m repro.experiments.runner --quick``): it builds the shared
    substrate, measures GRECA's average %SA over the default groups at the
    paper's 3,900-item point, and reports whether the setup-plus-measurement
    time fits the budgets.  Callers (the Makefile, CI) should fail when
    :attr:`QuickSmokeResult.within_budget` is ``False``.

    Serial (the default, and what the budgets are calibrated against)
    measures the engine alone over pre-built indexes.  Under a sharded
    ``policy=`` the measured phase instead routes the same groups through the
    sharded layer, so it additionally covers shard planning, factory shipment
    and the order-restoring merge — the statistics are bit-identical either
    way.
    """
    start = time.perf_counter()
    policy = policy or ExecutionPolicy()
    environment = ScalabilityEnvironment(config)
    try:
        return _run_quick_smoke(
            environment, start, total_budget, measure_budget, policy
        )
    finally:
        environment.close()  # release any persistent pool / shm segments


def _run_quick_smoke(
    environment: ScalabilityEnvironment,
    start: float,
    total_budget: float,
    measure_budget: float,
    policy: ExecutionPolicy,
) -> QuickSmokeResult:
    consensus = make_consensus(environment.config.consensus)
    # One draw of the default groups serves both paths (random_groups draws
    # fresh groups per call).
    groups = environment.random_groups()
    serial = policy.is_serial
    if serial:
        # cached_index pre-builds exactly what build_default_indexes would.
        indexes = [environment.cached_index(group) for group in groups]
    else:
        # The sharded path never touches finished indexes — workers rebuild
        # them from the factories — so setup only warms what ships.
        for group in groups:
            environment.index_factory(group)
    setup_seconds = time.perf_counter() - start

    if serial:
        # Measure the engine only: indexes are pre-built, so the measured
        # phase is exactly what BENCH_engine.json tracks (list build +
        # algorithm + result).
        start = time.perf_counter()
        results = [Greca(consensus, k=environment.config.k).run(index) for index in indexes]
        measure_seconds = time.perf_counter() - start
        values = [result.percent_sequential_accesses for result in results]
    else:
        start = time.perf_counter()
        records = environment.run_records(groups, policy=policy)
        measure_seconds = time.perf_counter() - start
        values = [record.percent_sa for record in records]
    stats = summarize_percent_sa(values)
    return QuickSmokeResult(
        stats=stats,
        setup_seconds=setup_seconds,
        measure_seconds=measure_seconds,
        total_budget=total_budget,
        measure_budget=measure_budget,
        n_workers=policy.n_workers,
        sharded=not serial,
    )


# -- paper-scale sharded run --------------------------------------------------------------------


@dataclass(frozen=True)
class PaperScaleResult:
    """Serial-vs-sharded comparison over the full MovieLens-1M-scale substrate.

    The workload is the paper's Figure 6 sweep at Table 5 scale: every
    default random group evaluated at every query period of the timeline
    (``n_tasks = n_groups × n_periods`` GRECA runs over the 6,040 × 3,952
    synthetic substrate).  ``identical`` asserts the sharded records match
    the serial ones bit-for-bit; ``speedup`` is wall-clock serial over
    sharded.  Meaningful speedups require actual cores — ``n_cpus`` records
    how many this host granted, and on a single-CPU host the sharded run
    measures pure overhead (expect ``speedup < 1``; the ≥ 1.5× target at 4
    workers applies to hosts with ≥ 4 usable cores).
    """

    stats: AccessStats
    serial_seconds: float
    sharded_seconds: float
    setup_seconds: float
    n_workers: int
    n_tasks: int
    n_groups: int
    n_periods: int
    n_cpus: int
    sa_checksum: int
    identical: bool

    @property
    def speedup(self) -> float:
        """Serial wall time over sharded wall time."""
        if self.sharded_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.sharded_seconds

    def format_summary(self) -> str:
        """One-paragraph human-readable summary for the CLI."""
        verdict = "bit-identical" if self.identical else "MISMATCH"
        return (
            f"paper scale [{verdict}]: {self.n_tasks} runs "
            f"({self.n_groups} groups × {self.n_periods} periods) | "
            f"serial {self.serial_seconds:.2f}s vs sharded {self.sharded_seconds:.2f}s "
            f"@ {self.n_workers} workers on {self.n_cpus} cpu(s) "
            f"→ speedup {self.speedup:.2f}× | mean %SA={self.stats.mean_percent_sa:.2f}, "
            f"SA checksum {self.sa_checksum}"
        )


def run_paper_scale(
    policy: ExecutionPolicy | None = None,
    config: ScalabilityConfig | None = None,
    environment: ScalabilityEnvironment | None = None,
) -> PaperScaleResult:
    """Run the full MovieLens-1M-scale substrate through the sharded path.

    Builds the :meth:`ScalabilityConfig.paper_scale` environment (unless one
    is supplied), materialises the all-periods × all-groups task list once,
    then times the serial reference evaluation against one sharded dispatch
    under ``policy`` (default: 4 workers) and verifies the merged records
    are bit-identical.  ``python -m repro.experiments.runner --paper-scale``
    prints the outcome.
    """
    start = time.perf_counter()
    policy = policy or ExecutionPolicy(n_workers=4)
    if policy.n_workers is None:
        raise ConfigurationError("run_paper_scale needs a policy with n_workers")
    owns_environment = environment is None
    if environment is None:
        environment = ScalabilityEnvironment(config or ScalabilityConfig.paper_scale())
    try:
        return _run_paper_scale(environment, start, policy)
    finally:
        if owns_environment:
            environment.close()


def _run_paper_scale(
    environment: ScalabilityEnvironment, start: float, policy: ExecutionPolicy
) -> PaperScaleResult:
    groups = environment.random_groups()
    periods = list(environment.timeline)
    # Group-major order keeps each group's tasks contiguous, so a contiguous
    # shard plan ships every factory to at most two shards instead of all of
    # them — shipment cost is the sharded path's main overhead at this scale.
    tasks = [
        environment.task_for(group, period=period)
        for group in groups
        for period in periods
    ]
    setup_seconds = time.perf_counter() - start

    start = time.perf_counter()
    serial_records = environment.evaluate(tasks)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded_records = environment.evaluate(tasks, policy=policy)
    sharded_seconds = time.perf_counter() - start

    stats = summarize_percent_sa([record.percent_sa for record in sharded_records])
    return PaperScaleResult(
        stats=stats,
        serial_seconds=serial_seconds,
        sharded_seconds=sharded_seconds,
        setup_seconds=setup_seconds,
        n_workers=policy.n_workers,
        n_tasks=len(tasks),
        n_groups=len(groups),
        n_periods=len(periods),
        n_cpus=available_cpus(),
        sa_checksum=sum(record.sequential_accesses for record in sharded_records),
        identical=sharded_records == serial_records,
    )
