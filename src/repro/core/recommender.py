"""High-level group recommendation facade.

:class:`GroupRecommender` wires the substrates together — ratings dataset,
collaborative-filtering predictor, social network, timeline and affinity
models — and exposes a single :meth:`~GroupRecommender.recommend` call that
answers the paper's problem statement (Section 2.4): given an ad-hoc group
``G``, a consensus function ``F``, a period ``p`` and an integer ``k``,
return the best ``k`` itemset for the group, accounting for temporal
affinities.

Typical usage::

    recommender = GroupRecommender(ratings, social, timeline).fit()
    result = recommender.recommend(group=[12, 57, 101], k=10,
                                   consensus="PD", affinity="discrete")
    print(result.items, result.saveup)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from repro.cf.predictors import RatingPredictor, UserBasedCF
from repro.core.affinity import (
    AffinityModel,
    ComputedAffinities,
    ContinuousAffinityModel,
    DiscreteAffinityModel,
    NoAffinityModel,
    TimeAgnosticAffinityModel,
)
from repro.core.baseline import NaiveFullScan, ThresholdAlgorithmBaseline
from repro.core.consensus import ConsensusFunction, make_consensus
from repro.core.greca import (
    Greca,
    GrecaIndex,
    GrecaIndexFactory,
    ItemCatalogue,
    TIME_MODEL_CONTINUOUS,
    TIME_MODEL_DISCRETE,
    check_nonnegative,
)
from repro.core.preference import PreferenceModel
from repro.core.timeline import Period, Timeline
from repro.data.ratings import MAX_RATING, RatingsDataset
from repro.data.social import SocialNetwork
from repro.exceptions import AlgorithmError, ConfigurationError, GroupError

#: Affinity configuration names accepted by :meth:`GroupRecommender.recommend`.
AFFINITY_DISCRETE = "discrete"
AFFINITY_CONTINUOUS = "continuous"
AFFINITY_TIME_AGNOSTIC = "time-agnostic"
AFFINITY_NONE = "none"
AFFINITY_CHOICES = (
    AFFINITY_DISCRETE,
    AFFINITY_CONTINUOUS,
    AFFINITY_TIME_AGNOSTIC,
    AFFINITY_NONE,
)

#: Algorithm names accepted by :meth:`GroupRecommender.recommend`.
ALGORITHM_GRECA = "greca"
ALGORITHM_NAIVE = "naive"
ALGORITHM_TA = "ta"


@dataclass(frozen=True)
class GroupRecommendation:
    """A ranked itemset recommended to a group, with provenance metadata."""

    group: tuple[int, ...]
    items: tuple[int, ...]
    scores: Mapping[int, float]
    consensus: str
    affinity: str
    algorithm: str
    k: int
    sequential_accesses: int = 0
    random_accesses: int = 0
    total_entries: int = 0
    stopping: str = ""

    @property
    def percent_sequential_accesses(self) -> float:
        """Percentage of list entries read sequentially (``%SA``)."""
        if self.total_entries == 0:
            return 0.0
        return 100.0 * self.sequential_accesses / self.total_entries

    @property
    def saveup(self) -> float:
        """Percentage of accesses avoided compared to a full scan."""
        return 100.0 - self.percent_sequential_accesses

    def ranked(self) -> list[tuple[int, float]]:
        """``(item, score)`` pairs in recommendation order."""
        return [(item, self.scores.get(item, 0.0)) for item in self.items]


class GroupRecommender:
    """Compute temporal-affinity-aware recommendations for ad-hoc groups.

    Parameters
    ----------
    ratings:
        Collaborative rating dataset feeding the ``apref`` predictor.
    social:
        Social network providing friendships and page likes.  Optional: when
        absent only the ``"none"`` affinity configuration is available.
    timeline:
        Period discretisation of the observation history; required for the
        temporal affinity configurations.
    predictor:
        Single-user recommender producing ``apref``; defaults to user-based
        collaborative filtering with cosine similarity (the paper's choice).
    affinity_universe:
        Users over which population averages are computed; defaults to every
        user of the social network.
    """

    def __init__(
        self,
        ratings: RatingsDataset,
        social: SocialNetwork | None = None,
        timeline: Timeline | None = None,
        predictor: RatingPredictor | None = None,
        affinity_universe: Sequence[int] | None = None,
    ) -> None:
        self.ratings = ratings
        self.social = social
        self.timeline = timeline
        self.predictor = predictor if predictor is not None else UserBasedCF()
        self.affinity_universe = tuple(affinity_universe) if affinity_universe else None
        self._computed: ComputedAffinities | None = None
        # Each cached user's aprefs twice: the predictor's mapping, which
        # aprefs_of hands out, and a float64 row aligned with the catalogue,
        # which index_factory stacks.  refresh_aprefs patches both together.
        self._apref_cache: dict[int, dict[int, float]] = {}
        self._apref_rows: dict[int, np.ndarray] = {}
        self._catalogue: ItemCatalogue | None = None

    # -- fitting --------------------------------------------------------------------------

    def fit(self) -> "GroupRecommender":
        """Fit the ``apref`` predictor and pre-compute social affinities."""
        if not self.predictor.is_fitted:
            self.predictor.fit(self.ratings)
        if self.social is not None and self.timeline is not None:
            universe = self.affinity_universe or self.social.users
            self._computed = ComputedAffinities(self.social, self.timeline, universe)
        return self

    @property
    def is_fitted(self) -> bool:
        """``True`` once :meth:`fit` has been called."""
        return self.predictor.is_fitted

    @property
    def computed_affinities(self) -> ComputedAffinities:
        """The pre-computed affinity components (requires social + timeline)."""
        if self._computed is None:
            raise ConfigurationError(
                "no affinity data available: provide a social network and a timeline, "
                "then call fit()"
            )
        return self._computed

    # -- affinity models --------------------------------------------------------------------

    def affinity_model(self, affinity: str = AFFINITY_DISCRETE) -> AffinityModel:
        """Build the affinity model named by ``affinity`` (see AFFINITY_CHOICES)."""
        if affinity == AFFINITY_NONE:
            return NoAffinityModel()
        computed = self.computed_affinities
        if affinity == AFFINITY_DISCRETE:
            return DiscreteAffinityModel(computed)
        if affinity == AFFINITY_CONTINUOUS:
            return ContinuousAffinityModel(computed)
        if affinity == AFFINITY_TIME_AGNOSTIC:
            return TimeAgnosticAffinityModel(computed)
        raise ConfigurationError(
            f"unknown affinity configuration {affinity!r}; expected one of {AFFINITY_CHOICES}"
        )

    def preference_model(self, affinity: str = AFFINITY_DISCRETE) -> PreferenceModel:
        """A :class:`PreferenceModel` bound to this recommender's ``apref`` source."""
        self._require_fitted()
        return PreferenceModel(self.predictor, self.affinity_model(affinity))

    # -- apref access -------------------------------------------------------------------------

    def aprefs_of(self, user_id: int) -> dict[int, float]:
        """Cached absolute preferences of one user over all items."""
        self._require_fitted()
        if user_id not in self._apref_cache:
            predictions = self.predictor.predict_all(user_id)
            self._cache_aprefs(user_id, predictions, self._row_of(predictions))
        return self._apref_cache[user_id]

    def catalogue(self) -> ItemCatalogue:
        """The item catalogue every full-catalogue factory shares.

        Built over ``ratings.items`` and rebuilt when a delta changes the
        item set, so the item tuple, column map, item objects, ``repr``
        ranking and buffer pool exist once rather than once per group.
        """
        items = self.ratings.items
        catalogue = self._catalogue
        if catalogue is None or (catalogue.items is not items and catalogue.items != items):
            catalogue = self._catalogue = ItemCatalogue(items)
        return catalogue

    def _row_of(self, predictions: Mapping[int, float]) -> np.ndarray:
        """A prediction mapping as a float64 row over the catalogue (absent ids read 0)."""
        items = self.ratings.items
        return np.fromiter(
            map(predictions.get, items, repeat(0.0)), dtype=float, count=len(items)
        )

    def _cache_aprefs(self, user_id: int, predictions: dict[int, float], row: np.ndarray) -> None:
        self._apref_rows[user_id] = row
        self._apref_cache[user_id] = predictions

    def _apref_row(self, user_id: int) -> np.ndarray:
        self.aprefs_of(user_id)
        return self._apref_rows[user_id]

    # -- incremental refresh ------------------------------------------------------

    def refresh_aprefs(self, touched_users: Sequence[int]) -> set[int]:
        """Patch the apref cache after an in-place predictor refresh.

        Call after the predictor's matrix has been updated and
        :meth:`~repro.cf.predictors.RatingPredictor.partial_refit` has run.
        Touched users — and cached users the predictor cannot patch
        item-wise — are fully recomputed; every other cached user is patched
        only on the predictor's stale items, which is bit-identical to the
        full recomputation because the predictor computes both with one
        kernel.  A changed user's mapping and row are replaced together.
        Returns the ids of cached users whose apref values actually changed,
        so callers can invalidate only the groups containing one of them.
        """
        self._require_fitted()
        if not self._apref_cache:
            return set()
        touched = set(touched_users)
        stale_items = self.predictor.stale_prediction_items(touched)
        patchable = self.predictor.patchable_users(set(self._apref_cache) - touched)
        item_col = self.catalogue().item_col
        stale_cols = np.asarray([item_col[item] for item in stale_items], dtype=np.intp)
        changed: set[int] = set()
        for user in list(self._apref_cache):
            row = self._apref_rows[user]
            if user in touched or user not in patchable:
                fresh = self.predictor.predict_all(user)
                fresh_row = self._row_of(fresh)
                if np.array_equal(fresh_row, row):
                    continue
            else:
                if not stale_cols.size:
                    continue
                patch = self.predictor.predict_for_items(user, stale_items)
                values = np.fromiter(patch.values(), dtype=float, count=len(patch))
                if np.array_equal(values, row[stale_cols]):
                    continue
                fresh = dict(self._apref_cache[user])
                fresh.update(patch)
                fresh_row = row.copy()
                fresh_row[stale_cols] = values
            changed.add(user)
            self._cache_aprefs(user, fresh, fresh_row)
        return changed

    def invalidate_aprefs(self) -> set[int]:
        """Drop every cached apref vector; returns the users that were cached.

        The full-rebuild companion of :meth:`refresh_aprefs`: after a
        predictor re-fit every cached vector is suspect, so callers treat
        the returned set as "changed".
        """
        dropped = set(self._apref_cache)
        self._apref_cache.clear()
        self._apref_rows.clear()
        return dropped

    def refresh_affinities(
        self,
        social: SocialNetwork,
        timeline: Timeline,
        touched_users: Sequence[int] = (),
    ) -> None:
        """Adopt an extended social network / timeline without a full re-fit.

        ``social`` must extend the current network by page likes only (same
        users, same friendships) and ``timeline`` must keep existing periods
        unchanged; the pre-computed affinities are then extended in place of
        a full rescan (see :meth:`ComputedAffinities.extended`), which is
        bit-identical to re-fitting on the merged history.
        """
        self.social = social
        self.timeline = timeline
        if self._computed is not None:
            self._computed = self._computed.extended(social, timeline, touched_users)
        elif self.social is not None and self.timeline is not None:
            universe = self.affinity_universe or self.social.users
            self._computed = ComputedAffinities(self.social, self.timeline, universe)

    # -- index construction ----------------------------------------------------------------------

    def affinity_components(
        self,
        group: Sequence[int],
        period: Period | None = None,
        affinity: str = AFFINITY_DISCRETE,
    ) -> tuple[
        dict[tuple[int, int], float],
        dict[int, dict[tuple[int, int], float]],
        dict[int, float],
        str,
    ]:
        """The ``(static, periodic, averages, time_model)`` inputs of a GRECA index.

        These are the per-(group, period) affinity dictionaries — cheap to
        rebuild at every sweep point, unlike the preference substrate that
        :meth:`index_factory` shares across points.
        """
        if affinity not in AFFINITY_CHOICES:
            raise ConfigurationError(
                f"unknown affinity configuration {affinity!r}; expected one of {AFFINITY_CHOICES}"
            )
        group = list(group)
        if affinity == AFFINITY_NONE:
            return {}, {}, {}, TIME_MODEL_DISCRETE

        computed = self.computed_affinities
        if period is None:
            if self.timeline is None:
                raise ConfigurationError("a timeline is required for temporal affinities")
            period = self.timeline.current
        static: dict[tuple[int, int], float] = {}
        for index, left in enumerate(group):
            for right in group[index + 1 :]:
                static[(left, right)] = computed.static_normalized(left, right)
        periodic: dict[int, dict[tuple[int, int], float]] = {}
        averages: dict[int, float] = {}
        if affinity in (AFFINITY_DISCRETE, AFFINITY_CONTINUOUS):
            for period_index, past in enumerate(computed.timeline.periods_until(period)):
                values = {}
                for index, left in enumerate(group):
                    for right in group[index + 1 :]:
                        values[(left, right)] = computed.periodic_normalized(left, right, past)
                periodic[period_index] = values
                averages[period_index] = computed.population_average_normalized(past)
            time_model = (
                TIME_MODEL_CONTINUOUS
                if affinity == AFFINITY_CONTINUOUS
                else TIME_MODEL_DISCRETE
            )
        else:  # time-agnostic: half static + half overall likes, no drift
            model = TimeAgnosticAffinityModel(computed)
            static = {}
            for index, left in enumerate(group):
                for right in group[index + 1 :]:
                    static[(left, right)] = model.affinity(left, right)
            time_model = TIME_MODEL_DISCRETE
        return static, periodic, averages, time_model

    def index_factory(
        self,
        group: Sequence[int],
        exclude_rated: bool = True,
        items: Sequence[int] | None = None,
    ) -> GrecaIndexFactory:
        """A :class:`GrecaIndexFactory` for one group's candidate universe.

        The factory stacks the members' cached apref rows into its matrix;
        combining it with :meth:`affinity_components` yields per-period /
        per-item-subset indexes without per-point substrate construction.
        Over the full catalogue it shares :meth:`catalogue`; ``exclude_rated``
        and an explicit ``items`` universe (sorted, de-duplicated, ids outside
        the catalogue reading 0.0) select columns.  The normalisation
        constant is pinned to the rating-scale maximum, so factory-derived
        indexes are bit-identical to :meth:`build_index`.
        """
        self._require_fitted()
        group = list(group)
        if len(group) < 2:
            raise GroupError("group recommendation requires at least two members")

        catalogue = self.catalogue()
        matrix = np.stack([self._apref_row(member) for member in group])
        if items is not None or exclude_rated:
            candidates = catalogue.items if items is None else sorted(set(items))
            if exclude_rated:
                rated: set[int] = set()
                for member in group:
                    if self.ratings.has_user(member):
                        rated.update(self.ratings.user_ratings(member))
                candidates = [item for item in candidates if item not in rated]
            if not candidates:
                raise AlgorithmError("no candidate items remain after exclusions")
            universe = ItemCatalogue(candidates)
            known = [item for item in candidates if item in catalogue.item_col]
            columns = np.zeros((len(group), len(candidates)))
            columns[:, [universe.item_col[item] for item in known]] = matrix[
                :, [catalogue.item_col[item] for item in known]
            ]
            catalogue, matrix = universe, columns
        check_nonnegative(group, catalogue.items, matrix)
        return GrecaIndexFactory.from_columns(group, catalogue, matrix, max_apref=MAX_RATING)

    def build_index(
        self,
        group: Sequence[int],
        period: Period | None = None,
        affinity: str = AFFINITY_DISCRETE,
        exclude_rated: bool = True,
        items: Sequence[int] | None = None,
    ) -> GrecaIndex:
        """Build the GRECA index (lists) for a group at a period.

        One-shot composition of :meth:`index_factory` and
        :meth:`affinity_components`; hold the factory instead when building
        many indexes for the same group (sweeps over periods, item subsets,
        ``k`` or consensus functions).

        Parameters
        ----------
        group:
            Ad-hoc group members.
        period:
            Query period; defaults to the most recent period of the timeline.
        affinity:
            Affinity configuration (discrete / continuous / time-agnostic / none).
        exclude_rated:
            Drop items already rated by any group member (the problem
            definition excludes items already consumed individually).
        items:
            Optional explicit candidate item universe.
        """
        static, periodic, averages, time_model = self.affinity_components(
            group, period=period, affinity=affinity
        )
        factory = self.index_factory(group, exclude_rated=exclude_rated, items=items)
        return factory.build(
            static, periodic=periodic, averages=averages, time_model=time_model
        )

    # -- recommendation ------------------------------------------------------------------------------

    def recommend(
        self,
        group: Sequence[int],
        k: int = 10,
        period: Period | None = None,
        consensus: str | ConsensusFunction = "AP",
        affinity: str = AFFINITY_DISCRETE,
        algorithm: str = ALGORITHM_GRECA,
        exclude_rated: bool = True,
        items: Sequence[int] | None = None,
    ) -> GroupRecommendation:
        """Recommend the best ``k`` itemset to ``group`` during ``period``.

        Parameters
        ----------
        group, k, period:
            The problem inputs of Section 2.4.
        consensus:
            Consensus function name (``"AP"``, ``"MO"``, ``"PD"``, ``"PD V1"``,
            ``"PD V2"``) or an explicit :class:`ConsensusFunction`.
        affinity:
            Affinity configuration (discrete / continuous / time-agnostic / none).
        algorithm:
            ``"greca"`` (default), ``"naive"`` or ``"ta"``.
        exclude_rated:
            Exclude items already rated by a group member.
        items:
            Optional explicit candidate item universe.
        """
        if algorithm not in (ALGORITHM_GRECA, ALGORITHM_NAIVE, ALGORITHM_TA):
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; expected 'greca', 'naive' or 'ta'"
            )
        consensus_fn = consensus if isinstance(consensus, ConsensusFunction) else make_consensus(consensus)
        index = self.build_index(
            group, period=period, affinity=affinity, exclude_rated=exclude_rated, items=items
        )

        if algorithm == ALGORITHM_GRECA:
            result = Greca(consensus_fn, k=k).run(index)
            return GroupRecommendation(
                group=tuple(group),
                items=result.items,
                scores=dict(result.exact_scores),
                consensus=consensus_fn.name,
                affinity=affinity,
                algorithm=algorithm,
                k=result.k,
                sequential_accesses=result.sequential_accesses,
                random_accesses=result.random_accesses,
                total_entries=result.total_entries,
                stopping=result.stopping,
            )
        if algorithm == ALGORITHM_NAIVE:
            naive = NaiveFullScan(consensus_fn, k=k).run(index)
            return GroupRecommendation(
                group=tuple(group),
                items=naive.items,
                scores=dict(naive.scores),
                consensus=consensus_fn.name,
                affinity=affinity,
                algorithm=algorithm,
                k=naive.k,
                sequential_accesses=naive.sequential_accesses,
                random_accesses=naive.random_accesses,
                total_entries=naive.total_entries,
                stopping="exhausted",
            )
        if algorithm == ALGORITHM_TA:
            ta = ThresholdAlgorithmBaseline(consensus_fn, k=k).run(index)
            return GroupRecommendation(
                group=tuple(group),
                items=ta.items,
                scores=dict(ta.scores),
                consensus=consensus_fn.name,
                affinity=affinity,
                algorithm=algorithm,
                k=ta.k,
                sequential_accesses=ta.sequential_accesses,
                random_accesses=ta.random_accesses,
                total_entries=ta.total_entries,
                stopping="threshold",
            )
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected 'greca', 'naive' or 'ta'"
        )

    # -- internals ---------------------------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self.predictor.is_fitted:
            raise ConfigurationError("the recommender is not fitted; call fit() first")
