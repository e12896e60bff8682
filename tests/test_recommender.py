"""Integration tests for the GroupRecommender facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import NaiveFullScan
from repro.core.consensus import make_consensus
from repro.core.greca import Greca, GrecaIndexFactory
from repro.core.recommender import (
    AFFINITY_CHOICES,
    GroupRecommendation,
    GroupRecommender,
)
from repro.data.ratings import MAX_RATING, Rating
from repro.exceptions import AlgorithmError, ConfigurationError, GroupError


@pytest.fixture(scope="module")
def group(recommender):
    return list(recommender.social.users[:4])


class TestConfiguration:
    def test_unfitted_recommender_raises(self, small_ratings):
        recommender = GroupRecommender(small_ratings)
        with pytest.raises(ConfigurationError):
            recommender.build_index([1, 2])
        assert not recommender.is_fitted

    def test_missing_social_data(self, small_ratings):
        recommender = GroupRecommender(small_ratings).fit()
        with pytest.raises(ConfigurationError):
            recommender.computed_affinities
        # The affinity-agnostic configuration still works.
        users = list(small_ratings.users[:3])
        result = recommender.recommend(users, k=3, affinity="none", exclude_rated=False)
        assert len(result.items) == 3

    def test_group_too_small(self, recommender):
        with pytest.raises(GroupError):
            recommender.recommend([recommender.social.users[0]], k=3)

    def test_unknown_affinity_and_algorithm(self, recommender, group):
        with pytest.raises(ConfigurationError):
            recommender.recommend(group, affinity="psychic")
        with pytest.raises(ConfigurationError):
            recommender.recommend(group, algorithm="quantum")


class TestRecommendation:
    def test_basic_recommendation(self, recommender, group):
        result = recommender.recommend(group, k=5, exclude_rated=False)
        assert isinstance(result, GroupRecommendation)
        assert len(result.items) == 5
        assert result.group == tuple(group)
        assert result.algorithm == "greca"
        assert 0.0 < result.percent_sequential_accesses <= 100.0
        assert result.saveup == pytest.approx(100.0 - result.percent_sequential_accesses)
        assert len(result.ranked()) == 5

    @pytest.mark.parametrize("affinity", AFFINITY_CHOICES)
    def test_all_affinity_configurations(self, recommender, group, affinity):
        result = recommender.recommend(group, k=3, affinity=affinity, exclude_rated=False)
        assert len(result.items) == 3
        assert result.affinity == affinity

    @pytest.mark.parametrize("consensus", ["AP", "MO", "PD", "PD V1", "PD V2"])
    def test_all_consensus_functions(self, recommender, group, consensus):
        result = recommender.recommend(group, k=3, consensus=consensus, exclude_rated=False)
        assert len(result.items) == 3

    def test_greca_matches_naive_scores(self, recommender, group):
        greca = recommender.recommend(group, k=5, algorithm="greca", exclude_rated=False)
        naive = recommender.recommend(group, k=5, algorithm="naive", exclude_rated=False)
        assert sorted(greca.scores.values()) == pytest.approx(sorted(naive.scores.values()), abs=1e-9)
        assert naive.percent_sequential_accesses == pytest.approx(100.0)
        assert greca.sequential_accesses <= naive.sequential_accesses

    def test_ta_baseline_also_agrees(self, recommender, group):
        ta = recommender.recommend(group, k=3, algorithm="ta", exclude_rated=False)
        naive = recommender.recommend(group, k=3, algorithm="naive", exclude_rated=False)
        assert sorted(ta.scores.values()) == pytest.approx(sorted(naive.scores.values()), abs=1e-9)
        assert ta.random_accesses > 0

    def test_exclude_rated_removes_member_items(self, recommender):
        # Pick lightly-active members so that unrated candidate items remain.
        light = sorted(
            recommender.social.users,
            key=lambda user: len(recommender.ratings.user_ratings(user)),
        )[:3]
        result = recommender.recommend(light, k=5, exclude_rated=True)
        rated = set()
        for member in light:
            rated.update(recommender.ratings.user_ratings(member))
        assert not set(result.items) & rated

    def test_explicit_item_universe(self, recommender, group):
        items = list(recommender.ratings.items[:30])
        result = recommender.recommend(group, k=5, items=items, exclude_rated=False)
        assert set(result.items) <= set(items)

    def test_no_candidates_left_raises(self, recommender, group):
        rated = list(recommender.ratings.user_ratings(group[0]))[:1]
        with pytest.raises(AlgorithmError):
            recommender.recommend(group, k=1, items=rated, exclude_rated=True)

    def test_period_changes_recommendations_metadata(self, recommender, group, timeline):
        early = recommender.recommend(group, k=3, period=timeline[0], exclude_rated=False)
        late = recommender.recommend(group, k=3, period=timeline.current, exclude_rated=False)
        assert early.total_entries < late.total_entries  # fewer periodic lists early on

    def test_affinity_model_factory(self, recommender):
        for name in AFFINITY_CHOICES:
            model = recommender.affinity_model(name)
            users = recommender.social.users
            value = model.affinity(users[0], users[1], recommender.timeline.current)
            assert 0.0 <= value <= 1.0

    def test_preference_model_integration(self, recommender, group, timeline):
        model = recommender.preference_model("discrete")
        item = recommender.ratings.items[0]
        pref = model.pref(group[0], item, group, timeline.current)
        assert pref >= model.apref(group[0], item) - 1e-9

    def test_aprefs_are_cached(self, recommender, group):
        first = recommender.aprefs_of(group[0])
        second = recommender.aprefs_of(group[0])
        assert first is second


class TestColumnarFactories:
    """Factories stack cached apref rows over one shared catalogue."""

    @staticmethod
    def dict_factory(recommender, group, exclude_rated, items):
        """The reference construction: per-member apref dictionaries."""
        candidates = list(items) if items is not None else list(recommender.ratings.items)
        if exclude_rated:
            rated = set()
            for member in group:
                rated.update(recommender.ratings.user_ratings(member))
            candidates = [item for item in candidates if item not in rated]
        aprefs = {
            member: {item: recommender.aprefs_of(member).get(item, 0.0) for item in candidates}
            for member in group
        }
        return GrecaIndexFactory(members=group, aprefs=aprefs, max_apref=MAX_RATING)

    @pytest.mark.parametrize("exclude_rated", (False, True))
    @pytest.mark.parametrize("explicit", (False, True))
    def test_factory_equals_the_dict_built_one(self, recommender, exclude_rated, explicit):
        # The two lightest raters, so that exclude_rated leaves candidates.
        ratings = recommender.ratings
        group = sorted(recommender.social.users, key=lambda u: len(ratings.user_ratings(u)))[:2]
        items = None
        if explicit:  # unsorted, duplicated, and one id outside the catalogue
            catalogue = recommender.ratings.items
            items = list(catalogue[40:5:-3]) + list(catalogue[10:20]) + [max(catalogue) + 7]
        built = recommender.index_factory(group, exclude_rated=exclude_rated, items=items)
        reference = self.dict_factory(recommender, group, exclude_rated, items)
        members, items_new, matrix, ranks, max_apref = built.columnar_substrate()
        members_ref, items_ref, matrix_ref, ranks_ref, max_ref = reference.columnar_substrate()
        assert (members, items_new, max_apref) == (members_ref, items_ref, max_ref)
        assert matrix.dtype == matrix_ref.dtype and matrix.flags.c_contiguous
        assert np.array_equal(matrix.view(np.int64), matrix_ref.view(np.int64))
        assert np.array_equal(np.argsort(ranks), np.argsort(ranks_ref))
        consensus = make_consensus("MO")
        for algorithm in (Greca(consensus, k=5), NaiveFullScan(consensus, k=5)):
            assert algorithm.run(built.build({})) == algorithm.run(reference.build({}))

    def test_factories_share_one_catalogue(self, recommender, social_users):
        first = recommender.index_factory(social_users[:3], exclude_rated=False)
        second = recommender.index_factory(social_users[3:7], exclude_rated=False)
        catalogue = recommender.catalogue()
        assert first.build({}).catalogue is second.build({}).catalogue is catalogue
        assert first.items is recommender.ratings.items
        prefix = recommender.ratings.items[:30]
        left = first.build({}, items=prefix).catalogue
        right = second.build({}, items=list(reversed(prefix))).catalogue
        assert left is right and left.items == tuple(prefix)

    def test_catalogue_follows_the_item_set(self, small_ratings):
        recommender = GroupRecommender(small_ratings).fit()
        before = recommender.catalogue()
        assert recommender.catalogue() is before
        new_item = max(small_ratings.items) + 1
        user = small_ratings.users[0]
        recommender.ratings = small_ratings.extended([Rating(user, new_item, 4.0, 10)])
        after = recommender.catalogue()
        assert after is not before and new_item in after.item_col
        factory = recommender.index_factory(list(small_ratings.users[:2]), exclude_rated=False)
        assert factory.items == recommender.ratings.items
