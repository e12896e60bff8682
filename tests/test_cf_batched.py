"""The batched user-based CF kernel is bit-identical to the per-cell path.

``UserBasedCF._predict_columns`` computes whole rows (or column subsets) at
once; ``UserBasedCF._raw_prediction`` is the per-cell reference it must
reproduce bit for bit — the values feed every apref, so the goldens, the
quick-smoke %SA and the delta ≡ rebuild oracle all rest on them.  Floats are
compared through their int64 bit patterns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cf.predictors import UserBasedCF
from repro.data.ratings import MAX_RATING, MIN_RATING, Rating, dataset_from_tuples
from repro.experiments.scalability import (
    EnvironmentSubstrate,
    ScalabilityConfig,
    ScalabilityEnvironment,
)
from repro.updates import RatingDelta, random_deltas


def per_cell_row(predictor: UserBasedCF, row: int) -> np.ndarray:
    """One user's clipped predictions through the per-cell path only."""
    similarities, baseline = predictor._prediction_inputs(row)
    cells = [
        predictor._raw_prediction(row, col, similarities, baseline)
        for col in range(len(predictor.matrix.items))
    ]
    return np.clip(np.array(cells), MIN_RATING, MAX_RATING)


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    differing = np.flatnonzero(actual.view(np.int64) != expected.view(np.int64))
    assert differing.size == 0, f"columns {differing[:10]} differ"


def assert_predictor_exact(predictor: UserBasedCF) -> None:
    """Every user × item, full rows and a column subset, against the oracle."""
    matrix = predictor.matrix
    values = matrix.values
    for col in range(values.shape[1]):  # the rater index is the rated mask
        raters = predictor._raters[predictor._rater_ptr[col] : predictor._rater_ptr[col + 1]]
        assert np.array_equal(raters, np.flatnonzero(values[:, col] > 0))
    rng = np.random.default_rng(len(matrix.users))
    for user in matrix.users:
        row = matrix.user_position(user)
        expected = per_cell_row(predictor, row)
        everything = predictor.predict_all(user)
        assert list(everything) == list(matrix.items)
        assert_bits_equal(np.array(list(everything.values())), expected)
        subset = rng.choice(len(matrix.items), size=max(1, len(matrix.items) // 3), replace=False)
        items = [matrix.items[col] for col in subset]
        partial = predictor.predict_for_items(user, items)
        assert list(partial) == items
        assert_bits_equal(np.array(list(partial.values())), expected[subset])


def test_default_substrate_rows_are_exact():
    substrate = EnvironmentSubstrate.generate(ScalabilityConfig())
    assert_predictor_exact(UserBasedCF().fit(substrate.ratings))


@pytest.mark.parametrize("k_neighbors", (None, 1, 40))
@pytest.mark.parametrize("min_similarity", (0.0, 0.3))
def test_fixture_rows_are_exact(small_ratings, k_neighbors, min_similarity):
    predictor = UserBasedCF(k_neighbors=k_neighbors, min_similarity=min_similarity)
    assert_predictor_exact(predictor.fit(small_ratings))


def test_toy_rows_are_exact(toy_ratings):
    for k_neighbors in (None, 1, 2):
        assert_predictor_exact(UserBasedCF(k_neighbors=k_neighbors).fit(toy_ratings))


def test_rows_stay_exact_across_deltas_and_a_full_rebuild():
    """Three seeded deltas (one appends a period), then a new user's rating."""
    config = ScalabilityConfig(
        n_users=40, n_items=150, n_ratings=1_600, n_participants=12, n_groups=3, seed=5
    )
    substrate = EnvironmentSubstrate.generate(config)
    environment = ScalabilityEnvironment(config, substrate=substrate)
    recommender = environment.recommender
    for user in environment.participants:
        recommender.aprefs_of(user)
    deltas = random_deltas(
        substrate.ratings, substrate.social, substrate.timeline,
        n_deltas=3, seed=7, new_period_every=2,
    )
    stranger = max(substrate.ratings.users) + 1_000
    deltas.append(
        RatingDelta(ratings=(Rating(stranger, substrate.ratings.items[0], 4.0, substrate.timeline.end),))
    )
    assert any(delta.new_period is not None for delta in deltas)
    for delta in deltas:
        report = environment.apply_delta(delta)
        predictor = recommender.predictor
        assert_predictor_exact(predictor)
        for user in environment.participants:  # patched caches equal fresh rows
            fresh = predictor.predict_all(user)
            assert recommender.aprefs_of(user) == fresh
            assert_bits_equal(recommender._apref_row(user), np.array(list(fresh.values())))
    assert report.full_rebuild
    environment.close()


def test_tied_similarities_take_the_per_cell_path(monkeypatch):
    """Users 2 and 3 rate identically, so user 1's similarities to them tie;
    with k=2, items rated by users 2-5 need the per-cell fallback."""
    rows = [(1, 1, 5.0), (1, 2, 3.0), (1, 3, 1.0)]
    for user in (2, 3):
        rows += [(user, 1, 4.0), (user, 2, 2.0), (user, 4, 5.0), (user, 5, 1.0)]
    rows += [(4, 1, 2.0), (4, 4, 3.0), (4, 5, 4.0), (5, 2, 5.0), (5, 4, 1.0), (5, 5, 2.0)]
    predictor = UserBasedCF(k_neighbors=2).fit(dataset_from_tuples(rows))
    similarities = predictor._similarity[0]
    assert similarities[1] == similarities[2] > 0

    fallback_cells = []
    per_cell = UserBasedCF._raw_prediction

    def counting(self, row, col, sims, baseline):
        fallback_cells.append((row, col))
        return per_cell(self, row, col, sims, baseline)

    monkeypatch.setattr(UserBasedCF, "_raw_prediction", counting)
    batched = predictor._predict_columns(0, np.arange(len(predictor.matrix.items)))
    assert fallback_cells == [(0, 3), (0, 4)]  # items 4 and 5, four raters each
    monkeypatch.undo()
    assert_bits_equal(batched, per_cell_row(predictor, 0))
    assert_predictor_exact(predictor)


def test_predict_equals_predict_all_with_negative_min_similarity(small_ratings):
    """One per-cell path: neighbours with similarity in (min_similarity, 0]
    are dropped by predict exactly as by predict_all."""
    predictor = UserBasedCF(k_neighbors=20, min_similarity=-0.5).fit(small_ratings)
    for user in small_ratings.users[:10]:
        everything = predictor.predict_all(user)
        for item in small_ratings.items:
            single = predictor.predict(user, item)
            assert np.float64(single).view(np.int64) == np.float64(everything[item]).view(np.int64)


@pytest.mark.parametrize("cells", (1, 3, 17, 400))
def test_row_sums_of_a_block_equal_one_dimensional_sums(cells):
    """The numpy property the kernel rests on: ``np.sum(block, axis=1)`` over a
    C-contiguous block reduces each row with the pairwise routine of 1-D
    ``np.sum``."""
    rng = np.random.default_rng(cells)
    for width in range(1, 161):
        block = rng.normal(size=(cells, width)) * rng.uniform(0.01, 100.0, size=(cells, 1))
        rows = np.array([np.sum(block[index]) for index in range(cells)])
        assert_bits_equal(np.sum(block, axis=1), rows)
