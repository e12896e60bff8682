"""Top-k answers when scores tie across rank k.

The tie rule: a top-k answer is right when its multiset of exact scores
equals the exhaustive scan's.  Which of several items tied on exact score at
rank k is returned is not part of the answer's meaning — GRECA ranks its
candidates by lower bound with ties broken by ``repr`` of the item id, the
baselines rank exact scores with ties broken by numeric id — so the tests
compare score multisets.

Least misery (MO) over integer-valued aprefs makes lower-bound ties at rank
k common, which is where a stopping check that ranks candidates differently
from the answer goes wrong: it tests the upper bound of a tied item the
answer keeps and never that of the tied item the answer leaves out.
"""

from __future__ import annotations

import random

import pytest

from repro.core.baseline import NaiveFullScan, ThresholdAlgorithmBaseline
from repro.core.consensus import make_consensus
from repro.core.greca import Greca, GrecaIndex
from repro.experiments.scalability import ScalabilityEnvironment

SEEDS = tuple(range(100))
CHECK_INTERVALS = (1, 2, 5)


def integer_case(seed: int) -> GrecaIndex:
    """A random MO-friendly instance: integer aprefs, coarse affinities."""
    rng = random.Random(4_400 + seed)
    members = rng.sample(range(1, 40), rng.randint(2, 6))
    # Ids of one to four digits, so `repr` order differs from numeric order.
    items = rng.sample(range(1, 2_000), rng.randint(12, 80))
    pairs = [(left, right) for i, left in enumerate(members) for right in members[i + 1 :]]
    n_periods = rng.randint(0, 3)
    return GrecaIndex(
        members=members,
        aprefs={member: {item: float(rng.randint(1, 5)) for item in items} for member in members},
        static={pair: rng.choice((0.0, 0.5, 1.0)) for pair in pairs},
        periodic={
            period: {pair: rng.choice((0.0, 0.5, 1.0)) for pair in pairs}
            for period in range(n_periods)
        },
        averages={period: 0.25 for period in range(n_periods)},
        time_model=rng.choice(("discrete", "continuous")),
        max_apref=5.0,
    )


def sorted_scores(scores) -> list[float]:
    return sorted(scores.values(), reverse=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_greca_mo_top_k_scores_match_naive_under_ties(seed):
    index = integer_case(seed)
    consensus = make_consensus("MO")
    k = random.Random(seed).randint(1, 10)
    expected = sorted_scores(NaiveFullScan(consensus, k=k).run(index).scores)
    for interval in CHECK_INTERVALS:
        result = Greca(consensus, k=k, check_interval=interval).run(index)
        assert sorted_scores(result.exact_scores) == pytest.approx(expected, abs=1e-12), (
            f"check_interval={interval}: {result.items}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_ta_mo_top_k_scores_match_naive_under_ties(seed):
    index = integer_case(seed)
    consensus = make_consensus("MO")
    k = random.Random(seed).randint(1, 10)
    expected = sorted_scores(NaiveFullScan(consensus, k=k).run(index).scores)
    ta = ThresholdAlgorithmBaseline(consensus, k=k).run(index)
    assert sorted_scores(ta.scores) == pytest.approx(expected, abs=1e-12)


def test_mo_lower_bound_tie_across_rank_k_keeps_item_79():
    """Default substrate, MO, 975 items, k=10: item 79 (0.13871) beats the
    0.13333 ties at rank k, and the answer once missed it."""
    environment = ScalabilityEnvironment()
    group = (29, 20, 16, 4, 24, 30)
    record = environment.run_records([group], k=10, consensus="MO", n_items=975)[0]
    assert 79 in record.items
    index = environment.cached_index(group, n_items=975)
    consensus = make_consensus("MO")
    naive = NaiveFullScan(consensus, k=10).run(index)
    exact = index.exact_scores_for(record.items, consensus)
    assert sorted_scores(exact) == pytest.approx(sorted_scores(naive.scores), abs=1e-12)
    environment.close()
