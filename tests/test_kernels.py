"""The GRECA round kernel and the allocation/pooling behaviour of ``Greca.run``.

:mod:`repro.core.kernels` holds the one round kernel.  This suite pins down
its name seam (the only name resolves, anything else raises, and the class
it resolves is the one ``Greca`` runs — the class ``perfbench/trace.py``
times), its drained-list edge cases, and the allocation regressions: the
round state is allocated once per run, and sibling indexes share one pooled
candidate buffer.
"""

from __future__ import annotations

import numpy as np
import pytest

from engine_grid import GRECA_CASES, greca_case_inputs
from test_engine_properties import MAX_APREF, assert_greca_results_identical, random_case

from repro.core.bounds import PairwiseAffinityBounds
from repro.core.consensus import AVERAGE_PREFERENCE, make_consensus
from repro.core.greca import Greca, GrecaIndex, GrecaIndexFactory
from repro.core.kernels import kernel_names, make_round_state, resolve_kernel
from repro.core.lists import AccessCounter


def run_case(case: dict):
    """One golden-grid case on a fresh index."""
    algorithm = Greca(
        make_consensus(case["consensus"]), k=case["k"], check_interval=case["check_interval"]
    )
    return algorithm.run(GrecaIndex(**greca_case_inputs(case)))


def pair_free_index() -> GrecaIndex:
    """A two-member group with *no* affinity data at all (empty pair lists)."""
    items = list(range(200, 212))
    aprefs = {
        member: {item: ((item * 7 + member * 13) % 50) / 10.0 for item in items}
        for member in (1, 2)
    }
    return GrecaIndex(members=[1, 2], aprefs=aprefs, static={}, periodic={}, averages={})


# -- the name seam ------------------------------------------------------------------------------


@pytest.mark.parametrize("bogus", ["warp", "FUSED", "cuda", "reference ", ""])
def test_unknown_kernel_raises_value_error(bogus):
    """Only the one kernel's exact name resolves; the error lists it."""
    with pytest.raises(ValueError, match=r"unknown kernel .*\('reference',\)"):
        resolve_kernel(bogus)


@pytest.mark.parametrize("case", GRECA_CASES[:4], ids=lambda case: case["case_id"])
def test_grid_default_kernel_is_the_reference_tier(case, monkeypatch):
    """Every round of a default ``Greca`` run goes through the resolved class."""
    reference = type(resolve_kernel("reference"))
    untouched = run_case(case)
    blocks = []
    real_advance = reference.advance

    def counting_advance(self, state, block):
        blocks.append(block)
        return real_advance(self, state, block)

    monkeypatch.setattr(reference, "advance", counting_advance)
    counted = run_case(case)
    assert sum(blocks) == counted.rounds > 0
    assert_greca_results_identical(counted, untouched)


# -- drained lists ------------------------------------------------------------------------------


def test_round_block_guards_against_drained_lists():
    """The defensive max_remaining == 0 guard yields one idle round, not a hang."""
    assert Greca._round_block(0, 0, 5) == 1
    assert Greca._round_block(0, 17, 3) == 1
    # The normal schedule: advance to the next check boundary or exhaustion.
    assert Greca._round_block(10, 0, 4) == 4
    assert Greca._round_block(10, 6, 4) == 2
    assert Greca._round_block(3, 0, 4) == 3


@pytest.mark.parametrize("kernel", kernel_names())
def test_advance_on_drained_lists_is_a_no_op(kernel):
    """Advancing fully read lists records nothing and rewrites nothing."""
    index = pair_free_index()
    counter = AccessCounter()
    preference_lists, static_lists, periodic_lists = index.build_lists(counter)
    bounds = PairwiseAffinityBounds(
        index.members,
        index.period_indices,
        index.combine,
        static_lists,
        periodic_lists,
        combine_batch=index.combine_batch,
    )
    state = make_round_state(preference_lists, bounds, len(index.members), len(index.items))
    backend = resolve_kernel(kernel)
    backend.advance(state, len(index.items))  # drain everything
    drained_sa = counter.sequential
    snapshot_low = state.apref_low.copy()
    snapshot_high = state.apref_high.copy()
    backend.advance(state, 1)  # the defensive idle round
    assert counter.sequential == drained_sa  # no phantom accesses
    assert np.array_equal(state.apref_low, snapshot_low)
    assert np.array_equal(state.apref_high, snapshot_high)
    assert state.rounds == len(index.items) + 1


def test_k_larger_than_a_pair_free_catalogue_is_clamped():
    """No affinity lists at all, and k > n_items: clamp to the catalogue."""
    run = Greca(make_consensus("MO"), k=50).run(pair_free_index())
    assert run.k == 12 and len(run.items) == 12


# -- allocation regressions ---------------------------------------------------------------------


class _CountingNumpy:
    """A numpy facade that counts ``zeros``/``empty`` allocations."""

    def __init__(self):
        self.zeros_calls = 0
        self.empty_calls = 0

    def zeros(self, *args, **kwargs):
        self.zeros_calls += 1
        return np.zeros(*args, **kwargs)

    def empty(self, *args, **kwargs):
        self.empty_calls += 1
        return np.empty(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def test_round_state_allocations_are_independent_of_check_count(monkeypatch):
    """The round state is allocated once per run, not once per check.

    ``check_interval=1`` evaluates the stopping conditions every round;
    the kernels module must still allocate exactly the fixed
    :class:`~repro.core.kernels.RoundState` arrays (3 ``zeros`` + 3
    ``empty``) it allocates under the adaptive interval.
    """
    from repro.core import kernels as kernels_module

    index = pair_free_index()
    counts = {}
    for label, interval in (("adaptive", None), ("every-round", 1)):
        counting = _CountingNumpy()
        monkeypatch.setattr(kernels_module, "np", counting)
        try:
            Greca(AVERAGE_PREFERENCE, k=3, check_interval=interval).run(index)
        finally:
            monkeypatch.setattr(kernels_module, "np", np)
        counts[label] = (counting.zeros_calls, counting.empty_calls)
    assert counts["adaptive"] == counts["every-round"] == (3, 3)


def test_candidate_buffer_is_pooled_across_factory_runs(monkeypatch):
    """Sibling indexes from one factory share one pooled candidate buffer."""
    from repro.core import greca as greca_module

    constructions = []
    real_buffer = greca_module.ColumnarCandidateBuffer

    class CountingBuffer(real_buffer):
        def __init__(self, *args, **kwargs):
            constructions.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(greca_module, "ColumnarCandidateBuffer", CountingBuffer)

    case = random_case(11)
    factory = GrecaIndexFactory(case["members"], case["aprefs"], max_apref=MAX_APREF)
    algorithm = Greca(make_consensus(case["consensus"]), k=case["k"])
    first = factory.build(
        case["static"],
        periodic=case["periodic"],
        averages=case["averages"],
        time_model=case["time_model"],
    )
    second = factory.build(case["static"], time_model=case["time_model"])
    results = [algorithm.run(first), algorithm.run(second), algorithm.run(first)]
    assert len(constructions) == 1  # one allocation serves every sibling run
    assert all(result.k == min(case["k"], len(factory.items)) for result in results)


def test_restricted_indexes_do_not_share_the_pool():
    """Item-restricted siblings live in a different universe: no pooled buffer."""
    case = random_case(4)
    factory = GrecaIndexFactory(case["members"], case["aprefs"], max_apref=MAX_APREF)
    full = factory.build(case["static"], time_model=case["time_model"])
    subset = sorted(case["items"])[: max(2, len(case["items"]) // 2)]
    restricted = factory.build(case["static"], time_model=case["time_model"], items=subset)
    assert restricted.catalogue.buffer_pool is not full.catalogue.buffer_pool
    algorithm = Greca(make_consensus("AP"), k=2)
    run_full = algorithm.run(full)
    run_restricted = algorithm.run(restricted)
    assert set(run_restricted.items) <= set(subset)
    assert len(run_full.items) == len(run_restricted.items) == 2
