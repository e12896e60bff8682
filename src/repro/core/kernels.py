"""The GRECA round kernel: the two array steps of every round.

:meth:`Greca.run <repro.core.greca.Greca.run>` orchestrates the paper's
round-robin as *advance lists → scatter bounds → recombine affinities →
threshold → stop check*.  The stop check and the consensus-bound algebra are
consensus-function-specific Python; the two steps in between — scattering
block reads into the ``(members × items)`` bound arrays and refreshing the
unseen suffix of every member row — are pure array work, and live here in
:class:`RoundKernel`, one per-member loop each.

A batched gather/scatter variant over packed ``(members × items)`` key and
score matrices was bit-identical but no faster on the default workloads,
and it paid for two packed copies per run, so the per-member loop is the
only kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bounds import PairwiseAffinityBounds
from repro.core.lists import SortedAccessList


@dataclass
class RoundState:
    """Plain-ndarray working state of one GRECA execution.

    Everything the kernel touches per round lives here: the in-place bound
    arrays, the affinity recombiner, and the reusable threshold columns
    (hoisted out of the round loop so repeated checks allocate nothing).
    """

    preference_lists: list[SortedAccessList]
    affinity_bounds: PairwiseAffinityBounds
    n_members: int
    n_items: int
    #: Partial preference knowledge, maintained in place.
    apref_low: np.ndarray
    apref_high: np.ndarray
    buffered: np.ndarray
    cursor_values: np.ndarray
    #: Affinity bound matrices, refreshed by ``refresh_bounds``.
    aff_low: np.ndarray = field(default=None)  # type: ignore[assignment]
    aff_high: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Reusable ``(n_members, 1)`` columns for the global-threshold consensus
    #: evaluation — allocated once here instead of once per check.
    virtual_low: np.ndarray = field(default=None)  # type: ignore[assignment]
    virtual_high: np.ndarray = field(default=None)  # type: ignore[assignment]
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.virtual_low is None:
            self.virtual_low = np.zeros((self.n_members, 1))
        if self.virtual_high is None:
            self.virtual_high = np.empty((self.n_members, 1))

    @property
    def all_lists(self) -> list[SortedAccessList]:
        """Every list the round-robin scans (preference + affinity)."""
        return list(self.preference_lists) + self.affinity_bounds.lists


def make_round_state(
    preference_lists: list[SortedAccessList],
    affinity_bounds: PairwiseAffinityBounds,
    n_members: int,
    n_items: int,
) -> RoundState:
    """Build the round state for freshly constructed (unread) lists."""
    return RoundState(
        preference_lists=preference_lists,
        affinity_bounds=affinity_bounds,
        n_members=n_members,
        n_items=n_items,
        apref_low=np.zeros((n_members, n_items)),
        apref_high=np.empty((n_members, n_items)),
        buffered=np.zeros(n_items, dtype=bool),
        cursor_values=np.empty(n_members),
    )


class RoundKernel:
    """One GRECA round step: advance the lists, then refresh the bounds."""

    def advance(self, state: RoundState, block: int) -> None:
        """Advance every list by ``block`` round-robin cycles, scattering the
        preference scores read into ``apref_low``/``apref_high`` and marking
        newly seen items in ``buffered``."""
        apref_low = state.apref_low
        apref_high = state.apref_high
        buffered = state.buffered
        for row, preference_list in enumerate(state.preference_lists):
            start = preference_list.position
            _, scores = preference_list.sequential_block(block)
            if scores.size:
                cols = preference_list.key_index[start : start + scores.size]
                apref_low[row, cols] = scores
                apref_high[row, cols] = scores
                buffered[cols] = True
        state.affinity_bounds.advance(block)
        state.rounds += block

    def refresh_bounds(self, state: RoundState) -> tuple[np.ndarray, np.ndarray]:
        """Recombine affinity bounds, refresh cursor values and the unseen
        suffix of ``apref_high``, fill the ``virtual_high`` threshold column,
        and return the ``(pref_low, pref_high)`` group-preference bounds."""
        # Bound maintenance: only pairs whose lists moved are recombined,
        # and only the unseen suffix of each member row is rewritten.
        aff_low, aff_high = state.affinity_bounds.bounds()
        state.aff_low, state.aff_high = aff_low, aff_high
        apref_low = state.apref_low
        apref_high = state.apref_high
        cursor_values = state.cursor_values
        n_items = state.n_items
        for row, preference_list in enumerate(state.preference_lists):
            cursor = preference_list.cursor_score
            cursor_values[row] = cursor
            position = preference_list.position
            if position < n_items:
                apref_high[row, preference_list.key_index[position:]] = cursor
        pref_low = apref_low + aff_low @ apref_low
        pref_high = apref_high + aff_high @ apref_high
        # Global threshold column: the best score a completely unseen item
        # could reach (virtual_low stays all-zero by construction).
        state.virtual_high[:, 0] = cursor_values + aff_high @ cursor_values
        return pref_low, pref_high


# perfbench/trace.py finds the kernel class it times through these two
# functions; they can go once the tracer patches RoundKernel directly.


def kernel_names() -> tuple[str, ...]:
    """The name of the one round kernel."""
    return ("reference",)


def resolve_kernel(name: str) -> RoundKernel:
    """The round kernel; ``name`` must be one of :func:`kernel_names`."""
    if name not in kernel_names():
        raise ValueError(f"unknown kernel {name!r}; expected one of {kernel_names()}")
    return RoundKernel()
