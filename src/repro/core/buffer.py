"""Candidate buffer used by GRECA (Section 3.2, "Buffer Management Strategy").

The buffer holds every item encountered so far together with its current
lower- and upper-bound consensus scores.  GRECA's novel termination condition
is expressed purely in terms of the buffer: it can stop as soon as the buffer
holds at least ``k`` items and the ``k``-th largest lower bound is no smaller
than the upper bound of every other buffered item (and, to also rule out
items never encountered, no smaller than the global threshold).  The test
itself lives in :meth:`repro.core.greca.Greca._check_stop`.

Storage is *columnar*: :class:`ColumnarCandidateBuffer` keeps one contiguous
float64 array per bound plus an item registry, so bulk refreshes are single
array assignments and the ranking queries run as vectorised selections.
:func:`select_top_k` is the one top-k selection: GRECA's stopping check and
the buffer's :meth:`~ColumnarCandidateBuffer.top_k` both call it, so the
items the stop test protects are exactly the items the answer returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.lists import repr_tie_break_ranks
from repro.exceptions import AlgorithmError

_TOLERANCE = 1e-9


def select_top_k(lower: np.ndarray, ranks: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best entries of ``lower``, best first.

    Entries rank by decreasing lower bound, and equal lower bounds rank by
    ``ranks`` (the ``repr`` tie-break ranking of their items) — the
    reproduction's one ordering of candidates.  ``np.partition`` finds the
    ``k``-th value in linear time and every entry tied with it is kept, so
    the final ``np.lexsort`` sorts only about ``k`` entries.  Fewer than
    ``k`` entries come back when there are fewer than ``k``.
    """
    if lower.size > k:
        kth = np.partition(lower, lower.size - k)[lower.size - k]
        candidates = np.flatnonzero(lower >= kth)
    else:
        candidates = np.arange(lower.size)
    order = np.lexsort((ranks[candidates], -lower[candidates]))
    return candidates[order[:k]]


def _validate_bounds(item: Hashable, lower: float, upper: float) -> None:
    """Reject inverted bound pairs (single source of the invariant)."""
    if lower > upper + _TOLERANCE:
        raise AlgorithmError(
            f"item {item!r}: lower bound {lower} exceeds upper bound {upper}"
        )


@dataclass(frozen=True)
class BufferedItem:
    """An item with its current score bounds."""

    item: Hashable
    lower: float
    upper: float

    def __post_init__(self) -> None:
        _validate_bounds(self.item, self.lower, self.upper)


class ColumnarCandidateBuffer:
    """Numpy-backed store of ``[lower, upper]`` consensus bounds per item.

    Items are registered in slots (insertion order); bounds live in parallel
    float64 arrays that grow geometrically.  A slot can be deactivated
    (pruned) and later reactivated by a fresh update.  Deterministic ordering
    follows the paper's reproduction convention: decreasing lower bound with
    ties broken by ``repr(item)``; the ``repr`` ranking is cached and only
    recomputed when the set of registered items changes.
    """

    def __init__(
        self, items: Sequence[Hashable] = (), repr_rank: np.ndarray | None = None
    ) -> None:
        self._items: list[Hashable] = list(items)
        self._slot_of: dict[Hashable, int] = {
            item: slot for slot, item in enumerate(self._items)
        }
        if len(self._slot_of) != len(self._items):
            raise AlgorithmError("buffer items must be distinct")
        capacity = max(8, len(self._items))
        self._lower = np.empty(capacity, dtype=float)
        self._upper = np.empty(capacity, dtype=float)
        self._active = np.zeros(capacity, dtype=bool)
        # Optionally seeded with a precomputed repr ranking of `items` (e.g.
        # shared with the engine's list builder); recomputed lazily otherwise.
        self._repr_rank: np.ndarray | None = None
        if repr_rank is not None:
            if len(repr_rank) != len(self._items):
                raise AlgorithmError("repr_rank must cover the registered items")
            self._repr_rank = np.asarray(repr_rank, dtype=np.int64)

    # -- storage -------------------------------------------------------------------------

    def _register(self, item: Hashable) -> int:
        slot = self._slot_of.get(item)
        if slot is not None:
            return slot
        slot = len(self._items)
        if slot >= len(self._lower):
            grow = max(2 * len(self._lower), slot + 1)
            for name in ("_lower", "_upper", "_active"):
                old = getattr(self, name)
                fresh = np.zeros(grow, dtype=old.dtype) if old.dtype == bool else np.empty(grow, dtype=old.dtype)
                fresh[: len(old)] = old
                setattr(self, name, fresh)
        self._items.append(item)
        self._slot_of[item] = slot
        self._active[slot] = False
        self._repr_rank = None  # item set changed: tie-break ranking is stale
        return slot

    def _ranks(self) -> np.ndarray:
        if self._repr_rank is None or len(self._repr_rank) != len(self._items):
            self._repr_rank = repr_tie_break_ranks(self._items)
        return self._repr_rank

    def _active_slots(self) -> np.ndarray:
        return np.flatnonzero(self._active[: len(self._items)])

    def _ordered_slots(self) -> np.ndarray:
        """Active slots by decreasing lower bound, ties by ``repr(item)``."""
        slots = self._active_slots()
        if slots.size == 0:
            return slots
        order = np.lexsort((self._ranks()[slots], -self._lower[slots]))
        return slots[order]

    # -- container protocol --------------------------------------------------------------

    def __len__(self) -> int:
        return int(self._active[: len(self._items)].sum())

    def __contains__(self, item: Hashable) -> bool:
        slot = self._slot_of.get(item)
        return slot is not None and bool(self._active[slot])

    def __iter__(self) -> Iterator[BufferedItem]:
        for slot in self._active_slots():
            yield BufferedItem(
                self._items[slot], float(self._lower[slot]), float(self._upper[slot])
            )

    # -- updates -------------------------------------------------------------------------

    def update(self, item: Hashable, lower: float, upper: float) -> None:
        """Insert or refresh the bounds of one item."""
        _validate_bounds(item, lower, upper)
        slot = self._register(item)
        self._lower[slot] = lower
        self._upper[slot] = upper
        self._active[slot] = True

    def update_many(self, bounds: Mapping[Hashable, tuple[float, float]]) -> None:
        """Bulk insert/refresh from ``{item: (lower, upper)}``."""
        for item, (lower, upper) in bounds.items():
            self.update(item, lower, upper)

    def replace_bounds(
        self, lower: np.ndarray, upper: np.ndarray, active: np.ndarray
    ) -> None:
        """Wholesale refresh against the registered item universe.

        ``lower`` / ``upper`` / ``active`` are arrays over the registration
        order of *all* known items — the fast path for engines that maintain
        bounds for a fixed catalogue and refresh every buffered item at once.
        """
        size = len(self._items)
        if lower.shape != (size,) or upper.shape != (size,) or active.shape != (size,):
            raise AlgorithmError("replace_bounds arrays must cover the registered items")
        if bool(np.any(lower[active] > upper[active] + _TOLERANCE)):
            worst = int(np.flatnonzero(active)[np.argmax((lower - upper)[active])])
            _validate_bounds(self._items[worst], float(lower[worst]), float(upper[worst]))
        self._lower[:size] = lower
        self._upper[:size] = upper
        self._active[:size] = active

    def remove(self, items: Iterable[Hashable]) -> None:
        """Drop items that have been pruned."""
        for item in items:
            slot = self._slot_of.get(item)
            if slot is not None:
                self._active[slot] = False

    # -- queries -------------------------------------------------------------------------

    def get(self, item: Hashable) -> BufferedItem | None:
        """The buffered record of ``item`` or ``None``."""
        slot = self._slot_of.get(item)
        if slot is None or not self._active[slot]:
            return None
        return BufferedItem(item, float(self._lower[slot]), float(self._upper[slot]))

    def ranked_by_lower_bound(self) -> list[BufferedItem]:
        """All buffered items sorted by decreasing lower bound (ties by item repr)."""
        return [
            BufferedItem(self._items[slot], float(self._lower[slot]), float(self._upper[slot]))
            for slot in self._ordered_slots()
        ]

    def top_k(self, k: int) -> list[BufferedItem]:
        """The ``k`` buffered items with the highest lower bounds."""
        if k <= 0:
            raise AlgorithmError("k must be positive")
        slots = self._active_slots()
        slots = slots[select_top_k(self._lower[slots], self._ranks()[slots], k)]
        return [
            BufferedItem(self._items[slot], float(self._lower[slot]), float(self._upper[slot]))
            for slot in slots
        ]

