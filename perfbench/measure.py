"""Measurement helpers: percentiles, the correctness gate, open-loop timing, self time.

Nothing here imports the program under test, so the helpers can be unit
tested on their own (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; fewer would make it a statement about a handful of outliers.
MIN_SAMPLES_BEYOND = 10

#: Candidate percentiles for the "highest supported percentile" rule.
CANDIDATE_PERCENTILES = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0-100) of ``values``, linear interpolation."""
    if not values:
        raise ValueError("no values to take a percentile of")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supports(n_samples: int, pct: float) -> bool:
    """``True`` when ``n_samples`` leave at least ten samples beyond ``pct``."""
    return n_samples * (100.0 - pct) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def highest_supported(values: Sequence[float]) -> dict | None:
    """The highest candidate percentile with at least ten samples beyond it.

    Returned as ``{"pct", "value", "n"}`` so the percentile always travels
    with its sample count; ``None`` when not even the median is supported.
    """
    for pct in CANDIDATE_PERCENTILES:
        if supports(len(values), pct):
            return {"pct": pct, "value": percentile(values, pct), "n": len(values)}
    return None


def timing_summary(values: Sequence[float]) -> dict:
    """Median, p95 and the highest supported percentile of one sample set."""
    if not values:
        return {"n": 0}
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "p95_supported": supports(len(values), 95.0),
        "max": max(values),
        "highest_supported": highest_supported(values),
    }


@dataclass
class Gate:
    """Counts correctness checks against failures; the run fails on any failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def best_of(per_pass: Sequence[Sequence[float]]) -> list[float]:
    """Each run's least time over the passes, each pass's times given in run order.

    On a shared host other tenants only ever add time, so a run's fastest
    pass is the one they disturbed least.
    """
    if len({len(times) for times in per_pass}) > 1:
        raise ValueError("every pass must time the same runs")
    return [min(times) for times in zip(*per_pass)]


def scores_match(expected: Sequence[float], actual: Sequence[float], tol: float = 1e-9) -> bool:
    """Two top-k score vectors agree, compared in descending order within ``tol``."""
    if len(expected) != len(actual):
        return False
    return all(
        abs(left - right) <= tol
        for left, right in zip(sorted(expected, reverse=True), sorted(actual, reverse=True))
    )


# -- open loop ------------------------------------------------------------------------------------


def schedule(start: float, rate: float, seconds: float) -> list[float]:
    """Due times for ``rate`` evenly spaced requests per second over ``seconds``."""
    count = max(1, int(round(rate * seconds)))
    return [start + index / rate for index in range(count)]


@dataclass
class Sample:
    """One open-loop request: when it was due, sent and done, and its outcome."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    result: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        """Seconds from the due time (not the send time) to completion."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


async def open_loop(
    dues: Sequence[float],
    send: Callable[[int], Awaitable[object]],
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list[Sample], int]:
    """Send request ``i`` at ``dues[i]`` regardless of earlier completions.

    Latency runs from the due time, so a stall — in the system or in the
    generator itself — is charged to every request that fell due during it,
    not hidden by a late send.  Returns the samples in due order and the
    number of requests still outstanding when the last one was sent (the
    backlog signal).
    """
    samples = [Sample(index=index, due=due) for index, due in enumerate(dues)]
    pending: list[asyncio.Task] = []

    async def one(sample: Sample) -> None:
        try:
            sample.result = await send(sample.index)
        except Exception as exc:  # counted as a failed request by the caller
            sample.error = exc
        sample.done = clock()

    for sample in samples:
        delay = sample.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        sample.sent = clock()
        pending.append(asyncio.ensure_future(one(sample)))
    outstanding = sum(1 for task in pending if not task.done())
    await asyncio.gather(*pending)
    return samples, outstanding


# -- spans ----------------------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the enclosing span's id (0 for a root)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int
    trace: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }
