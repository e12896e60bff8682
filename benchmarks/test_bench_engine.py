"""Micro-benchmarks for the batched columnar access engine.

Two measurements track the engine's speed (the frozen history of earlier
measurements lives in ``BENCH_engine.json``; perfbench measures the program
end to end):

* GRECA end-to-end on the paper's 3,900-item catalogue (default
  :class:`ScalabilityConfig`: 8 groups of 6, AP consensus, k = 10) with the
  indexes pre-built, isolating the engine from dataset generation; and
* batched ``sequential_block`` reads against the per-entry
  ``sequential_access`` path over one large preference list.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.core.consensus import make_consensus
from repro.core.greca import Greca
from repro.core.lists import KIND_PREFERENCE, AccessCounter, SortedAccessList

#: The seed (per-entry) engine needed 1.28 s for the same 8 runs, and the
#: columnar engine's acceptance measurement was ~0.2 s (both recorded in
#: BENCH_engine.json).  The test enforces a loose 2x-over-seed floor so a
#: regression back to interpreter-speed fails here without making the
#: benchmark flaky on slow or loaded machines.
SEED_TOTAL_SECONDS = 1.28

MICRO_ENTRIES = 100_000


def test_greca_end_to_end_3900_items(benchmark, scalability_env):
    """GRECA over the default scalability point, engine time only."""
    env = scalability_env
    consensus = make_consensus(env.config.consensus)
    indexes = env.build_default_indexes()

    def run_all():
        return [Greca(consensus, k=env.config.k).run(index) for index in indexes]

    results = run_once(benchmark, run_all)
    print()
    for result in results:
        print(
            f"  %SA={result.percent_sequential_accesses:6.2f}  "
            f"SA={result.sequential_accesses:>6}  stop={result.stopping}"
        )
    # The engine must still do exactly the paper's work: every run reads
    # fewer entries than the naive scan and makes no random accesses.
    assert all(result.random_accesses == 0 for result in results)
    assert all(result.sequential_accesses < result.total_entries for result in results)
    assert benchmark.stats.stats.mean < SEED_TOTAL_SECONDS / 2


def test_sequential_block_vs_per_entry(benchmark):
    """Batched block reads against the per-entry access path (same SAs)."""

    def make_list() -> SortedAccessList:
        entries = (
            (item, float((item * 2_654_435_761) % 1_000_003)) for item in range(MICRO_ENTRIES)
        )
        return SortedAccessList("PL(bench)", KIND_PREFERENCE, entries, AccessCounter())

    per_entry_list = make_list()
    start = time.perf_counter()
    while per_entry_list.sequential_access() is not None:
        pass
    per_entry_seconds = time.perf_counter() - start

    blocked_list = make_list()

    def drain_blocked() -> int:
        blocked_list.reset()
        blocked_list.counter.reset()
        read = 0
        while not blocked_list.exhausted:
            _, scores = blocked_list.sequential_block(4096)
            read += len(scores)
        assert blocked_list.counter.sequential == MICRO_ENTRIES
        return read

    read = run_once(benchmark, drain_blocked)
    assert read == MICRO_ENTRIES == per_entry_list.counter.sequential
    block_seconds = max(benchmark.stats.stats.mean, 1e-9)
    print(f"\n  per-entry: {per_entry_seconds:.4f}s  "
          f"blocked: {block_seconds:.4f}s  "
          f"speedup: {per_entry_seconds / block_seconds:.0f}x")
    # Block reads must beat the per-entry interpreter loop comfortably.
    assert block_seconds < per_entry_seconds
