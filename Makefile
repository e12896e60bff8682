# Developer entry points for the reproduction.  Run from the repository root.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: all ci test test-fast test-parallel test-chaos test-service test-epoch test-storage test-slow serve-smoke bench perfbench-gate bench-engine bench-all golden golden-freshness

# Default: the fast equivalence suite (golden grid + property/metamorphic
# tests) plus the perf budget gate, so access-equivalence and performance
# regressions both fail fast.
all: test-fast bench

# Tier-1 verification: the full unit/property suite (includes benchmarks/).
test:
	$(PYTHON) -m pytest -x -q

# Tier-1 minus the benchmark harness: unit, golden-grid and property tests.
test-fast:
	$(PYTHON) -m pytest tests/ -x -q

# Serial ≡ parallel equivalence of the sharded group-evaluation layer
# (shard planner, in-process and persistent-pool workers, descriptor
# shipment over shm and mmap, order-restoring merge; shard counts
# {1, 2, 3, 7} plus random-partition property cases) and the shm
# segment-lifecycle suite.
test-parallel:
	$(PYTHON) -m pytest tests/test_parallel_equivalence.py tests/test_shm_lifecycle.py -q

# Chaos suite: deterministic fault injection (worker crashes, raised
# exceptions, stalls) against the supervised dispatch layer, plus the shm
# segment-lifecycle suite — recovery must stay bit-identical and leak-free.
test-chaos:
	$(PYTHON) -m pytest tests/test_fault_tolerance.py tests/test_shm_lifecycle.py -q

# Serving layer: the service equivalence + concurrency suite (concurrent
# clients bit-identical to serial, crash recovery with honest reports,
# coalescing caps, drain-on-stop) plus the pool/registry/environment
# concurrency regression tests behind it.
test-service:
	$(PYTHON) -m pytest tests/test_service.py tests/test_pool_concurrency.py -q

# Epoch suite: the delta-equivalence matrix (incremental apply_delta state
# bit-identical to a full rebuild over the merged history, across the
# serial/persistent/supervised/service tiers, shard counts {1, 2, 3, 7},
# in-process and pooled shipment, figure drivers and snapshot/restore), plus
# the epoch-adoption chaos case and the retired-segment drain case.
test-epoch:
	$(PYTHON) -m pytest tests/test_epoch_updates.py \
		tests/test_fault_tolerance.py::test_supervised_crash_during_epoch_adoption_recovers_on_new_epoch \
		"tests/test_shm_lifecycle.py::test_retired_epoch_segments_unlink_after_in_flight_reader_drains" -q

# Storage suite: the mmap spool backend and the ExecutionPolicy bundle —
# file-backed columns bit-identical to shm and serial across shard counts,
# spool-file lifecycle (normal exit, worker crash, KeyboardInterrupt), the
# /dev/shm budget spill guard, shm/mmap handle anti-aliasing and the
# ExecutionPolicy bundle, plus the mmap epoch-swap cases.
test-storage:
	$(PYTHON) -m pytest tests/test_parallel_equivalence.py tests/test_shm_lifecycle.py tests/test_epoch_updates.py -q -k "storage or mmap or spool or policy"

# Serving smoke gate: start the service on the scaled-down substrate, fire
# the load generator at it, and self-check — responses bit-identical to the
# serial reference, p50/p95/p99 recorded, /dev/shm empty after the drain.
serve-smoke:
	$(PYTHON) -m repro.service --smoke --clients 4 --queries 5 --check-equivalence

# Minutes-scale opt-in tests (full MovieLens-1M synthetic substrate,
# Table 5 headline statistics).  Gated behind the `slow` marker via
# REPRO_RUN_SLOW so plain `pytest` stays fast.
test-slow:
	REPRO_RUN_SLOW=1 $(PYTHON) -m pytest tests/ -q -m slow

# Fail-fast perf gate: one scalability point (3,900 items, 8 groups) under a
# wall-clock budget.  Exits non-zero when the engine regresses past the budget.
bench:
	$(PYTHON) -m repro.experiments.runner --quick

# Correctness gate of the benchmark: one short sweep whose every GRECA answer
# is checked against the exhaustive NaiveFullScan, outside the timed window.
# Exits non-zero when any check fails; its timings are advisory.
perfbench-gate:
	$(PYTHON) perfbench/run.py --workload sweep --seed 1 --seconds 8

# Engine micro-benchmarks (GRECA end-to-end + sequential_block vs per-entry).
bench-engine:
	$(PYTHON) -m pytest benchmarks/test_bench_engine.py -q

# Every paper figure/table benchmark (minutes).
bench-all:
	$(PYTHON) -m pytest benchmarks/ -q

# Regenerate the engine-equivalence goldens.  Only run from a revision whose
# access semantics are known-equivalent to the seed engine.
golden:
	PYTHONPATH=src:tests $(PYTHON) scripts/capture_engine_golden.py

# Drift gate: recapture the goldens into a temp dir and diff against the
# committed file.  Fails when engine behaviour (access counts, top-k items,
# stopping reasons) changed without a deliberate `make golden` regeneration.
golden-freshness:
	@tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	PYTHONPATH=src:tests $(PYTHON) scripts/capture_engine_golden.py --output $$tmp/engine_golden.json && \
	diff -u tests/data/engine_golden.json $$tmp/engine_golden.json && \
	echo "golden grid is fresh: engine behaviour matches the committed goldens"

# Everything CI runs, in CI's order — reproduce a red pipeline locally
# without pushing.  (CI additionally fans test-fast out over Python
# 3.10/3.11/3.12 and treats the bench budget as advisory on shared runners.)
ci: test-fast test-parallel test-chaos test-service test-epoch test-storage serve-smoke bench golden-freshness perfbench-gate
