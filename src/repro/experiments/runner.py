"""Command-line driver regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments.runner                 # everything (scaled down)
    python -m repro.experiments.runner figure5 figure8 # selected experiments
    python -m repro.experiments.runner --list          # show available names
    python -m repro.experiments.runner --quick         # perf smoke gate (one
                                                       # scalability point under
                                                       # a time budget)
    python -m repro.experiments.runner --workers 4     # shard group evaluation
                                                       # across a pool of 4 process
                                                       # workers built per figure
                                                       # (bit-identical results)
    python -m repro.experiments.runner --workers 4 --executor persistent
                                                       # same, but one warm worker
                                                       # pool + one shared-memory
                                                       # substrate shipment for the
                                                       # whole figure suite
    python -m repro.experiments.runner --workers 4 --executor supervised
                                                       # fault-tolerant dispatch:
                                                       # per-shard timeouts, retries,
                                                       # pool self-healing, serial
                                                       # degradation; prints a
                                                       # dispatch summary at the end
                                                       # (--shard-timeout/--retries
                                                       # tune the policy)
    python -m repro.experiments.runner --workers 4 --storage mmap
                                                       # same bit-identical results,
                                                       # but the column store spools
                                                       # to memory-mapped files
                                                       # instead of /dev/shm
    python -m repro.experiments.runner --paper-scale --workers 4
                                                       # the full MovieLens-1M-scale
                                                       # substrate, serial vs sharded
                                                       # (minutes); exits non-zero
                                                       # unless the sharded records
                                                       # are bit-identical

Each experiment prints the same rows/series the paper reports (with the
paper's own values alongside where they are known).  Quality experiments
(figures 1-3) share one study environment, scalability experiments (figures
5-8) share one scalability environment, so running everything stays fast.
"""

from __future__ import annotations

import argparse
from typing import Callable, Iterable

from repro.experiments import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    table5,
)
from repro.experiments.scalability import ScalabilityEnvironment
from repro.parallel import (
    ExecutionPolicy,
    SupervisionPolicy,
    executor_names,
    summarise_reports,
    validate_executor_name,
    validate_storage_name,
)
from repro.study.environment import build_study_environment

#: Experiment names in the order they appear in the paper.
EXPERIMENTS = (
    "table5",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
)


def run_all(
    names: Iterable[str] | None = None,
    print_fn: Callable[[str], None] = print,
    policy: ExecutionPolicy | None = None,
) -> dict[str, object]:
    """Run the selected experiments (all of them by default) and print their tables.

    Returns a mapping from experiment name to its result object, so that the
    function is also usable programmatically (EXPERIMENTS.md was produced from
    these results).  A sharded ``policy`` (:class:`~repro.parallel
    .ExecutionPolicy`) shards the group evaluations of the figure 4-8
    drivers across process workers (results are bit-identical to the serial
    run): its executor picks the backend (``serial``, ``persistent`` — a
    warm worker pool across the whole figure suite, paying spawn and
    substrate shipment once — or ``supervised``, which adds fault-tolerant
    dispatch on top of that warm pool and prints a recovery summary at the
    end), its supervision tunes the supervised policy (timeouts, retry
    budget) and its storage picks the column-store backend (``shm`` shared
    memory or ``mmap`` spool files).
    """
    selected = list(names) if names else list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s): {', '.join(unknown)}")

    results: dict[str, object] = {}
    study_env = None
    scalability_env = None

    def study_environment():
        nonlocal study_env
        if study_env is None:
            print_fn("[setup] building the study environment (cohort, recommender, oracle)...")
            study_env = build_study_environment()
        return study_env

    def scalability_environment():
        nonlocal scalability_env
        if scalability_env is None:
            print_fn("[setup] building the scalability environment (dataset, recommender)...")
            scalability_env = ScalabilityEnvironment()
        return scalability_env

    try:
        for name in selected:
            print_fn(f"\n=== {name} ===")
            if name == "table5":
                result = table5.run()
            elif name == "figure1":
                result = figure1.run(environment=study_environment())
            elif name == "figure2":
                result = figure2.run(environment=study_environment())
            elif name == "figure3":
                result = figure3.run(environment=study_environment())
            elif name == "figure4":
                result = figure4.run(policy=policy)
            elif name == "figure5":
                result = figure5.run(environment=scalability_environment(), policy=policy)
            elif name == "figure6":
                result = figure6.run(environment=scalability_environment(), policy=policy)
            elif name == "figure7":
                result = figure7.run(environment=scalability_environment(), policy=policy)
            else:
                result = figure8.run(environment=scalability_environment(), policy=policy)
            results[name] = result
            print_fn(result.format_table())
        if scalability_env is not None and scalability_env.dispatch_reports:
            print_fn("")
            print_fn(summarise_reports(scalability_env.dispatch_reports))
    finally:
        if scalability_env is not None:
            scalability_env.close()  # warm pools / shm segments, if any
    return results


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", help="experiment names (default: all)")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="perf smoke: run one scalability point under a time budget and "
        "exit non-zero when the budget is blown",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard group evaluations across N process workers "
        "(default: serial; results are bit-identical either way)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        metavar="NAME",
        help="execution backend for sharded evaluation: one of "
        + ", ".join(executor_names())
        + " (default: a process pool built per call when --workers is given; "
        "unknown names raise ValueError at the single validation choice point)",
    )
    parser.add_argument(
        "--storage",
        default=None,
        metavar="NAME",
        help='column-store backend for sharded evaluation: "shm" shared '
        'memory (the default) or "mmap" memory-mapped spool files — the '
        "same axis ExecutionPolicy(storage=...) bundles programmatically; "
        "unknown names raise ValueError at the single storage choice point",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run the full MovieLens-1M-scale substrate serially and sharded "
        "(--workers N, default 4; minutes), print the comparison and exit "
        "non-zero unless the sharded records are bit-identical to the serial ones",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="serving smoke: start the GrecaService front-end over the default "
        "substrate, fire the deterministic load generator, print the "
        "p50/p95/p99 latency summary and exit non-zero unless responses are "
        "bit-identical to the serial reference and /dev/shm is left clean "
        "(--workers/--executor tune the service pool)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard wall-clock timeout for --executor supervised "
        "(default: the policy default; only meaningful with supervised)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="per-shard retry budget for --executor supervised before "
        "degrading to the serial executor (default: the policy default)",
    )
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers <= 0:
        raise SystemExit("--workers must be positive")
    if args.paper_scale and (args.experiments or args.quick or args.serve):
        raise SystemExit(
            "--paper-scale does not combine with experiment names, --quick or --serve"
        )
    if args.serve:
        if args.experiments or args.quick:
            raise SystemExit("--serve does not combine with experiment names or --quick")
        # Delegate to the service CLI (python -m repro.service): same smoke
        # contract as `make serve-smoke`, over the full default substrate.
        from repro.service.__main__ import main as service_main

        forwarded = ["--check-equivalence"]
        if args.workers is not None:
            forwarded += ["--workers", str(args.workers)]
        if args.executor is not None:
            forwarded += ["--executor", args.executor]
        if args.storage is not None:
            forwarded += ["--storage", args.storage]
        return service_main(forwarded)
    if args.storage is not None:
        # The single storage choice point (repro.parallel.storage
        # .validate_storage_name): unknown backends fail here, not deep
        # inside an export.
        validate_storage_name(args.storage)
    if args.paper_scale and args.workers is None:
        args.workers = 4
    if args.executor is not None:
        # The single choice point (repro.parallel.pool.validate_executor_name):
        # unknown backends fail here, not deep inside evaluate_tasks.
        validate_executor_name(args.executor)
        if args.executor != "serial" and args.workers is None:
            raise SystemExit(
                f"--executor {args.executor} needs --workers N "
                "(process-based backends require an explicit worker count)"
            )
    supervision = None
    if args.shard_timeout is not None or args.retries is not None:
        if args.executor != "supervised":
            raise SystemExit(
                "--shard-timeout/--retries tune the supervised dispatch policy: "
                "combine them with --executor supervised"
            )
        defaults = SupervisionPolicy()
        supervision = SupervisionPolicy(
            timeout=args.shard_timeout if args.shard_timeout is not None else defaults.timeout,
            max_retries=args.retries if args.retries is not None else defaults.max_retries,
        )
    if args.list:
        print("\n".join(EXPERIMENTS))
        return 0
    policy = None
    if args.workers is not None or args.executor is not None or args.storage is not None:
        policy = ExecutionPolicy(
            n_workers=args.workers,
            executor=args.executor,
            supervision=supervision,
            storage=args.storage,
        )
    if args.paper_scale:
        from repro.experiments.scalability import run_paper_scale

        result = run_paper_scale(policy=policy)
        print(result.format_summary())
        return 0 if result.identical else 1
    if args.quick:
        if args.experiments:
            raise SystemExit("--quick does not combine with experiment names")
        from repro.experiments.scalability import run_quick_smoke

        result = run_quick_smoke(policy=policy)
        print(result.format_summary())
        return 0 if result.within_budget else 1
    run_all(args.experiments or None, policy=policy)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
