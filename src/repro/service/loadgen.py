"""Deterministic load generation and latency summarisation for the service.

:func:`default_queries` draws a reproducible per-client query mix over the
environment's group pool (seeded ``random.Random``, so a given (environment,
seed) always produces the same load), :func:`run_load` fires N concurrent
clients at a running :class:`~repro.service.GrecaService`, and
:func:`summarise_latencies` folds the per-query latency splits into the
p50/p95/p99 + throughput summary ``python -m repro.service`` prints.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.scalability import ScalabilityEnvironment
from repro.service.service import GrecaService, GroupQuery, QueryLatency, QueryResponse


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ConfigurationError("no values to take a percentile of")
    if not 0 <= q <= 100:
        raise ConfigurationError("percentile must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(frozen=True)
class LatencySummary:
    """p50/p95/p99 + throughput over one load-generation run (times in ms)."""

    n_queries: int
    n_clients: int
    wall_seconds: float
    throughput_qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_queue_ms: float
    mean_dispatch_ms: float
    mean_merge_ms: float
    max_batch: int

    def format_summary(self) -> str:
        """One-line human-readable summary for the CLI."""
        return (
            f"served {self.n_queries} queries from {self.n_clients} clients "
            f"in {self.wall_seconds:.2f}s ({self.throughput_qps:.1f} q/s) | "
            f"latency p50 {self.p50_ms:.1f}ms p95 {self.p95_ms:.1f}ms "
            f"p99 {self.p99_ms:.1f}ms | mean queue {self.mean_queue_ms:.1f}ms "
            f"+ dispatch {self.mean_dispatch_ms:.1f}ms "
            f"+ merge {self.mean_merge_ms:.1f}ms | max batch {self.max_batch}"
        )


def summarise_latencies(
    latencies: Sequence[QueryLatency], wall_seconds: float, n_clients: int
) -> LatencySummary:
    """Fold per-query latency splits into one :class:`LatencySummary`."""
    if not latencies:
        raise ConfigurationError("no latencies to summarise")
    totals_ms = [latency.total_seconds * 1000.0 for latency in latencies]
    count = len(latencies)
    return LatencySummary(
        n_queries=count,
        n_clients=n_clients,
        wall_seconds=wall_seconds,
        throughput_qps=count / wall_seconds if wall_seconds > 0 else float("inf"),
        p50_ms=percentile(totals_ms, 50),
        p95_ms=percentile(totals_ms, 95),
        p99_ms=percentile(totals_ms, 99),
        mean_queue_ms=sum(l.queue_seconds for l in latencies) * 1000.0 / count,
        mean_dispatch_ms=sum(l.dispatch_seconds for l in latencies) * 1000.0 / count,
        mean_merge_ms=sum(l.merge_seconds for l in latencies) * 1000.0 / count,
        max_batch=max(latency.batch_size for latency in latencies),
    )


def default_queries(
    environment: ScalabilityEnvironment,
    n_clients: int,
    n_queries: int,
    seed: int = 17,
) -> list[list[GroupQuery]]:
    """A reproducible query mix: one list of queries per concurrent client.

    Groups come from the environment's default random pool; each query
    varies the paper's knobs (k, consensus, query period) the way the
    figure sweeps do, drawn from a seeded RNG so the same (environment,
    seed) pair always generates the same load — which is what lets the
    bench trajectory compare runs across revisions.
    """
    if n_clients < 1 or n_queries < 1:
        raise ConfigurationError("need at least one client and one query each")
    rng = random.Random(seed)
    groups = [tuple(group) for group in environment.random_groups()]
    n_periods = len(list(environment.timeline))
    ks = (max(2, environment.config.k // 2), environment.config.k)
    consensus_names = ("AP", "MO")
    return [
        [
            GroupQuery(
                group=rng.choice(groups),
                k=rng.choice(ks),
                consensus=rng.choice(consensus_names),
                period_index=rng.randrange(n_periods),
            )
            for _ in range(n_queries)
        ]
        for _ in range(n_clients)
    ]


async def run_load(
    service: GrecaService, client_queries: Sequence[Sequence[GroupQuery]]
) -> tuple[list[QueryResponse], float]:
    """Fire every client's queries concurrently; responses plus wall seconds.

    Each client submits its queries sequentially (a closed-loop client);
    clients run concurrently, which is what exercises the coalescing path.
    Responses come back flattened in client-major order.
    """

    async def one_client(queries: Sequence[GroupQuery]) -> list[QueryResponse]:
        return [await service.submit(query) for query in queries]

    start = time.perf_counter()
    per_client = await asyncio.gather(
        *(one_client(queries) for queries in client_queries)
    )
    wall_seconds = time.perf_counter() - start
    responses = [response for client in per_client for response in client]
    return responses, wall_seconds
