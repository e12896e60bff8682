"""Long-lived group-recommendation serving over the warm experiment substrate.

* :mod:`repro.service.service` — :class:`GrecaService`, the asyncio
  front-end coalescing concurrent :class:`GroupQuery` submissions into
  group-major batches dispatched on the environment's supervised persistent
  pool, answering with bit-identical-to-serial :class:`QueryResponse`
  records plus per-query :class:`QueryLatency` accounting;
* :mod:`repro.service.loadgen` — deterministic load generation and the
  p50/p95/p99 latency summary the service CLI prints;
* ``python -m repro.service`` — the CLI entry point (smoke serving, load
  generation, graceful SIGTERM/SIGINT drain with a /dev/shm-clean check).
"""

from repro.service.loadgen import (
    LatencySummary,
    default_queries,
    percentile,
    run_load,
    summarise_latencies,
)
from repro.service.service import (
    GrecaService,
    GroupQuery,
    QueryLatency,
    QueryResponse,
    ServiceConfig,
)

__all__ = [
    "GrecaService",
    "GroupQuery",
    "LatencySummary",
    "QueryLatency",
    "QueryResponse",
    "ServiceConfig",
    "default_queries",
    "percentile",
    "run_load",
    "summarise_latencies",
]
