"""Figure 6 — %SA per query period under the discrete time model.

Each successive period adds one more set of periodic affinity lists to the
index, so the total amount of data GRECA may have to scan grows with the
period index.  The paper observes a roughly linear growth of the average
number of accesses, with an exception in period 5 where common page-likes are
sparse and the extra lists do not help termination.

The reproduction runs GRECA with the query period set to each period of the
timeline in turn and reports the mean %SA (and, for context, the mean
absolute number of sequential accesses, which is the quantity whose linear
growth the paper highlights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.scalability import (
    AccessStats,
    ScalabilityConfig,
    ScalabilityEnvironment,
    SweepPoint,
    owned_environment,
    summarize_percent_sa,
)

#: The paper's qualitative claim: accesses grow ~linearly with the period index.
PAPER_REFERENCE = {"behaviour": "roughly linear growth of accesses with the period index"}


@dataclass(frozen=True)
class Figure6Result:
    """Per-period access statistics."""

    percent_sa: Mapping[int, AccessStats]
    mean_accesses: Mapping[int, float]

    def rows(self) -> list[dict[str, object]]:
        """One row per period index."""
        return [
            {
                "period": period_index,
                "mean_percent_sa": round(stats.mean_percent_sa, 2),
                "std_error": round(stats.std_error, 2),
                "mean_sequential_accesses": round(self.mean_accesses[period_index], 1),
            }
            for period_index, stats in sorted(self.percent_sa.items())
        ]

    def format_table(self) -> str:
        """Human-readable rendering."""
        lines = ["Figure 6 — average accesses per period (discrete model)"]
        lines.append(f"{'period':>6} {'%SA':>8} {'+/-':>6} {'#SA':>10}")
        for row in self.rows():
            lines.append(
                f"{row['period']:>6} {row['mean_percent_sa']:>8.2f} "
                f"{row['std_error']:>6.2f} {row['mean_sequential_accesses']:>10.1f}"
            )
        return "\n".join(lines)


def run(
    environment: ScalabilityEnvironment | None = None,
    config: ScalabilityConfig | None = None,
    groups: Sequence[Sequence[int]] | None = None,
    policy=None,
) -> Figure6Result:
    """Regenerate Figure 6: one GRECA run per group per query period.

    The reuse layer shares each group's columnar preference substrate across
    all query periods, and the affinity inputs ride as period prefixes of one
    full-timeline column set per group.  A sharded
    :class:`~repro.parallel.ExecutionPolicy` (``policy=``) batches the
    whole period sweep into a single sharded dispatch (serial
    reference semantics by default).  A driver-owned environment is closed
    on the way out, exception or not, so no worker pool or ``/dev/shm``
    segment can leak mid-figure.
    """
    with owned_environment(environment, config) as environment:
        groups = groups or environment.random_groups()
        points = [
            SweepPoint(groups=groups, period=period) for period in environment.timeline
        ]
        per_period = environment.run_sweep(points, policy=policy)

        percent_sa: dict[int, AccessStats] = {}
        mean_accesses: dict[int, float] = {}
        for period_index, records in enumerate(per_period):
            percent_sa[period_index] = summarize_percent_sa(
                [record.percent_sa for record in records]
            )
            mean_accesses[period_index] = sum(
                record.sequential_accesses for record in records
            ) / len(records)
        return Figure6Result(percent_sa=percent_sa, mean_accesses=mean_accesses)
