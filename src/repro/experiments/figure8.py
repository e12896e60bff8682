"""Figure 8 — %SA for the different consensus functions.

The paper compares GRECA's access cost under AR (average rating, i.e. AP),
MO (least misery) and the two pairwise-disagreement variants PD V1
(``w1 = 0.8``) and PD V2 (``w1 = 0.2``), reporting significant savings for
all of them, with PD V2 outperforming PD V1 ("a higher weight on disagreement
allows faster stopping") and MO the next best performer.

The reproduction measures the same four functions on the shared substrate.
Note: the relative ordering of the PD variants depends on how tight the
disagreement bounds are under partial information; deviations from the
paper's ordering are recorded in EXPERIMENTS.md.
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

#: Consensus functions on the x-axis of Figure 8 (paper labels).
CONSENSUS_FUNCTIONS = ("AR", "MO", "PD V1", "PD V2")

#: The paper's qualitative claims.
PAPER_REFERENCE = {
    "behaviour": "significant saveups for every consensus function; "
    "PD V2 outperforms PD V1; MO reaches ~83% saveup",
    "mo_saveup_about": 83.0,
}


@dataclass(frozen=True)
class Figure8Result:
    """%SA statistics per consensus function."""

    percent_sa: Mapping[str, AccessStats]

    def rows(self) -> list[dict[str, object]]:
        """One row per consensus function."""
        return [
            {
                "consensus": name,
                "mean_percent_sa": round(self.percent_sa[name].mean_percent_sa, 2),
                "std_error": round(self.percent_sa[name].std_error, 2),
                "saveup": round(self.percent_sa[name].mean_saveup, 2),
            }
            for name in CONSENSUS_FUNCTIONS
        ]

    def format_table(self) -> str:
        """Human-readable rendering."""
        lines = ["Figure 8 — average %SA per consensus function"]
        lines.append(f"{'consensus':<10} {'%SA':>8} {'+/-':>6} {'saveup':>8}")
        for row in self.rows():
            lines.append(
                f"{row['consensus']:<10} {row['mean_percent_sa']:>8.2f} "
                f"{row['std_error']:>6.2f} {row['saveup']:>8.2f}"
            )
        return "\n".join(lines)


def run(
    environment: ScalabilityEnvironment | None = None,
    config: ScalabilityConfig | None = None,
    groups: Sequence[Sequence[int]] | None = None,
    policy=None,
) -> Figure8Result:
    """Regenerate Figure 8 on the shared substrate.

    A sharded :class:`~repro.parallel.ExecutionPolicy` (``policy=``)
    batches all four consensus sweeps into one sharded dispatch (serial reference
    semantics by default); a driver-owned environment is closed on the way
    out, exception or not.
    """
    with owned_environment(environment, config) as environment:
        groups = groups or environment.random_groups()
        points = [
            SweepPoint(groups=groups, consensus=name) for name in CONSENSUS_FUNCTIONS
        ]
        per_function = environment.run_sweep(points, policy=policy)
        percent_sa = {
            name: summarize_percent_sa([record.percent_sa for record in records])
            for name, records in zip(CONSENSUS_FUNCTIONS, per_function)
        }
        return Figure8Result(percent_sa=percent_sa)
