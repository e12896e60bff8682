"""One frozen :class:`ExecutionPolicy` for every dispatch knob.

Every entry point that can fan out —
``ScalabilityEnvironment.evaluate`` / ``run_records`` / ``run_sweep`` /
``average_percent_sa``, the figure drivers, the runner and
``ServiceConfig`` — takes the same three knobs as one ``policy=`` bundle,
validated once on construction through the same registry the CLI flag
uses (``pool.validate_executor_name``).

The default policy is the serial reference semantics (no workers, no
executor).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.parallel.pool import ShardExecutor, validate_executor_name
from repro.parallel.resilience import SupervisionPolicy


@dataclass(frozen=True)
class ExecutionPolicy:
    """How one dispatch runs: workers, backend, supervision.

    ``None`` fields keep their defaults downstream: no workers and no
    executor mean the serial reference path, and ``supervision=None`` means
    whatever the executor itself provides (``executor="supervised"`` runs
    under the default :class:`SupervisionPolicy`).
    """

    n_workers: int | None = None
    executor: str | ShardExecutor | None = None
    supervision: SupervisionPolicy | None = None

    def __post_init__(self) -> None:
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be a positive worker count, got {self.n_workers!r}"
            )
        if isinstance(self.executor, str):
            validate_executor_name(self.executor)
        elif self.executor is not None and not isinstance(self.executor, ShardExecutor):
            raise ConfigurationError(
                "executor must be a backend name or a ShardExecutor instance, "
                f"got {type(self.executor).__name__}"
            )
        if self.supervision is not None and not isinstance(
            self.supervision, SupervisionPolicy
        ):
            raise ConfigurationError(
                "supervision must be a SupervisionPolicy or None, "
                f"got {type(self.supervision).__name__}"
            )

    @property
    def is_serial(self) -> bool:
        """Whether this policy selects the serial reference path."""
        return self.n_workers is None and self.executor is None
