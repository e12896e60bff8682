"""One frozen :class:`ExecutionPolicy` for every dispatch knob.

Every entry point that can fan out —
``ScalabilityEnvironment.evaluate`` / ``run_records`` / ``run_sweep`` /
``average_percent_sa``, the figure drivers, the runner and
``ServiceConfig`` — takes the same four knobs as one ``policy=`` bundle,
validated once on construction through the same registries the CLI flags
use (``pool.validate_executor_name``, ``storage.validate_storage_name``).

The default policy is the serial reference semantics (no workers, no
executor).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.parallel.pool import ShardExecutor, validate_executor_name
from repro.parallel.resilience import SupervisionPolicy
from repro.parallel.storage import STORAGE_SHM, validate_storage_name


@dataclass(frozen=True)
class ExecutionPolicy:
    """How one dispatch runs: workers, backend, supervision, storage.

    ``None`` fields keep their defaults downstream: no workers and no
    executor mean the serial reference path, ``storage=None`` means shared
    memory, and ``supervision=None`` means whatever the executor itself
    provides.
    """

    n_workers: int | None = None
    executor: str | ShardExecutor | None = None
    supervision: SupervisionPolicy | bool | None = None
    storage: str | None = None

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
        if self.storage is not None:
            validate_storage_name(self.storage)
        if self.supervision is not None and not isinstance(
            self.supervision, (SupervisionPolicy, bool)
        ):
            raise ConfigurationError(
                "supervision must be a SupervisionPolicy, a bool, or None, "
                f"got {type(self.supervision).__name__}"
            )

    @property
    def is_serial(self) -> bool:
        """Whether this policy selects the serial reference path."""
        return self.n_workers is None and self.executor is None

    @property
    def storage_name(self) -> str:
        """The effective storage backend (default: shared memory)."""
        return self.storage or STORAGE_SHM
