"""Epoch management: apply deltas, journal them, restore from disk.

:class:`EpochManager` wraps a
:class:`~repro.experiments.scalability.ScalabilityEnvironment` and gives its
delta ingestion a durable identity:

* :meth:`apply` routes a :class:`~repro.updates.deltas.RatingDelta` through
  :meth:`~repro.experiments.scalability.ScalabilityEnvironment.apply_delta`
  and records it in the in-memory journal;
* :meth:`snapshot` persists a JSON journal — the environment config plus
  every applied delta, in order — to disk;
* :meth:`restore` rebuilds the base environment from the journalled config
  and replays the deltas through the same incremental path.

Replay-from-journal *is* the recovery semantics: deltas are deterministic
data (no RNG is consumed when applying them), and every ``apply`` is
bit-identical to a full rebuild over the merged substrate, so a restored
manager reaches exactly the state the snapshotted one held — the epoch
round-trip test asserts record-level equality after restore.

Column-store cleanup rides along: :meth:`apply` retires stale exports
through the environment's shared-memory registry — their segments unlink,
and warm workers drop cached state below the raised generation floor on
their next dispatch.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.core.timeline import Period
from repro.data.ratings import Rating
from repro.data.social import PageLike
from repro.exceptions import ConfigurationError
from repro.experiments.scalability import (
    DeltaReport,
    ScalabilityConfig,
    ScalabilityEnvironment,
)
from repro.updates.deltas import RatingDelta

#: Journal schema version; bumped on any incompatible layout change.
JOURNAL_VERSION = 1


def delta_to_json(delta: RatingDelta) -> dict:
    """A JSON-serialisable form of one delta (exact round-trip)."""
    return {
        "ratings": [
            [rating.user_id, rating.item_id, rating.value, rating.timestamp]
            for rating in delta.ratings
        ],
        "page_likes": [
            [like.user_id, like.category, like.timestamp] for like in delta.page_likes
        ],
        "new_period": (
            None if delta.new_period is None else [delta.new_period.start, delta.new_period.end]
        ),
    }


def delta_from_json(payload: dict) -> RatingDelta:
    """Rebuild a delta from :func:`delta_to_json` output."""
    new_period = payload.get("new_period")
    return RatingDelta(
        ratings=tuple(
            Rating(int(user), int(item), float(value), int(timestamp))
            for user, item, value, timestamp in payload.get("ratings", [])
        ),
        page_likes=tuple(
            PageLike(int(user), int(category), int(timestamp))
            for user, category, timestamp in payload.get("page_likes", [])
        ),
        new_period=None if new_period is None else Period(int(new_period[0]), int(new_period[1])),
    )


class EpochManager:
    """Delta ingestion with a journal: apply, snapshot, restore.

    The manager owns nothing it did not create: an environment passed in
    stays the caller's to close.  :meth:`restore` builds (and therefore
    owns) a fresh one — close it via the returned manager's
    :attr:`environment`.
    """

    def __init__(self, environment: ScalabilityEnvironment) -> None:
        self.environment = environment
        self.applied: list[RatingDelta] = []
        self.reports: list[DeltaReport] = []

    @property
    def epoch(self) -> int:
        """The environment's current epoch (0 = base substrate)."""
        return self.environment.epoch

    def apply(self, delta: RatingDelta) -> DeltaReport:
        """Apply one delta incrementally and journal it."""
        report = self.environment.apply_delta(delta)
        self.applied.append(delta)
        self.reports.append(report)
        return report

    # -- persistence ---------------------------------------------------------------

    def snapshot(self, path: str | Path) -> Path:
        """Write the JSON journal (config + applied deltas) to ``path``.

        The journal goes to a temporary file in the same directory, is
        flushed and fsync'd, and then replaces ``path`` in one
        ``os.replace``.  A crash mid-write leaves the previous journal
        whole, and no temporary file outlives a failed write.
        """
        path = Path(path)
        journal = {
            "version": JOURNAL_VERSION,
            "epoch": self.epoch,
            "config": asdict(self.environment.config),
            "deltas": [delta_to_json(delta) for delta in self.applied],
        }
        text = json.dumps(journal, indent=2) + "\n"
        descriptor, temporary = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)
        except BaseException:
            os.unlink(temporary)
            raise
        return path

    @classmethod
    def restore(cls, path: str | Path) -> "EpochManager":
        """Rebuild the environment from a journal and replay its deltas.

        The base substrate is regenerated from the journalled config (the
        synthetic generators are seed-deterministic), then every delta is
        re-applied through the incremental path in journal order.  The
        restored manager's epoch equals the snapshotted one.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.get("version")
        if version != JOURNAL_VERSION:
            raise ConfigurationError(
                f"unsupported journal version {version!r} (expected {JOURNAL_VERSION})"
            )
        config = ScalabilityConfig(**payload["config"])
        manager = cls(ScalabilityEnvironment(config))
        for entry in payload.get("deltas", []):
            manager.apply(delta_from_json(entry))
        if manager.epoch != payload.get("epoch"):
            raise ConfigurationError(
                f"journal replay reached epoch {manager.epoch}, "
                f"snapshot recorded {payload.get('epoch')}"
            )
        return manager
