"""The persistence contract under the statistics policy layer.

:class:`~repro.feedback.store.StatisticsStore` owns all aggregation
*policy* — EMA decay, staleness horizons, precedence, the
``estimator_view()`` fingerprint.  Everything about *where bytes live*
is behind the :class:`StatsBackend` protocol defined here, so the same
policy code runs in memory, over a sqlite database in WAL mode, or over
a test's fake backend.

The contract is optimistic concurrency over whole-store snapshots:

* ``load()`` returns the current persisted payload (the store's
  ``to_dict()`` shape) plus a **generation** — a monotonic counter
  bumped by every committed write, by any process.
* ``commit(payload, delta, expected_generation)`` atomically publishes
  a new state *iff* the persisted generation still equals
  ``expected_generation``; otherwise it raises :class:`BackendConflict`
  and changes nothing.  The caller (the store's transactional
  ``ingest``) then reloads, re-folds its observation over the fresh
  state, and retries — so two processes ingesting concurrently can
  never double-fold an EMA or tear a file, and every committed
  generation corresponds to exactly one ingested execution.
* ``generation()`` is the cheap foreign-write probe: a process compares
  it against the generation it last incorporated and, on mismatch,
  pulls the new state and invalidates exactly the dirty operator set
  (``StatisticsStore.sync()``).

``payload`` is always the full serialized store; ``delta`` narrows the
commit to the rows one ingest actually touched, so sqlite writes
incrementally.  A backend that persists whole snapshots may ignore the
delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable


class BackendConflict(Exception):
    """A commit lost the optimistic generation race; reload and retry."""


@dataclass(frozen=True, slots=True)
class CommitDelta:
    """The rows one ingested execution touched, as plain payload dicts.

    ``run_ingested`` is the *full* post-trim (signature, run-id) dedupe
    map — it is tiny (bounded by the store's run-dedupe limit) and
    replaced wholesale on every commit, which keeps eviction trivially
    consistent across backends.
    """

    version: int  # the store's logical clock after the fold
    nodes: dict[str, dict] = field(default_factory=dict)
    sources: dict[str, dict] = field(default_factory=dict)
    plans: dict[str, dict] = field(default_factory=dict)
    run_ingested: list[tuple[str, list[str]]] = field(default_factory=list)


@runtime_checkable
class StatsBackend(Protocol):
    """Transactional persistence for one statistics store."""

    def load(self) -> tuple[dict | None, int]:
        """Return ``(payload, generation)``; payload None when fresh."""
        ...  # pragma: no cover - protocol

    def generation(self) -> int:
        """The currently persisted generation (0 when fresh)."""
        ...  # pragma: no cover - protocol

    def commit(
        self, payload: dict, delta: CommitDelta, expected_generation: int
    ) -> int:
        """Atomically publish ``payload``/``delta``; return the new
        generation.  Raises :class:`BackendConflict` when the persisted
        generation no longer equals ``expected_generation``."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release OS resources (connections, lock handles)."""
        ...  # pragma: no cover - protocol
