"""Transactional persistence under the statistics store.

:class:`~.sqlite_backend.SqliteBackend` — WAL-mode sqlite with one
transaction per ingested execution and schema migrations — is the one
durable backend: a store path always opens as sqlite.  The
:class:`~.base.StatsBackend` protocol is the seam where another
implementation (a test fake) plugs in.

:func:`~.snapshot.write_json_atomic` and
:func:`~.snapshot.read_json_payload` back the store's plain JSON
snapshots (``StatisticsStore.save()`` / ``load()``), the format
``repro stats migrate`` reads and writes.
"""

from __future__ import annotations

from .base import BackendConflict, CommitDelta, StatsBackend
from .snapshot import read_json_payload, write_json_atomic
from .sqlite_backend import SqliteBackend

__all__ = [
    "BackendConflict",
    "CommitDelta",
    "SqliteBackend",
    "StatsBackend",
    "read_json_payload",
    "write_json_atomic",
]
