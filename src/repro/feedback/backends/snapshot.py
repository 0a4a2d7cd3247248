"""Plain JSON snapshots of a statistics store (``save()`` / ``load()``).

The file layout is exactly ``StatisticsStore.to_dict()``.  It is not a
live store: ``repro stats migrate`` reads a snapshot into sqlite or
writes one out of it.  Every write lands in a same-directory temp file
that is fsynced and then :func:`os.replace`\\ d over the target, so a
reader (or a crash at any instant) sees either the complete old snapshot
or the complete new one, never a half-written file.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from ...core.errors import FeedbackError


def write_json_atomic(path: str | Path, payload: dict) -> None:
    """Serialize ``payload`` and atomically replace ``path`` with it."""
    path = Path(path)
    text = json.dumps(payload, indent=1, sort_keys=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def read_json_payload(path: str | Path) -> dict:
    """Parse a statistics-store JSON file, failing with clean errors."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FeedbackError(
            f"statistics store {str(path)!r} is unreadable: {exc}"
        ) from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FeedbackError(
            f"statistics store {str(path)!r} is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise FeedbackError(
            f"statistics store {str(path)!r} must hold a JSON object"
        )
    return payload
