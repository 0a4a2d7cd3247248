"""A :class:`~repro.feedback.StatsBackend` test double.

The backend protocol is the seam tests substitute persistence through:
:class:`FakeBackend` honors the generation and conflict contract without
touching the file system.
"""

import copy

from repro.feedback import BackendConflict, CommitDelta


class FakeBackend:
    """Whole-snapshot :class:`StatsBackend` kept in memory.

    Every store opened over one instance sees the same persisted state,
    as two processes see one database file; the delta is ignored.
    """

    path = "<memory>"

    def __init__(self) -> None:
        self._payload: dict | None = None
        self._generation = 0

    def load(self) -> tuple[dict | None, int]:
        return copy.deepcopy(self._payload), self._generation

    def generation(self) -> int:
        return self._generation

    def commit(
        self, payload: dict, delta: CommitDelta, expected_generation: int
    ) -> int:
        del delta
        if expected_generation != self._generation:
            raise BackendConflict(
                f"fake moved to generation {self._generation}"
            )
        self._payload = copy.deepcopy(payload)
        self._generation += 1
        return self._generation

    def close(self) -> None:
        pass
