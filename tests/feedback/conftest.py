"""Shared feedback fixtures.

``make_store`` parametrizes store-driven tests over every way a store
runs: a plain in-memory store (the seed behavior), a sqlite-WAL store,
and a store committing through the :class:`~.fakes.FakeBackend`
protocol double (the backend-attached path without sqlite).  Policy
semantics are pinned to be bit-identical across the three, so any test
that holds for one must hold for the others.
"""

import itertools

import pytest

from repro.feedback import StatisticsStore
from tests.feedback.fakes import FakeBackend


@pytest.fixture(params=["memory", "sqlite", "fake"])
def make_store(request, tmp_path):
    """Factory building fresh stores on the parametrized backend."""
    counter = itertools.count()

    def make(**kwargs):
        if request.param == "memory":
            return StatisticsStore(**kwargs)
        if request.param == "fake":
            return StatisticsStore.open(
                FakeBackend.path, backend=FakeBackend(), **kwargs
            )
        return StatisticsStore.open(
            tmp_path / f"stats-{next(counter)}.sqlite", **kwargs
        )

    make.backend = request.param
    return make
