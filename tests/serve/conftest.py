"""Fixtures for the planning-server suite: an in-process server thread.

The server is asyncio; the tests are synchronous.  :class:`ServerThread`
runs a :class:`~repro.serve.PlanningServer` on its own event loop in a
daemon thread and exposes synchronous hooks: connect a blocking client,
run one background re-optimization pass to completion, shut down.  Tests
get a real TCP round trip (the same bytes the CLI client sends) without
subprocess startup cost.

Every test here fails on an unraisable exception (an exception raised
where nothing can catch it, such as a connection handler's ``finally``
running after its event loop closed): a server that shuts down cleanly
leaves none behind.
"""

from __future__ import annotations

import asyncio
import gc
import threading
from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.serve import PlanningClient, PlanningServer, ServerConfig


SERVE_TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items) -> None:
    for item in items:
        if item.path.is_relative_to(SERVE_TESTS):
            item.add_marker(
                pytest.mark.filterwarnings(
                    "error::pytest.PytestUnraisableExceptionWarning"
                )
            )


class ServerThread:
    """A planning server running on a private event loop thread."""

    def __init__(
        self, config: ServerConfig, tracer: Tracer | None = None
    ) -> None:
        self.server = PlanningServer(config, tracer=tracer)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("server thread failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_until_complete(self.server.serve_forever())
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def connect(self, timeout: float = 30.0) -> PlanningClient:
        return PlanningClient("127.0.0.1", self.server.port, timeout=timeout)

    def run_background_pass(self) -> int:
        """One re-optimization batch, synchronously, on the loop thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.run_background_pass(), self.loop
        )
        return future.result(timeout=60)

    def call(self, fn, *args):
        """Run ``fn(*args)`` on the event-loop thread (state inspection)."""
        done = threading.Event()
        box = {}

        def runner():
            try:
                box["value"] = fn(*args)
            except Exception as exc:  # pragma: no cover
                box["error"] = exc
            finally:
                done.set()

        self.loop.call_soon_threadsafe(runner)
        if not done.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("loop call timed out")
        if "error" in box:  # pragma: no cover
            raise box["error"]
        return box["value"]

    def stop(self) -> None:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
            self._thread.join(timeout=30)


@pytest.fixture
def make_server():
    """Factory fixture: build ServerThreads, stop them all at teardown."""
    servers: list[ServerThread] = []

    def build(
        config: ServerConfig | None = None, tracer: Tracer | None = None
    ) -> ServerThread:
        server = ServerThread(
            config or ServerConfig(reopt_interval=0), tracer=tracer
        )
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.stop()
    # Collect the stopped servers now, so that anything they leave
    # behind is reported against this test and not a later one.
    servers.clear()
    gc.collect()
