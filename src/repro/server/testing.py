"""Test/benchmark helper: run a :class:`ReproServer` on a daemon thread.

Tests and the load harness are synchronous; the server is asyncio.  This
bridges the two: :class:`ServerThread` spins up a private event loop on a
daemon thread, starts the server on an ephemeral port, and exposes the
bound address.  ``stop()`` (or leaving the ``with`` block) performs a
full graceful drain on the server's own loop, so even the test path
exercises exactly the shutdown sequence SIGTERM would.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Tuple

from .lifecycle import ReproServer, ServerConfig


class ServerThread:
    """Context manager running one server on its own thread + event loop."""

    def __init__(self, serving, config: Optional[ServerConfig] = None,
                 registry=None):
        self._serving = serving
        self._config = config or ServerConfig()
        self._registry = registry
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server-thread", daemon=True)
        self.server: Optional[ReproServer] = None
        self.address: Optional[Tuple[str, int]] = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.server = ReproServer(self._serving, self._config,
                                      registry=self._registry)
            self.address = await self.server.start()
        except BaseException as exc:  # startup failed — report to caller
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.drain()

    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server failed to start within 30 s")
        if self._error is not None:
            raise RuntimeError("server startup failed") from self._error
        return self

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain and join; idempotent."""
        if self._loop is None or self._stop is None:
            return
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
