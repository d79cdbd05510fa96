"""Server lifecycle: configuration, connection handling, workers, drain.

:class:`ReproServer` owns the asyncio plumbing around one
:class:`~repro.serving.engine.ServingEngine`:

* ``asyncio.start_server`` accepts connections; each connection is one
  handler task running a keep-alive loop of ``read_request`` →
  ``Router.dispatch`` and no task or timer per request: the idle timeout
  is one timer per connection that re-arms itself from a deadline stamp
  each request moves, and closes the transport once the stamp has passed;
  a result-cache hit is answered inside ``dispatch`` without leaving the
  loop, from its stored body.
* A fixed pool of worker tasks pulls admitted tickets (searches that have
  to *run*) off the :class:`~repro.server.admission.AdmissionController`
  and runs the engine work on a
  :class:`~concurrent.futures.ThreadPoolExecutor` (the engine is
  synchronous pure Python; the event loop must never block on it).
* :meth:`drain` implements graceful shutdown: stop accepting, refuse new
  work, finish every admitted request, then close connections and wait
  for their handlers to exit — nothing is ever cut off mid-answer and no
  task is left for the loop's teardown to cancel.  ``run_server`` wires
  SIGTERM/SIGINT to it for the CLI ``serve`` subcommand.

Everything here is standard library only, like the rest of the project.
"""

from __future__ import annotations

import asyncio
import signal
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..observability import MONOTONIC, Clock, get_registry
from .admission import AdmissionController, Ticket
from .protocol import (
    STREAM_LIMIT,
    ProtocolError,
    error_body,
    read_request,
    write_response,
)
from .quotas import TenantQuotas
from .routes import Router

from ..resilience.errors import DeadlineExceededError

#: How long :meth:`ReproServer.drain` waits for connection handlers to see
#: their closed transport and return (one loop iteration when healthy).
HANDLER_EXIT_GRACE_S = 5.0


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one server instance (all have serving-safe defaults)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = pick a free port (tests)
    workers: int = 1                   # engine executor threads
    queue_depth: int = 64              # admission queue bound
    default_deadline_ms: float = 1000.0
    default_k: int = 10
    default_algorithm: str = "auto"
    quota_rate_per_s: float = 0.0      # <= 0 disables tenant quotas
    quota_burst: float = 10.0
    initial_ms_per_unit: float = 0.02  # admission EWMA seed
    rate_alpha: float = 0.2
    idle_timeout_s: float = 30.0       # keep-alive read timeout


class ReproServer:
    """The asyncio HTTP front-end over one serving engine.

    Use as::

        server = ReproServer(serving, ServerConfig(port=8080))
        await server.start()
        ...
        await server.drain()

    ``start`` and ``drain`` must be called on the same event loop; the
    engine itself runs on executor threads and is closed by the caller
    (the server borrows it, it does not own it).
    """

    def __init__(self, serving, config: Optional[ServerConfig] = None,
                 registry=None, clock: Clock = MONOTONIC):
        self._serving = serving
        self.config = config or ServerConfig()
        self._registry = registry if registry is not None else get_registry()
        self._clock = clock
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._workers: list = []
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._drained = asyncio.Event()
        self._drain_started = False
        self.admission = AdmissionController(
            queue_depth=self.config.queue_depth,
            workers=self.config.workers,
            initial_ms_per_unit=self.config.initial_ms_per_unit,
            rate_alpha=self.config.rate_alpha,
            clock=clock,
            registry=self._registry,
        )
        self.quotas = TenantQuotas(
            rate_per_s=self.config.quota_rate_per_s,
            burst=self.config.quota_burst,
            clock=clock,
        )
        self.router = Router(serving, self.config, self.admission,
                             self.quotas, self._registry, clock)

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, spawn workers, start accepting; returns (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-http")
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._worker(), name=f"repro-http-worker-{i}")
            for i in range(self.config.workers)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=STREAM_LIMIT)
        sock = self._server.sockets[0]
        self.address: Tuple[str, int] = sock.getsockname()[:2]
        return self.address

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        self._connections[handler] = writer
        loop = asyncio.get_running_loop()
        idle_timeout_s = self.config.idle_timeout_s
        # One timer per connection, not one per request: each request moves
        # the ``idle_at`` stamp (``None`` while one is in flight, which is
        # never cut off), and the timer re-arms itself from the stamp only
        # when it fires.  A client that leaves the connection idle has its
        # transport closed, which the read below sees as EOF.
        idle_at: Optional[float] = loop.time() + idle_timeout_s

        def expire() -> None:
            nonlocal idle
            now = loop.time()
            if idle_at is None or now < idle_at:
                idle = loop.call_at(
                    now + idle_timeout_s if idle_at is None else idle_at,
                    expire)
            else:
                writer.close()

        idle = loop.call_at(idle_at, expire)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    await write_response(
                        writer, exc.status,
                        error_body(exc.status, "protocol_error", str(exc)),
                        keep_alive=False)
                    break
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                if request is None:
                    break  # clean EOF between requests
                idle_at = None
                try:
                    keep_alive = await self.router.dispatch(request, writer)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # last-resort 500; never hang up mute
                    try:
                        await write_response(
                            writer, 500,
                            error_body(500, "internal_error",
                                       f"{type(exc).__name__}: {exc}"),
                            keep_alive=False)
                    except Exception:
                        pass
                    break
                if not keep_alive:
                    break
                idle_at = loop.time() + idle_timeout_s
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            idle.cancel()
            self._connections.pop(handler, None)
            try:
                writer.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        """Pull admitted tickets and run them on the engine executor."""
        loop = asyncio.get_running_loop()
        while True:
            ticket = await self.admission.next_ticket()
            try:
                await self._execute(loop, ticket)
            except asyncio.CancelledError:
                # Worker cancelled mid-ticket (forced shutdown): answer the
                # caller rather than leaving the future forever pending.
                if not ticket.future.done():
                    ticket.future.set_exception(
                        DeadlineExceededError("server shut down mid-request"))
                raise

    async def _execute(self, loop, ticket: Ticket) -> None:
        now = self._clock()
        if ticket.deadline_expired(now):
            # Expired while queued: refuse without touching the engine and
            # without polluting the EWMA (no service happened).
            if not ticket.future.done():
                ticket.future.set_exception(DeadlineExceededError(
                    f"deadline ({ticket.deadline_ms:g} ms) expired after "
                    f"{ticket.queue_ms(now):.1f} ms in queue"))
            self.admission.finish(ticket, -1.0)
            return
        started = self._clock()
        try:
            result = await loop.run_in_executor(self._executor, ticket.work)
        except BaseException as exc:  # noqa: BLE001 — forwarded to caller
            if not ticket.future.done():  # else already answered (client gone)
                ticket.future.set_exception(exc)
        else:
            if not ticket.future.done():
                ticket.future.set_result(result)
        self.admission.finish(ticket, (self._clock() - started) * 1000.0)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    async def drain(self, timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: refuse new work, finish admitted requests.

        Idempotent and safe to call concurrently (second caller awaits the
        first drain).  Order matters: stop accepting sockets, flip
        admission to draining (new /search answers 503), wait for
        the queue and in-flight work to empty, then tear down workers,
        executor, and any idle keep-alive connections — and wait for their
        handlers to return, so the loop has no task left to cancel.
        """
        if self._drain_started:
            await self._drained.wait()
            return
        self._drain_started = True
        self.admission.start_draining()
        if self._server is not None:
            self._server.close()
            # Deliberately no wait_closed(): on newer asyncio it waits for
            # every connection handler, and idle keep-alive connections
            # would stall drain; we close them explicitly below.
        try:  # timeout_s=None waits for as long as the work takes
            await asyncio.wait_for(self.admission.wait_idle(), timeout_s)
        except asyncio.TimeoutError:
            pass  # forced drain — workers are cancelled below
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        handlers = dict(self._connections)
        for writer in handlers.values():
            try:
                writer.close()
            except Exception:
                pass
        if handlers:
            # Each sees EOF and returns; never cancelled (a cancelled
            # handler is what the stream protocol's callback chokes on).
            await asyncio.wait(handlers, timeout=HANDLER_EXIT_GRACE_S)
        self._drained.set()


def run_server(serving, config: Optional[ServerConfig] = None,
               registry=None, announce=print) -> int:
    """Run a server until SIGTERM/SIGINT, then drain; returns exit code 0.

    The blocking entry point behind ``python -m repro serve``.  The engine
    is borrowed: the caller closes it after this returns (by then drain
    has finished every admitted request, so close is safe).
    """

    async def main() -> int:
        server = ReproServer(serving, config, registry=registry)
        host, port = await server.start()
        announce(f"repro-serve listening on http://{host}:{port}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover — non-Unix
                pass
        await stop.wait()
        announce("repro-serve draining (finishing admitted requests)")
        await server.drain()
        announce("repro-serve drained; bye")
        return 0

    return asyncio.run(main())
