"""HTTP route handling: params → engine calls → wire status/headers.

One :class:`Router` serves four endpoints over a
:class:`~repro.serving.engine.ServingEngine`:

* ``GET /search`` — the admitted, priced, deadline-bounded query path.
  The router never parses or plans: it asks the serving layer for the
  admission price of ``(q, k, algorithm, scored)`` — answered from the
  memoised plan entry, so a repeated request at an unchanged epoch costs
  no parse, no ordering and no cost-model walk — and then submits
  ``serving.search(q, ...)`` with the raw text, the key the plan cache
  hits without parsing.
  Plain mode returns one JSON document; ``page=`` returns one diverse
  result page (:mod:`repro.core.pagination` semantics: every page is
  maximally diverse over the inventory not yet shown); ``pages=N``
  streams N pages as chunked NDJSON, each page written as soon as the
  engine computes it.
* ``GET /metrics`` — the process metrics registry
  (``?format=json`` for the repro-metrics snapshot, Prometheus text
  exposition otherwise).  Control plane: never queued, never priced.
* ``GET /healthz`` — liveness + drain state.
* ``GET /`` — endpoint discovery document.

The resilience taxonomy maps onto the wire exactly once, here
(mirrored in docs/paper_mapping.md):

=============================  ======  =========================
outcome                        status  extras
=============================  ======  =========================
answered (possibly degraded)   200     ``X-Repro-Degraded: shards=f/t``
parse / bad parameter          400
quota exhausted                429     ``Retry-After``
admission: deadline unmeetable 429     ``Retry-After``
queue full / shed / draining   503     ``Retry-After``
shards lost (scan path)        503     ``Retry-After``
deadline exceeded              504
=============================  ======  =========================

Degraded answers ride a 200 — they are still valid Definitions 1–2
diverse top-k over the reachable rows — but are flagged in the header and
are **never cached** (the serving cache refuses them; the flag survives
the process boundary so clients can tell, too).
"""

from __future__ import annotations

import asyncio
import math
from typing import Dict, List, Optional, Tuple

from ..core.engine import ALGORITHMS, AUTO
from ..core.result import DiverseResult
from ..observability import MONOTONIC, Clock
from ..query.parser import QueryParseError
from ..resilience.errors import (
    DeadlineExceededError,
    ResilienceError,
    ShardUnavailableError,
)
from .admission import Rejection
from .protocol import (
    ChunkedWriter,
    ProtocolError,
    Request,
    error_body,
    json_bytes,
    write_response,
)

TENANT_HEADER = "x-repro-tenant"
DEADLINE_HEADER = "x-repro-deadline-ms"

#: Pagination runs the probing/one-pass drivers over an exclusion view;
#: other algorithms fall back to probe (documented in the README).
PAGEABLE_ALGORITHMS = ("probe", "onepass")

#: Safety net when the serving layer cannot price a query (statistics
#: behind a crashed shard): assume a moderately expensive request rather
#: than letting unpriceable traffic bypass admission maths.
FALLBACK_COST_UNITS = 200.0


class BadRequest(Exception):
    """A 400: the client sent something the route cannot interpret."""


def _positive_int(raw: str, name: str, maximum: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise BadRequest(f"{name} must be an integer, got {raw!r}") from None
    if value < 1 or value > maximum:
        raise BadRequest(f"{name} must be in [1, {maximum}], got {value}")
    return value


def _flag(raw: Optional[str]) -> bool:
    return raw is not None and raw.lower() in ("1", "true", "yes", "on")


def result_payload(result: DiverseResult, **extra) -> Dict:
    """The JSON document one :class:`DiverseResult` serialises to."""
    stats = result.stats
    payload = {
        "k": result.k,
        "algorithm": stats.get("algorithm_selected", result.algorithm),
        "scored": result.scored,
        "count": len(result),
        "degraded": bool(stats.get("degraded")),
        "cache_hit": bool(stats.get("cache_hit")),
        "items": [
            {
                "rid": item.rid,
                "dewey": list(item.dewey),
                "score": item.score,
                "values": item.values,
            }
            for item in result.items
        ],
    }
    if payload["degraded"]:
        payload["shards_failed"] = stats.get("shards_failed")
        payload["shards_total"] = stats.get("shards_total")
    payload.update(extra)
    return payload


class Router:
    """Dispatches parsed requests against the serving engine.

    ``submit`` is the server's admission seam
    (``submit(cost, deadline_ms, work, label) -> Ticket``): the router
    prices and parameterises, the lifecycle layer queues and executes.
    """

    def __init__(self, serving, config, admission, quotas, registry,
                 clock: Clock = MONOTONIC):
        self._serving = serving
        self._config = config
        self._admission = admission
        self._quotas = quotas
        self._registry = registry
        self._clock = clock
        self._draining = False
        enabled = registry is not None and registry.enabled
        self._requests_total = (lambda route, status: registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status",
            route=route, status=str(status),
        )) if enabled else (lambda route, status: None)
        if enabled:
            self._admitted_total = registry.counter(
                "repro_http_admitted_total",
                "Search requests admitted past admission control")
            self._shed_total = (lambda reason: registry.counter(
                "repro_http_shed_total",
                "Search requests rejected or shed by admission control",
                reason=reason))
            self._quota_total = registry.counter(
                "repro_http_quota_rejected_total",
                "Search requests rejected by per-tenant quotas")
            self._degraded_total = registry.counter(
                "repro_http_degraded_total",
                "Search answers served degraded (survivor shards only)")
            self._latency = {
                outcome: registry.histogram(
                    "repro_http_request_ms",
                    "End-to-end request latency, by outcome",
                    outcome=outcome)
                for outcome in ("admitted", "rejected")
            }
            self._queue_wait = registry.histogram(
                "repro_http_queue_wait_ms",
                "Time admitted requests spent queued before execution")
        else:
            self._admitted_total = None
            self._shed_total = lambda reason: None
            self._quota_total = None
            self._degraded_total = None
            self._latency = {}
            self._queue_wait = None

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def set_draining(self) -> None:
        self._draining = True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, request: Request, writer) -> bool:
        """Serve one request; returns whether to keep the connection."""
        started = self._clock()
        route = request.path
        try:
            if request.method not in ("GET", "HEAD"):
                await self._error(writer, request, 405, "method_not_allowed",
                                  f"{request.method} is not supported")
                return request.keep_alive
            if route == "/healthz":
                return await self._healthz(request, writer)
            if route == "/metrics":
                return await self._metrics(request, writer)
            if route == "/":
                return await self._index(request, writer)
            if route == "/search":
                return await self._search(request, writer, started)
            await self._error(writer, request, 404, "not_found",
                              f"no route {route!r}")
            return request.keep_alive
        except (ConnectionResetError, BrokenPipeError):
            return False

    def _observe(self, request: Request, status: int,
                 started: Optional[float] = None,
                 outcome: Optional[str] = None) -> None:
        counter = self._requests_total(request.path, status)
        if counter is not None:
            counter.inc()
        if outcome is not None and started is not None:
            hist = self._latency.get(outcome)
            if hist is not None:
                hist.observe((self._clock() - started) * 1000.0)

    async def _error(self, writer, request: Request, status: int, error: str,
                     message: str, retry_after_ms: Optional[float] = None,
                     started: Optional[float] = None,
                     outcome: Optional[str] = None) -> None:
        headers: List[Tuple[str, str]] = []
        if retry_after_ms is not None and math.isfinite(retry_after_ms):
            headers.append(
                ("Retry-After", str(max(1, math.ceil(retry_after_ms / 1000.0))))
            )
        self._observe(request, status, started, outcome)
        await write_response(
            writer, status, error_body(status, error, message),
            extra_headers=headers, keep_alive=request.keep_alive,
        )

    # ------------------------------------------------------------------
    # Control-plane routes
    # ------------------------------------------------------------------
    async def _healthz(self, request: Request, writer) -> bool:
        body = json_bytes({
            "status": "draining" if self._draining else "ok",
            "epoch": self._serving.epoch,
            "queued": self._admission.queued,
            "inflight": self._admission.inflight,
        })
        self._observe(request, 200)
        await write_response(writer, 200, body, keep_alive=request.keep_alive)
        return request.keep_alive

    async def _metrics(self, request: Request, writer) -> bool:
        from ..observability import get_registry

        registry = self._registry if self._registry is not None else get_registry()
        if request.param("format", "prometheus") == "json":
            import json as _json

            body = (_json.dumps(registry.snapshot(), indent=2, sort_keys=True,
                                default=str) + "\n").encode("utf-8")
            content_type = "application/json"
        else:
            body = registry.render_prometheus().encode("utf-8")
            content_type = "text/plain; version=0.0.4"
        self._observe(request, 200)
        await write_response(writer, 200, body, content_type=content_type,
                             keep_alive=request.keep_alive)
        return request.keep_alive

    async def _index(self, request: Request, writer) -> bool:
        body = json_bytes({
            "service": "repro-serve",
            "endpoints": {
                "/search": "q, k, algorithm, scored, page, pages, page_size, "
                           "deadline_ms; headers X-Repro-Tenant, "
                           "X-Repro-Deadline-Ms",
                "/metrics": "format=prometheus|json",
                "/healthz": "liveness + drain state",
            },
        })
        self._observe(request, 200)
        await write_response(writer, 200, body, keep_alive=request.keep_alive)
        return request.keep_alive

    # ------------------------------------------------------------------
    # The search path
    # ------------------------------------------------------------------
    def _price(self, text: str, k: int, algorithm: str, scored: bool) -> float:
        """Seek-unit admission price of one request, from the serving
        layer's memoised plan (for ``auto``, the cost of what the planner
        will actually run).  A malformed query raises
        :class:`QueryParseError`; anything else that keeps the model from
        a positive finite price falls back to a fixed conservative
        constant — pricing must never take the serving path down."""
        try:
            price = self._serving.price(text, k, algorithm, scored)
        except QueryParseError:
            raise
        except Exception:
            return FALLBACK_COST_UNITS
        if not math.isfinite(price) or price <= 0.0:
            return FALLBACK_COST_UNITS
        return price

    def _search_params(self, request: Request):
        text = request.param("q")
        if not text:
            raise BadRequest("missing required parameter 'q'")
        config = self._config
        k = _positive_int(request.param("k", str(config.default_k)), "k",
                          config.max_k)
        algorithm = request.param("algorithm", config.default_algorithm)
        if algorithm not in ALGORITHMS and algorithm != AUTO:
            raise BadRequest(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{ALGORITHMS + (AUTO,)}"
            )
        scored = _flag(request.param("scored"))
        page = request.param("page")
        pages = request.param("pages")
        page_size = request.param("page_size")
        if page is not None and pages is not None:
            raise BadRequest("pass either page= (one page) or pages= "
                             "(a stream), not both")
        if page is not None:
            page = _positive_int(page, "page", config.max_pages)
        if pages is not None:
            pages = _positive_int(pages, "pages", config.max_pages)
        if page_size is not None:
            page_size = _positive_int(page_size, "page_size", config.max_k)
        deadline_raw = request.param(
            "deadline_ms", request.header(DEADLINE_HEADER))
        if deadline_raw is None:
            deadline_ms: Optional[float] = config.default_deadline_ms
        else:
            try:
                deadline_ms = float(deadline_raw)
            except ValueError:
                raise BadRequest(
                    f"deadline_ms must be a number, got {deadline_raw!r}"
                ) from None
            if deadline_ms <= 0.0:
                deadline_ms = None  # explicit 0/negative = unbounded
        if (page is not None or pages is not None):
            if scored:
                raise BadRequest("pagination serves unscored queries only")
            if algorithm not in PAGEABLE_ALGORITHMS:
                algorithm = "probe"
        return text, k, algorithm, scored, page, pages, page_size, deadline_ms

    async def _search(self, request: Request, writer, started: float) -> bool:
        if self._draining:
            await self._error(
                writer, request, 503, "draining",
                "server is draining; retry against another instance",
                retry_after_ms=1000.0, started=started, outcome="rejected")
            return False
        try:
            (text, k, algorithm, scored, page, pages, page_size,
             deadline_ms) = self._search_params(request)
        except BadRequest as exc:
            await self._error(writer, request, 400, "bad_request", str(exc),
                              started=started, outcome="rejected")
            return request.keep_alive

        tenant = request.header(TENANT_HEADER)
        retry_after_ms = self._quotas.check(tenant)
        if retry_after_ms > 0.0:
            if self._quota_total is not None:
                self._quota_total.inc()
            await self._error(
                writer, request, 429, "quota_exceeded",
                f"tenant {tenant or 'anonymous'!r} is over its request quota",
                retry_after_ms=retry_after_ms, started=started,
                outcome="rejected")
            return request.keep_alive

        try:
            cost = self._price(text, k, algorithm, scored)
        except QueryParseError as exc:
            await self._error(writer, request, 400, "parse_error", str(exc),
                              started=started, outcome="rejected")
            return request.keep_alive
        page_count = pages if pages is not None else (page or 0)
        if page_count:
            cost *= page_count

        serving = self._serving
        if pages is not None:
            return await self._stream_pages(
                request, writer, started, text, pages,
                page_size or k, algorithm, cost, deadline_ms)

        if page is not None:
            def work():
                return serving.search_page(
                    text, k, page=page, page_size=page_size,
                    algorithm=algorithm)
        else:
            def work():
                return serving.search(text, k, algorithm=algorithm,
                                      scored=scored)

        try:
            ticket = self._admission.submit(cost, deadline_ms, work,
                                            label=request.path)
        except Rejection as exc:
            self._shed_total(exc.reason)
            await self._error(writer, request, exc.status, exc.reason,
                              str(exc), retry_after_ms=exc.retry_after_ms,
                              started=started, outcome="rejected")
            return request.keep_alive
        if self._admitted_total is not None:
            self._admitted_total.inc()

        try:
            result = await asyncio.shield(ticket.future)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            status, error, message, retry_after = self._map_failure(exc)
            if isinstance(exc, Rejection):
                self._shed_total(exc.reason)
                outcome = "rejected"
            else:
                outcome = "admitted"
            await self._error(writer, request, status, error, message,
                              retry_after_ms=retry_after, started=started,
                              outcome=outcome)
            return request.keep_alive

        if ticket.started_at is not None and self._queue_wait is not None:
            self._queue_wait.observe(
                (ticket.started_at - ticket.enqueued_at) * 1000.0)
        headers = self._result_headers(result, ticket)
        body = json_bytes(result_payload(
            result, query=text,
            **({"page": page, "page_size": page_size or k} if page else {})))
        self._observe(request, 200, started, "admitted")
        await write_response(writer, 200, body, extra_headers=headers,
                             keep_alive=request.keep_alive)
        return request.keep_alive

    def _result_headers(self, result: DiverseResult, ticket) -> List[Tuple[str, str]]:
        stats = result.stats
        headers = [
            ("X-Repro-Algorithm",
             str(stats.get("algorithm_selected", result.algorithm))),
            ("X-Repro-Cache", "hit" if stats.get("cache_hit") else "miss"),
        ]
        if ticket.started_at is not None:
            headers.append((
                "X-Repro-Queue-Ms",
                f"{(ticket.started_at - ticket.enqueued_at) * 1000.0:.2f}",
            ))
        if stats.get("degraded"):
            if self._degraded_total is not None:
                self._degraded_total.inc()
            headers.append((
                "X-Repro-Degraded",
                f"shards={stats.get('shards_failed', '?')}"
                f"/{stats.get('shards_total', '?')}",
            ))
        return headers

    def _map_failure(self, exc: BaseException):
        """(status, error, message, retry_after_ms) for one failed search."""
        if isinstance(exc, Rejection):
            return exc.status, exc.reason, str(exc), exc.retry_after_ms
        if isinstance(exc, DeadlineExceededError):
            return 504, "deadline_exceeded", str(exc), None
        if isinstance(exc, ShardUnavailableError):
            return 503, "shards_unavailable", str(exc), 1000.0
        if isinstance(exc, ResilienceError):
            return 503, "unavailable", str(exc), 1000.0
        if isinstance(exc, (ValueError, QueryParseError)):
            return 400, "bad_request", str(exc), None
        return 500, "internal_error", f"{type(exc).__name__}: {exc}", None

    # ------------------------------------------------------------------
    # Streaming pagination
    # ------------------------------------------------------------------
    async def _stream_pages(self, request: Request, writer, started: float,
                            text: str, pages: int, page_size: int,
                            algorithm: str, cost: float,
                            deadline_ms: Optional[float]) -> bool:
        """Chunked NDJSON: one diverse page per chunk, as computed.

        The whole stream is one admission ticket (priced for all pages):
        the executor thread computes pages and hands each to the event
        loop, which writes it while the next page is being computed.
        Admission never truncates a started stream — a failure mid-stream
        surfaces as a final NDJSON error line, not a silent cut.
        """
        loop = asyncio.get_running_loop()
        page_queue: asyncio.Queue = asyncio.Queue()
        serving = self._serving

        def work():
            produced = 0
            for number in range(1, pages + 1):
                result = serving.search_page(
                    text, page_size, page=number, page_size=page_size,
                    algorithm=algorithm)
                payload = result_payload(result, page=number,
                                         page_size=page_size)
                loop.call_soon_threadsafe(page_queue.put_nowait, payload)
                produced += 1
                if len(result) < page_size:
                    break  # results ran out; later pages are empty
            return produced

        try:
            ticket = self._admission.submit(cost, deadline_ms, work,
                                            label="/search:stream")
        except Rejection as exc:
            self._shed_total(exc.reason)
            await self._error(writer, request, exc.status, exc.reason,
                              str(exc), retry_after_ms=exc.retry_after_ms,
                              started=started, outcome="rejected")
            return request.keep_alive
        if self._admitted_total is not None:
            self._admitted_total.inc()

        chunked = ChunkedWriter(writer, extra_headers=[
            ("X-Repro-Algorithm", algorithm),
            ("X-Repro-Page-Size", str(page_size)),
        ])
        future = ticket.future
        failure: Optional[BaseException] = None
        try:
            while True:
                getter = asyncio.ensure_future(page_queue.get())
                done, _ = await asyncio.wait(
                    {getter, future}, return_when=asyncio.FIRST_COMPLETED)
                if getter in done:
                    await chunked.write_chunk(
                        json_bytes(getter.result()) + b"\n")
                    continue
                getter.cancel()
                # Work finished (or failed): flush anything still queued.
                while not page_queue.empty():
                    await chunked.write_chunk(
                        json_bytes(page_queue.get_nowait()) + b"\n")
                if not future.cancelled() and future.exception() is not None:
                    failure = future.exception()
                break
        except (ConnectionResetError, BrokenPipeError):
            return False
        if failure is not None:
            status, error, message, _ = self._map_failure(failure)
            await chunked.write_chunk(json_bytes(
                {"error": error, "status": status, "message": message}
            ) + b"\n")
            self._observe(request, 200, started, "admitted")
            await chunked.finish()
            return False  # a truncated stream must not be reused
        self._observe(request, 200, started, "admitted")
        await chunked.finish()
        return request.keep_alive
