"""HTTP route handling: params → engine calls → wire status/headers.

One :class:`Router` serves four endpoints over a
:class:`~repro.serving.engine.ServingEngine`:

* ``GET /search`` — the priced, deadline-bounded query path.  The router
  never parses or plans: it asks the serving layer one question about
  ``(q, k, algorithm, scored)`` — :meth:`ServingEngine.lookup
  <repro.serving.engine.ServingEngine.lookup>`, answered from the
  memoised plan entry under one acquisition of the cache lock.  A result
  cached at the current epoch is written straight back on the event loop,
  as the body bytes stored on its cache entry (:func:`hit_body`): it never
  queues, never crosses the executor, is encoded once per query text and
  teaches the admission EWMA nothing (a hit is a stored full answer, never
  a degraded one, and refusing it would cost more than serving it).
  Otherwise the answer is the admission price, and ``serving.search(q,
  ...)`` is submitted with the raw text, the key the plan cache hits
  without parsing.  Draining, bad parameters, quota and parse errors are
  refused before the lookup.  Plain mode returns one JSON document;
  ``page=`` returns one diverse result page (:mod:`repro.core.pagination`
  semantics: every page is maximally diverse over the inventory not yet
  shown); ``pages=N`` streams N pages as chunked NDJSON, each page
  written as soon as the engine computes it (both are admitted and
  priced per page).
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
import json
import math
from typing import Dict, List, Optional, Tuple

from ..core.engine import ALGORITHMS, AUTO
from ..core.result import DiverseResult, ResultItem
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

#: Upper bounds of a request's ``k`` and ``page_size``, and of its
#: ``page`` and ``pages``.
MAX_K = 1000
MAX_PAGES = 100

#: The ``route`` labels of ``repro_http_requests_total``; any other path
#: a client probes is counted as ``other``, so the series stay bounded.
ROUTES = ("/", "/healthz", "/metrics", "/search")

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


def _envelope(result: DiverseResult, extra: Dict) -> Dict:
    """Everything one result serialises to except its items."""
    stats = result.stats
    envelope = {
        "k": result.k,
        "algorithm": stats.get("algorithm_selected", result.algorithm),
        "scored": result.scored,
        "count": len(result),
        "degraded": bool(stats.get("degraded")),
        "cache_hit": bool(stats.get("cache_hit")),
    }
    if envelope["degraded"]:
        envelope["shards_failed"] = stats.get("shards_failed")
        envelope["shards_total"] = stats.get("shards_total")
    envelope.update(extra)
    return envelope


def item_payload(item: ResultItem) -> Dict:
    """One item's JSON document, read straight off its captured row."""
    return {
        "rid": item.rid,
        "dewey": list(item.dewey),
        "score": item.score,
        "values": dict(zip(item.names, item.row)),
    }


def result_payload(result: DiverseResult, **extra) -> Dict:
    """The JSON document one :class:`DiverseResult` serialises to."""
    payload = _envelope(result, extra)
    payload["items"] = [item_payload(item) for item in result.items]
    return payload


def _item_json(item: ResultItem) -> bytes:
    """One item's JSON, encoded at most once.  An item is shared by every
    hit of the cache entry that holds it, so the bytes are kept in its
    ``_json`` slot and die with that entry; no second cache."""
    encoded = item._json
    if encoded is None:
        encoded = item._json = json_bytes(item_payload(item))
    return encoded


def result_body(result: DiverseResult, **extra) -> bytes:
    """:func:`result_payload` as response bytes: the small envelope is
    encoded per response, the items are joined from their kept bytes."""
    envelope = json_bytes(_envelope(result, extra))
    return b'%s,"items":[%s]}' % (
        envelope[:-1], b",".join([_item_json(item) for item in result.items]))


def hit_body(result: DiverseResult, text: str) -> bytes:
    """The body of a cache hit on a plain (non-``page=``) search, encoded
    at most once per query text.  Every envelope field of a hit is fixed
    by its cache entry except ``query``, so the bytes are kept with that
    text in the entry's shared columns (``_Columns.body``) and die with
    the entry, as an item's ``_json`` does; no second cache."""
    columns = result._columns
    kept = columns.body
    if kept is None or kept[0] != text:
        kept = columns.body = (text, result_body(result, query=text))
    return kept[1]


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
        # ``(route, status) -> counter``, resolved once each (bounded by
        # ROUTES + "other"); a disabled registry hands out no-op handles.
        self._requests_total: Dict[Tuple[str, int], object] = {}
        self._admitted_total = registry.counter(
            "repro_http_admitted_total",
            "Search requests admitted past admission control")
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

    def _shed_total(self, reason: str) -> None:
        self._registry.counter(
            "repro_http_shed_total",
            "Search requests rejected or shed by admission control",
            reason=reason).inc()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, request: Request, writer) -> bool:
        """Serve one request; returns whether to keep the connection."""
        started = self._clock()
        route = request.path
        try:
            if request.method not in ("GET", "HEAD"):
                return await self._error(
                    writer, request, 405, "method_not_allowed",
                    f"{request.method} is not supported")
            if route == "/healthz":
                return await self._healthz(request, writer)
            if route == "/metrics":
                return await self._metrics(request, writer)
            if route == "/":
                return await self._index(request, writer)
            if route == "/search":
                return await self._search(request, writer, started)
            return await self._error(writer, request, 404, "not_found",
                                     f"no route {route!r}")
        except (ConnectionResetError, BrokenPipeError):
            return False

    def _observe(self, request: Request, status: int,
                 started: Optional[float] = None,
                 outcome: Optional[str] = None) -> None:
        route = request.path if request.path in ROUTES else "other"
        counter = self._requests_total.get((route, status))
        if counter is None:
            counter = self._requests_total[route, status] = self._registry.counter(
                "repro_http_requests_total",
                "HTTP requests served, by route and status",
                route=route, status=str(status))
        counter.inc()
        if outcome is not None and started is not None:
            self._latency[outcome].observe((self._clock() - started) * 1000.0)

    async def _respond(self, writer, request: Request, status: int,
                       body: bytes, headers=(),
                       content_type: str = "application/json",
                       started: Optional[float] = None,
                       outcome: Optional[str] = None) -> bool:
        """Count and write one buffered answer (headers only to a ``HEAD``);
        returns whether the client wants the connection kept."""
        self._observe(request, status, started, outcome)
        keep_alive = request.keep_alive
        await write_response(
            writer, status, body, content_type=content_type,
            extra_headers=headers, keep_alive=keep_alive,
            head=request.method == "HEAD")
        return keep_alive

    async def _error(self, writer, request: Request, status: int, error: str,
                     message: str, retry_after_ms: Optional[float] = None,
                     started: Optional[float] = None,
                     outcome: Optional[str] = None) -> bool:
        headers: List[Tuple[str, str]] = []
        if retry_after_ms is not None and math.isfinite(retry_after_ms):
            headers.append(
                ("Retry-After", str(max(1, math.ceil(retry_after_ms / 1000.0))))
            )
        return await self._respond(
            writer, request, status, error_body(status, error, message),
            headers, started=started, outcome=outcome)

    # ------------------------------------------------------------------
    # Control-plane routes
    # ------------------------------------------------------------------
    async def _healthz(self, request: Request, writer) -> bool:
        return await self._respond(writer, request, 200, json_bytes({
            "status": "draining" if self._admission.draining else "ok",
            "epoch": self._serving.epoch,
            "queued": self._admission.queued,
            "inflight": self._admission.inflight,
        }))

    async def _metrics(self, request: Request, writer) -> bool:
        registry = self._registry
        if request.param("format", "prometheus") == "json":
            body = (json.dumps(registry.snapshot(), indent=2, sort_keys=True,
                                default=str) + "\n").encode("utf-8")
            content_type = "application/json"
        else:
            body = registry.render_prometheus().encode("utf-8")
            content_type = "text/plain; version=0.0.4"
        return await self._respond(writer, request, 200, body,
                                   content_type=content_type)

    async def _index(self, request: Request, writer) -> bool:
        return await self._respond(writer, request, 200, json_bytes({
            "service": "repro-serve",
            "endpoints": {
                "/search": "q, k, algorithm, scored, page, pages, page_size, "
                           "deadline_ms; headers X-Repro-Tenant, "
                           "X-Repro-Deadline-Ms",
                "/metrics": "format=prometheus|json",
                "/healthz": "liveness + drain state",
            },
        }))

    # ------------------------------------------------------------------
    # The search path
    # ------------------------------------------------------------------
    def _lookup(self, text: str, k: int, algorithm: str, scored: bool,
                paged: bool):
        """``(hit, price)`` — the one question a request asks the serving
        layer: the cached answer, or ``None`` and the seek-unit admission
        price of the memoised plan (paged requests are only priced).  A
        malformed query raises :class:`QueryParseError`; anything else
        that keeps the model from a positive finite price falls back to a
        fixed conservative constant — pricing must never take the serving
        path down."""
        try:
            if paged:
                hit, price = None, self._serving.price(text, k, algorithm, scored)
            else:
                hit, price = self._serving.lookup(text, k, algorithm, scored)
        except QueryParseError:
            raise
        except Exception:
            return None, FALLBACK_COST_UNITS
        if hit is None and not (math.isfinite(price) and price > 0.0):
            price = FALLBACK_COST_UNITS
        return hit, price

    def _search_params(self, request: Request):
        text = request.param("q")
        if not text:
            raise BadRequest("missing required parameter 'q'")
        config = self._config
        k = _positive_int(request.param("k", str(config.default_k)), "k",
                          MAX_K)
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
            page = _positive_int(page, "page", MAX_PAGES)
        if pages is not None:
            pages = _positive_int(pages, "pages", MAX_PAGES)
        if page_size is not None:
            page_size = _positive_int(page_size, "page_size", MAX_K)
        deadline_raw = request.param(
            "deadline_ms", request.header(DEADLINE_HEADER))
        if deadline_raw is None:
            deadline_ms: Optional[float] = config.default_deadline_ms
        else:
            try:
                deadline_ms = float(deadline_raw)
            except ValueError:
                deadline_ms = math.nan
            if math.isnan(deadline_ms):  # NaN would compare as "no deadline"
                raise BadRequest(
                    f"deadline_ms must be a number, got {deadline_raw!r}")
            if deadline_ms <= 0.0:
                deadline_ms = None  # explicit 0/negative = unbounded
        if (page is not None or pages is not None):
            if scored:
                raise BadRequest("pagination serves unscored queries only")
            if algorithm not in PAGEABLE_ALGORITHMS:
                algorithm = "probe"
        return text, k, algorithm, scored, page, pages, page_size, deadline_ms

    async def _search(self, request: Request, writer, started: float) -> bool:
        if self._admission.draining:
            await self._error(
                writer, request, 503, "draining",
                "server is draining; retry against another instance",
                retry_after_ms=1000.0, started=started, outcome="rejected")
            return False
        try:
            (text, k, algorithm, scored, page, pages, page_size,
             deadline_ms) = self._search_params(request)
        except BadRequest as exc:
            return await self._error(
                writer, request, 400, "bad_request", str(exc),
                started=started, outcome="rejected")

        tenant = request.header(TENANT_HEADER)
        retry_after_ms = self._quotas.check(tenant)
        if retry_after_ms > 0.0:
            self._quota_total.inc()
            return await self._error(
                writer, request, 429, "quota_exceeded",
                f"tenant {tenant or 'anonymous'!r} is over its request quota",
                retry_after_ms=retry_after_ms, started=started,
                outcome="rejected")

        page_count = pages if pages is not None else (page or 0)
        try:
            result, cost = self._lookup(text, k, algorithm, scored,
                                        paged=bool(page_count))
        except QueryParseError as exc:
            return await self._error(
                writer, request, 400, "parse_error", str(exc),
                started=started, outcome="rejected")
        if page_count:
            cost *= page_count
        if pages is not None:
            return await self._stream_pages(
                request, writer, started, text, pages,
                page_size or k, algorithm, cost, deadline_ms)

        ticket = None
        if result is None:  # not cached at this epoch: queue the search
            def work():
                if page is None:
                    return self._serving.search(text, k, algorithm=algorithm,
                                                scored=scored)
                return self._serving.search_page(
                    text, k, page=page, page_size=page_size,
                    algorithm=algorithm)

            ticket = await self._submit(request, writer, started, cost,
                                        deadline_ms, work, request.path)
            if ticket is None:
                return request.keep_alive
            try:
                result = await asyncio.shield(ticket.future)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                status, error, message, retry_after = self._map_failure(exc)
                shed = isinstance(exc, Rejection)  # while it was queued
                if shed:
                    self._shed_total(exc.reason)
                return await self._error(
                    writer, request, status, error, message,
                    retry_after_ms=retry_after, started=started,
                    outcome="rejected" if shed else "admitted")
            if ticket.started_at is not None:
                self._queue_wait.observe(
                    (ticket.started_at - ticket.enqueued_at) * 1000.0)

        # One tail for both outcomes: a hit is a stored full answer, so it
        # is counted and written as the admitted request it stands in for.
        if page:
            body = result_body(result, query=text, page=page,
                               page_size=page_size or k)
        elif ticket is None:
            body = hit_body(result, text)
        else:
            body = result_body(result, query=text)
        return await self._respond(
            writer, request, 200, body, self._result_headers(result, ticket),
            started=started, outcome="admitted")

    async def _submit(self, request: Request, writer, started: float,
                      cost: float, deadline_ms: Optional[float], work,
                      label: str):
        """Queue one priced piece of work; a refusal is answered here and
        returns ``None``."""
        try:
            ticket = self._admission.submit(cost, deadline_ms, work,
                                            label=label)
        except Rejection as exc:
            self._shed_total(exc.reason)
            await self._error(writer, request, exc.status, exc.reason,
                              str(exc), retry_after_ms=exc.retry_after_ms,
                              started=started, outcome="rejected")
            return None
        self._admitted_total.inc()
        return ticket

    def _result_headers(self, result: DiverseResult, ticket) -> List[Tuple[str, str]]:
        stats = result.stats
        headers = [
            ("X-Repro-Algorithm",
             str(stats.get("algorithm_selected", result.algorithm))),
            ("X-Repro-Cache", "hit" if stats.get("cache_hit") else "miss"),
        ]
        if ticket is not None and ticket.started_at is not None:
            headers.append((
                "X-Repro-Queue-Ms",
                f"{(ticket.started_at - ticket.enqueued_at) * 1000.0:.2f}",
            ))
        if stats.get("degraded"):
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
        the executor thread computes and encodes pages and hands each line
        to the event loop, which writes it while the next page is being
        computed.  Admission never truncates a started stream — a failure
        mid-stream surfaces as a final NDJSON error line, not a silent cut.
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
                line = result_body(result, page=number,
                                   page_size=page_size) + b"\n"
                loop.call_soon_threadsafe(page_queue.put_nowait, line)
                produced += 1
                if len(result) < page_size:
                    break  # results ran out; later pages are empty
            return produced

        ticket = await self._submit(request, writer, started, cost,
                                    deadline_ms, work, "/search:stream")
        if ticket is None:
            return request.keep_alive

        chunked = ChunkedWriter(writer, extra_headers=[
            ("X-Repro-Algorithm", algorithm),
            ("X-Repro-Page-Size", str(page_size)),
        ], head=request.method == "HEAD")
        future = ticket.future
        failure: Optional[BaseException] = None
        try:
            while True:
                getter = asyncio.ensure_future(page_queue.get())
                done, _ = await asyncio.wait(
                    {getter, future}, return_when=asyncio.FIRST_COMPLETED)
                if getter in done:
                    await chunked.write_chunk(getter.result())
                    continue
                getter.cancel()
                # Work finished (or failed): flush anything still queued.
                while not page_queue.empty():
                    await chunked.write_chunk(page_queue.get_nowait())
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
        # A truncated stream must not be reused.
        return failure is None and request.keep_alive
