"""The HTTP front-end: protocol, quotas, admission, and the wire contract.

Four layers, tested bottom-up:

1. :mod:`repro.server.protocol` — parser limits and framing, in isolation
   over in-memory streams.
2. :mod:`repro.server.quotas` — token-bucket arithmetic on a fake clock.
3. :mod:`repro.server.admission` — deadline-aware admission and
   cheapest-to-reject shedding, on a fake clock with no sockets at all.
4. The full server (``ServerThread`` + ``http.client``) — status codes,
   headers, pagination streaming, overload shedding, graceful drain, and
   the end-to-end degraded-response contract (a crashed shard behind the
   server yields ``200`` + ``X-Repro-Degraded``, the answer is verified
   diverse over the survivors, and the degraded answer is never cached).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
import urllib.parse

import pytest

from faults.chaos import ChaosPolicy, inject
from repro.core import baselines
from repro.core.similarity import is_diverse
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.index.merged import MergedList
from repro.observability import FakeClock, MetricsRegistry, use_registry
from repro.query.parser import parse_query
from repro.serving import ServingEngine
from repro.server import (
    AdmissionController,
    Rejection,
    ServerConfig,
    ServerThread,
    TenantQuotas,
)
from repro.server.admission import (
    REASON_DEADLINE,
    REASON_OVERLOAD,
    REASON_SHED,
)
from repro.server.protocol import (
    ProtocolError,
    read_request,
    render_response,
)

from .conftest import CountingLock

QUERY = urllib.parse.quote("Make = 'Honda'")


# ======================================================================
# Layer 1: protocol
# ======================================================================
def _parse(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


class TestProtocol:
    def test_parses_target_params_and_headers(self):
        request = _parse(
            b"GET /search?q=abc&k=3 HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"X-Repro-Tenant: alice\r\n"
            b"\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/search"
        assert request.param("q") == "abc"
        assert request.param("k") == "3"
        assert request.header("x-repro-tenant") == "alice"
        assert request.header("X-Repro-Tenant") == "alice"  # case-blind
        assert request.keep_alive  # 1.1 default

    def test_connection_close_and_http10(self):
        assert not _parse(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive
        assert not _parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        assert _parse(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_body_via_content_length(self):
        request = _parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
        assert request.body == b"hello"

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GARBAGE\r\n\r\n", 400),                      # no method/target
            (b"GET / HTTP/9.9\r\n\r\n", 400),               # bad version
            (b"GET / HTTP/1.1\r\nbroken header\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            (b"GET / HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n", 413),
        ],
    )
    def test_malformed_requests(self, raw, status):
        with pytest.raises(ProtocolError) as excinfo:
            _parse(raw)
        assert excinfo.value.status == status

    def test_header_count_limit(self):
        raw = b"GET / HTTP/1.1\r\n" + b"".join(
            b"H%d: v\r\n" % i for i in range(100)) + b"\r\n"
        with pytest.raises(ProtocolError) as excinfo:
            _parse(raw)
        assert excinfo.value.status == 431

    def test_render_response_framing(self):
        raw = render_response(200, b'{"ok":1}', keep_alive=False)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b'{"ok":1}'
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 8" in head
        assert b"Connection: close" in head


# ======================================================================
# Layer 2: quotas
# ======================================================================
class TestQuotas:
    def test_disabled_by_default(self):
        quotas = TenantQuotas()
        assert not quotas.enabled
        assert quotas.check("anyone") == 0.0
        assert len(quotas) == 0  # no state kept when disabled

    def test_burst_then_reject_with_retry_hint(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate_per_s=2.0, burst=3.0, clock=clock)
        assert [quotas.check("t") for _ in range(3)] == [0.0, 0.0, 0.0]
        retry_after = quotas.check("t")
        # Bucket is empty; at 2 tokens/s one token is 500 ms away.
        assert retry_after == pytest.approx(500.0)
        assert quotas.rejected == 1
        clock.advance(0.5)
        assert quotas.check("t") == 0.0  # refilled exactly one token

    def test_tenants_are_isolated(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate_per_s=1.0, burst=1.0, clock=clock)
        assert quotas.check("a") == 0.0
        assert quotas.check("a") > 0.0
        assert quotas.check("b") == 0.0  # b has its own bucket

    def test_anonymous_callers_share_one_bucket(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate_per_s=1.0, burst=1.0, clock=clock)
        assert quotas.check(None) == 0.0
        assert quotas.check("") > 0.0  # falsy tenant = same anonymous bucket

    def test_lru_eviction_bounds_memory(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate_per_s=1.0, burst=1.0, clock=clock,
                              max_tenants=2)
        quotas.check("a")
        quotas.check("b")
        quotas.check("c")  # evicts a
        assert len(quotas) == 2
        assert "a" not in quotas.snapshot()
        # Evicted tenant restarts from a full bucket (permissive, never worse).
        assert quotas.check("a") == 0.0


# ======================================================================
# Layer 3: admission control
# ======================================================================
def run_async(coroutine):
    return asyncio.run(coroutine)


class TestAdmission:
    def test_rejects_unmeetable_deadline_on_arrival(self):
        async def scenario():
            clock = FakeClock()
            admission = AdmissionController(
                initial_ms_per_unit=1.0, clock=clock)
            # cost 100 units at 1 ms/unit = 100 ms of service: a 50 ms
            # deadline can never be met, even with an empty queue.
            with pytest.raises(Rejection) as excinfo:
                admission.submit(100.0, 50.0, lambda: None)
            assert excinfo.value.status == 429
            assert excinfo.value.reason == REASON_DEADLINE
            assert excinfo.value.retry_after_ms == pytest.approx(50.0)
            assert admission.rejected == 1
            # The same request with a workable deadline is admitted.
            ticket = admission.submit(100.0, 200.0, lambda: None)
            assert ticket.state == "queued"
            assert admission.admitted == 1

        run_async(scenario())

    def test_projected_wait_counts_queued_and_inflight(self):
        async def scenario():
            clock = FakeClock()
            admission = AdmissionController(
                initial_ms_per_unit=1.0, workers=1, clock=clock)
            admission.submit(100.0, None, lambda: None)
            await admission.next_ticket()           # 100 units in flight
            admission.submit(50.0, None, lambda: None)  # 50 queued
            assert admission.projected_wait_ms() == pytest.approx(150.0)
            # A deadline inside the projected wait is rejected on arrival.
            with pytest.raises(Rejection):
                admission.submit(1.0, 100.0, lambda: None)

        run_async(scenario())

    def test_queue_full_sheds_costliest(self):
        async def scenario():
            clock = FakeClock()
            admission = AdmissionController(
                queue_depth=2, initial_ms_per_unit=0.001, clock=clock)
            cheap = admission.submit(1.0, None, lambda: None)
            pricey = admission.submit(100.0, None, lambda: None)
            newcomer = admission.submit(5.0, None, lambda: None)
            # The most expensive queued request was shed, not the newcomer.
            assert pricey.state == "shed"
            assert cheap.state == "queued"
            assert newcomer.state == "queued"
            with pytest.raises(Rejection) as excinfo:
                await pricey.future
            assert excinfo.value.status == 503
            assert excinfo.value.reason == REASON_SHED
            assert admission.shed == 1

        run_async(scenario())

    def test_queue_full_rejects_newcomer_when_it_is_costliest(self):
        async def scenario():
            clock = FakeClock()
            admission = AdmissionController(
                queue_depth=1, initial_ms_per_unit=0.001, clock=clock)
            queued = admission.submit(1.0, None, lambda: None)
            with pytest.raises(Rejection) as excinfo:
                admission.submit(100.0, None, lambda: None)
            assert excinfo.value.reason == REASON_OVERLOAD
            assert queued.state == "queued"  # incumbent survives

        run_async(scenario())

    def test_expired_deadline_victim_shed_first(self):
        async def scenario():
            clock = FakeClock()
            admission = AdmissionController(
                queue_depth=2, initial_ms_per_unit=0.001, clock=clock)
            expired = admission.submit(999.0, 10.0, lambda: None)
            fresh = admission.submit(1.0, None, lambda: None)
            clock.advance(0.05)  # 50 ms: the first ticket's deadline passed
            admission.submit(1.0, None, lambda: None)
            assert expired.state == "shed"  # free rejection, costliest spared
            assert fresh.state == "queued"

        run_async(scenario())

    def test_running_tickets_are_never_shed(self):
        async def scenario():
            clock = FakeClock()
            admission = AdmissionController(
                queue_depth=1, initial_ms_per_unit=0.001, clock=clock)
            running = admission.submit(1000.0, None, lambda: None)
            await admission.next_ticket()
            assert running.state == "running"
            admission.submit(1.0, None, lambda: None)
            with pytest.raises(Rejection):
                # Queue holds one cheap ticket; this costlier newcomer is
                # rejected rather than ever touching the running ticket.
                admission.submit(500.0, None, lambda: None)
            assert running.state == "running"

        run_async(scenario())

    def test_ewma_learns_service_rate(self):
        async def scenario():
            clock = FakeClock()
            admission = AdmissionController(
                initial_ms_per_unit=1.0, rate_alpha=0.5, clock=clock)
            admission.submit(10.0, None, lambda: None)
            ticket = await admission.next_ticket()
            admission.finish(ticket, 30.0)  # 3 ms/unit observed
            assert admission.ms_per_unit == pytest.approx(2.0)  # 0.5*3 + 0.5*1
            admission.submit(10.0, None, lambda: None)
            ticket = await admission.next_ticket()
            admission.finish(ticket, -1.0)  # refused ticket: no sample
            assert admission.ms_per_unit == pytest.approx(2.0)

        run_async(scenario())

    def test_drain_refuses_and_wait_idle_resolves(self):
        async def scenario():
            clock = FakeClock()
            admission = AdmissionController(clock=clock)
            admission.submit(1.0, None, lambda: None)
            admission.start_draining()
            with pytest.raises(Rejection) as excinfo:
                admission.submit(1.0, None, lambda: None)
            assert excinfo.value.status == 503
            # The admitted ticket still runs to completion.
            ticket = await admission.next_ticket()
            admission.finish(ticket, 1.0)
            await asyncio.wait_for(admission.wait_idle(), timeout=1.0)

        run_async(scenario())


# ======================================================================
# Layer 4: the full server
# ======================================================================
def _request(address, target, headers=None, timeout=30.0):
    """One GET against the test server; returns (status, headers, body)."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", target, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    with use_registry(fresh):
        yield fresh


@pytest.fixture
def figure1_server(registry):
    serving = ServingEngine.from_relation(
        figure1_relation(), figure1_ordering())
    with ServerThread(serving, ServerConfig(), registry=registry) as thread:
        yield thread
    serving.close()


class TestServerEndToEnd:
    def test_search_roundtrip_with_cache_headers(self, figure1_server):
        address = figure1_server.address
        status, headers, body = _request(address, f"/search?q={QUERY}&k=2")
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        assert "X-Repro-Degraded" not in headers
        document = json.loads(body)
        assert document["count"] == 2
        assert len(document["items"]) == 2
        assert {"rid", "dewey", "values", "score"} <= set(document["items"][0])
        # The identical query is a result-cache hit with identical items.
        status, headers, repeat = _request(address, f"/search?q={QUERY}&k=2")
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        assert json.loads(repeat)["items"] == document["items"]

    def test_healthz_and_index(self, figure1_server):
        status, _, body = _request(figure1_server.address, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, _, body = _request(figure1_server.address, "/")
        assert status == 200
        assert "/search" in json.loads(body)["endpoints"]

    def test_error_statuses(self, figure1_server):
        address = figure1_server.address
        cases = {
            "/nope": 404,
            "/search": 400,                              # missing q
            f"/search?q={QUERY}&k=0": 400,
            f"/search?q={QUERY}&algorithm=wat": 400,
            "/search?q=%3D%3D%3D": 400,                  # parse error
            f"/search?q={QUERY}&page=1&pages=2": 400,    # mutually exclusive
            f"/search?q={QUERY}&scored=1&page=1": 400,   # scored pagination
        }
        for target, expected in cases.items():
            status, _, body = _request(address, target)
            assert status == expected, target
            assert json.loads(body)["status"] == expected

    def test_upper_bounds(self, figure1_server):
        from repro.server.routes import MAX_K, MAX_PAGES

        address = figure1_server.address
        for name, value in (("k", MAX_K), ("pages", MAX_PAGES),
                            ("page_size", MAX_K)):
            status, _, body = _request(
                address, f"/search?q={QUERY}&{name}={value + 1}")
            assert status == 400, name
            assert f"{name} must be in [1, {value}]" in \
                json.loads(body)["message"]
        assert _request(address, f"/search?q={QUERY}&k={MAX_K}")[0] == 200
        assert _request(
            address, f"/search?q={QUERY}&pages=1&page_size={MAX_K}")[0] == 200

    def test_single_page_and_stream_do_not_overlap(self, figure1_server):
        address = figure1_server.address
        pages = []
        for number in (1, 2, 3):
            status, _, body = _request(
                address,
                f"/search?q={QUERY}&page={number}&page_size=1")
            assert status == 200
            pages.append(json.loads(body))
        rids = [item["rid"] for page in pages for item in page["items"]]
        assert len(rids) == len(set(rids))  # pages never repeat a row
        # The streaming path yields the same pages, one NDJSON line each.
        status, headers, body = _request(
            address, f"/search?q={QUERY}&pages=3&page_size=1")
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert [p["items"] for p in lines] == [p["items"] for p in pages]

    def test_quota_rejects_with_retry_after(self, registry):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        config = ServerConfig(quota_rate_per_s=0.001, quota_burst=2.0)
        with ServerThread(serving, config, registry=registry) as thread:
            address = thread.address
            headers = {"X-Repro-Tenant": "greedy"}
            for _ in range(2):
                status, _, _ = _request(
                    address, f"/search?q={QUERY}", headers=headers)
                assert status == 200
            status, answer_headers, body = _request(
                address, f"/search?q={QUERY}", headers=headers)
            assert status == 429
            assert json.loads(body)["error"] == "quota_exceeded"
            assert int(answer_headers["Retry-After"]) >= 1
            # Another tenant is unaffected.
            status, _, _ = _request(
                address, f"/search?q={QUERY}",
                headers={"X-Repro-Tenant": "patient"})
            assert status == 200
        serving.close()

    def test_unmeetable_deadline_rejected_on_arrival(self, registry):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        # 1000 ms/unit makes any query's estimated service dwarf a 1 ms
        # deadline, so admission must refuse before execution.
        config = ServerConfig(initial_ms_per_unit=1000.0)
        with ServerThread(serving, config, registry=registry) as thread:
            status, headers, body = _request(
                thread.address, f"/search?q={QUERY}&deadline_ms=1")
            assert status == 429
            assert json.loads(body)["error"] == REASON_DEADLINE
            assert "Retry-After" in headers
            # deadline_ms=0 means unbounded: the same query succeeds.
            status, _, _ = _request(
                thread.address, f"/search?q={QUERY}&deadline_ms=0")
            assert status == 200
        serving.close()

    def test_deadline_header_equivalent_to_param(self, registry):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        config = ServerConfig(initial_ms_per_unit=1000.0)
        with ServerThread(serving, config, registry=registry) as thread:
            status, _, _ = _request(
                thread.address, f"/search?q={QUERY}",
                headers={"X-Repro-Deadline-Ms": "1"})
            assert status == 429
        serving.close()

    def test_overload_sheds_instead_of_collapsing(self, registry):
        serving = _SlowServing(figure1_relation(), delay_s=0.15)
        config = ServerConfig(queue_depth=1, workers=1,
                              default_deadline_ms=0.0)
        with ServerThread(serving, config, registry=registry) as thread:
            address = thread.address
            outcomes = []
            lock = threading.Lock()

            def fire():
                status, _, body = _request(
                    address, f"/search?q={QUERY}&deadline_ms=0")
                with lock:
                    outcomes.append((status, body))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for worker in threads:
                worker.start()
                time.sleep(0.01)  # arrivals overlap but are ordered
            for worker in threads:
                worker.join(timeout=30.0)
            statuses = sorted(status for status, _ in outcomes)
            assert len(statuses) == 6
            assert statuses.count(200) >= 2  # running + queued finish
            assert any(status == 503 for status in statuses)  # overload shed
            admission = thread.server.admission
            assert admission.shed + admission.rejected >= 1
            assert admission.completed >= 2
        serving.close()

    def test_graceful_drain_finishes_inflight_work(self, registry):
        serving = _SlowServing(figure1_relation(), delay_s=0.3)
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            address = thread.address
            outcome = {}

            def slow_call():
                outcome["answer"] = _request(
                    address, f"/search?q={QUERY}&deadline_ms=0")

            caller = threading.Thread(target=slow_call)
            caller.start()
            time.sleep(0.1)  # request is admitted and executing
            thread.stop()    # full drain on the server's own loop
            caller.join(timeout=30.0)
            status, _, _ = outcome["answer"]
            assert status == 200  # in-flight answer completed, not cut off
        serving.close()

    def test_metrics_endpoints_both_formats(self, figure1_server):
        address = figure1_server.address
        _request(address, f"/search?q={QUERY}")
        status, headers, body = _request(address, "/metrics")
        assert status == 200
        assert "text/plain" in headers["Content-Type"]
        assert b"repro_http_requests_total" in body
        assert b"repro_http_queue_depth" in body
        status, _, body = _request(address, "/metrics?format=json")
        assert status == 200
        snapshot = json.loads(body)
        names = {counter["name"] for counter in snapshot["counters"]}
        assert "repro_http_requests_total" in names
        assert "repro_http_admitted_total" in names
        histograms = {h["name"] for h in snapshot["histograms"]}
        assert "repro_http_request_ms" in histograms


class TestPlannedOnce:
    """The router never plans: the cached answer, the admission price and
    the search all come from the serving layer's memoised plan entry,
    keyed by the raw query text."""

    @pytest.fixture
    def planning(self, monkeypatch):
        """Call counts of every planning step a request could trigger."""
        import collections

        import repro.core.engine as core_engine
        import repro.planner.cost as cost

        calls = collections.Counter()
        for module, name in (
            (core_engine, "parse_query"),
            (core_engine, "normalise"),
            (core_engine, "order_for_leapfrog"),
            (cost, "extract_features"),
        ):
            def counting(*args, _original=getattr(module, name), _name=name,
                         **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    @staticmethod
    def _ticket_costs(thread):
        """Record the cost of every ticket the router submits."""
        admission = thread.server.admission
        costs, submit = [], admission.submit

        def recording(cost, *args, **kwargs):
            costs.append(cost)
            return submit(cost, *args, **kwargs)

        admission.submit = recording
        return costs

    @pytest.mark.parametrize("algorithm", ["auto", "probe"])
    def test_repeated_request_plans_nothing(self, registry, planning,
                                            algorithm):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        target = f"/search?q={QUERY}&k=2&algorithm={algorithm}"
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            costs = self._ticket_costs(thread)
            status, headers, _ = _request(thread.address, target)
            assert (status, headers["X-Repro-Cache"]) == (200, "miss")
            # Admission and execution shared one parse and one pricing.
            assert planning["parse_query"] == 1
            assert planning["extract_features"] == 1
            first = dict(planning)

            status, headers, _ = _request(thread.address, target)
            assert (status, headers["X-Repro-Cache"]) == (200, "hit")
            assert dict(planning) == first  # zero planning calls of any kind
            assert len(costs) == 1 and costs[0] > 0.0  # a hit submits none

            # A mutation moves the epoch (the lookup checks it: the next
            # request is a miss through admission): the plan is re-ordered
            # (never re-parsed) and the price recomputed exactly once.
            serving.insert(("Honda", "Fit", "Green", 2008, "hatchback"))
            status, headers, _ = _request(thread.address, target)
            assert (status, headers["X-Repro-Cache"]) == (200, "miss")
            assert planning["parse_query"] == 1
            assert planning["order_for_leapfrog"] == first["order_for_leapfrog"] + 1
            assert planning["extract_features"] == 2
            after_insert = dict(planning)
            status, headers, _ = _request(thread.address, target)
            assert (status, headers["X-Repro-Cache"]) == (200, "hit")
            assert dict(planning) == after_insert
            assert len(costs) == 2 and costs[1] > 0.0
        serving.close()

    def test_malformed_query_never_reaches_admission(self, registry):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            costs = self._ticket_costs(thread)
            status, _, body = _request(thread.address, "/search?q=%3D%3D%3D")
            assert status == 400
            assert json.loads(body)["error"] == "parse_error"
            assert costs == []
        serving.close()

    @pytest.mark.parametrize("algorithm", ["auto", "naive"])
    def test_unpriceable_query_gets_the_fallback_price(self, registry,
                                                       algorithm):
        """Statistics behind a crashed shard: the request is admitted at
        the conservative constant, and that price is never memoised."""
        from repro.server.routes import FALLBACK_COST_UNITS

        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2)
        chaos = inject(serving.engine, ChaosPolicy.crash_shards(0)).policy
        target = f"/search?q={QUERY}&k=3&algorithm={algorithm}"
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            costs = self._ticket_costs(thread)
            status, headers, _ = _request(thread.address, target)
            assert status == 200 and "X-Repro-Degraded" in headers
            assert costs == [FALLBACK_COST_UNITS]
            chaos.revive(0)
            for _ in range(60):  # outlasts a breaker cooldown, if one opened
                _request(thread.address, target)
                if costs[-1] != FALLBACK_COST_UNITS:
                    break
                time.sleep(0.05)
            assert 0.0 < costs[-1] != FALLBACK_COST_UNITS
        serving.close()


class _SlowServing(ServingEngine):
    """A serving engine whose every search takes ``delay_s`` (overload rig)."""

    def __init__(self, relation, delay_s: float):
        from repro import DiversityEngine

        super().__init__(
            DiversityEngine.from_relation(relation, figure1_ordering()))
        self._delay_s = delay_s

    def search(self, query, k, algorithm="probe", scored=False):
        time.sleep(self._delay_s)
        return super().search(query, k, algorithm=algorithm, scored=scored)


class TestHitPath:
    """A result cached at the current epoch is answered on the event loop:
    one lookup, one write.  Pinned as counts, not timings."""

    @pytest.fixture
    def item_encodings(self, monkeypatch):
        """Every ``ResultItem`` the router encodes, in order."""
        from repro.server import routes

        encoded, item_payload = [], routes.item_payload

        def counting(item):
            encoded.append(item)
            return item_payload(item)

        monkeypatch.setattr(routes, "item_payload", counting)
        return encoded

    def test_hit_crosses_no_queue_no_executor_and_one_lock(
            self, registry, monkeypatch, item_encodings):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        target = f"/search?q={QUERY}&k=3"
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            status, headers, miss = _request(thread.address, target)
            assert (status, headers["X-Repro-Cache"]) == (200, "miss")
            assert "X-Repro-Queue-Ms" in headers
            assert len(item_encodings) == 3
            admission = thread.server.admission
            learned = (admission.admitted, admission.completed,
                       admission.ms_per_unit)
            assert learned[:2] == (1, 1)
            before = serving.cache.stats_snapshot()

            executor, executed = thread.server._executor, []
            submit = executor.submit
            monkeypatch.setattr(
                executor, "submit",
                lambda *args: executed.append(args) or submit(*args))
            lock = serving.cache._lock = CountingLock(serving.cache._lock)
            hits = 25
            for _ in range(hits):
                status, headers, body = _request(thread.address, target)
                assert (status, headers["X-Repro-Cache"]) == (200, "hit")
                assert "X-Repro-Queue-Ms" not in headers  # it never queued
                document = json.loads(body)
                assert document["cache_hit"] is True
                assert document["items"] == json.loads(miss)["items"]
            assert lock.acquired == hits  # one acquisition per hit
            assert executed == []
            assert len(item_encodings) == 3  # items were encoded once, ever
            # Admission saw, and learned from, the one execution only.
            assert (admission.admitted, admission.completed,
                    admission.ms_per_unit) == learned
            after = serving.cache.stats_snapshot()
            assert after.hits - before.hits == hits
            assert after.plan_hits - before.plan_hits == hits  # not 2x
            assert after.misses == before.misses
            assert registry.find(
                "repro_http_request_ms", outcome="admitted").count == 1 + hits
        serving.close()

    def test_refusals_run_before_the_lookup(self, registry):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        config = ServerConfig(quota_rate_per_s=0.001, quota_burst=3.0)
        target = f"/search?q={QUERY}&k=2"
        with ServerThread(serving, config, registry=registry) as thread:
            address = thread.address
            assert _request(address, target)[1]["X-Repro-Cache"] == "miss"
            assert _request(address, target)[1]["X-Repro-Cache"] == "hit"
            hits = serving.cache.stats_snapshot().hits
            # Bad parameter (spends no quota), then over quota, then drain:
            # each is refused although the answer is sitting in the cache.
            assert _request(address, f"/search?q={QUERY}&k=0")[0] == 400
            assert _request(address, target)[0] == 200  # third token
            status, headers, _ = _request(address, target)
            assert status == 429 and "Retry-After" in headers
            thread._loop.call_soon_threadsafe(
                thread.server.admission.start_draining)
            status, _, body = _request(
                address, target, headers={"X-Repro-Tenant": "other"})
            assert status == 503
            assert json.loads(body)["error"] == "draining"
            assert serving.cache.stats_snapshot().hits == hits + 1
        serving.close()

    def test_hit_is_served_while_misses_are_shed(self, registry):
        """Worker blocked in a slow miss, queue full: the cached query is
        answered, a fresh one is refused."""
        serving = _SlowServing(figure1_relation(), delay_s=0.5)
        config = ServerConfig(queue_depth=1, workers=1,
                              default_deadline_ms=0.0)
        cached = f"/search?q={QUERY}&k=2&deadline_ms=0"
        fresh = ("/search?q=" + urllib.parse.quote("Make = 'Toyota'")
                 + "&k=2&deadline_ms=0")
        with ServerThread(serving, config, registry=registry) as thread:
            address = thread.address
            assert _request(address, cached)[0] == 200  # fills the cache
            admission = thread.server.admission
            slow = [threading.Thread(target=_request, args=(address, fresh))
                    for _ in range(2)]
            # One running, then one queued: the queue is full.
            for worker, state in zip(slow, ((1, 0), (1, 1))):
                worker.start()
                for _ in range(200):
                    if (admission.inflight, admission.queued) == state:
                        break
                    time.sleep(0.005)
            assert (admission.inflight, admission.queued) == (1, 1)
            status, headers, _ = _request(address, cached)
            assert (status, headers["X-Repro-Cache"]) == (200, "hit")
            status, _, body = _request(address, fresh)
            assert status == 503
            assert json.loads(body)["error"] == REASON_OVERLOAD
            assert registry.value("repro_http_shed_total",
                                  reason=REASON_OVERLOAD) == 1
            assert (admission.inflight, admission.queued) == (1, 1)
            for worker in slow:
                worker.join(timeout=30.0)
                assert not worker.is_alive()
        serving.close()

    def test_bodies_equal_the_payload_document(self, registry,
                                               item_encodings):
        """Wire bytes of a miss, a hit, ``page=2`` and a two-page stream
        decode to ``result_payload`` of the same result (a twin engine
        replays the same calls in-process)."""
        from repro.server.routes import result_payload

        text = "Make = 'Honda'"
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        twin = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            address = thread.address
            target = f"/search?q={QUERY}&k=3&algorithm=probe"
            for cache_hit in (False, True, True):
                expected = result_payload(
                    twin.search(text, 3, algorithm="probe"), query=text)
                encoded = len(item_encodings)
                document = json.loads(_request(address, target)[2])
                assert document["cache_hit"] is cache_hit
                assert document == expected
                # The miss encodes its three items; no hit encodes again.
                assert len(item_encodings) - encoded == (0 if cache_hit else 3)
            document = json.loads(_request(
                address, f"/search?q={QUERY}&page=2&page_size=1")[2])
            assert document == result_payload(
                twin.search_page(text, 10, page=2, page_size=1),
                query=text, page=2, page_size=1)
            _, headers, body = _request(
                address, f"/search?q={QUERY}&pages=2&page_size=1")
            assert headers["Transfer-Encoding"] == "chunked"
            assert [json.loads(line) for line in body.splitlines()] == [
                result_payload(
                    twin.search_page(text, 1, page=number, page_size=1),
                    page=number, page_size=1)
                for number in (1, 2)
            ]
        serving.close()
        twin.close()


class TestConnections:
    """What one keep-alive connection costs, and how it ends."""

    def test_keep_alive_requests_create_no_tasks(self, figure1_server):
        loop, created = figure1_server._loop, []

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        connection = http.client.HTTPConnection(
            *figure1_server.address, timeout=30.0)
        try:
            def get(target):
                connection.request("GET", target)
                response = connection.getresponse()
                return response.getheader("X-Repro-Cache"), response.read()

            # Connected (its one handler task exists) and cached.
            assert get(f"/search?q={QUERY}&k=2")[0] == "miss"
            loop.call_soon_threadsafe(loop.set_task_factory, factory)
            for _ in range(50):
                assert get(f"/search?q={QUERY}&k=2")[0] == "hit"
                assert json.loads(get("/healthz")[1])["status"] == "ok"
            assert created == []
        finally:
            connection.close()

    def test_idle_timeout_is_rearmed_per_request(self, registry):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        config = ServerConfig(idle_timeout_s=1.0)
        with ServerThread(serving, config, registry=registry) as thread:
            connection = http.client.HTTPConnection(
                *thread.address, timeout=10.0)
            try:
                for _ in range(4):  # 1.2 s of life: each request re-arms
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert response.status == 200 and response.read()
                    time.sleep(0.3)
                # Left idle, the server hangs up (recv sees EOF, no timeout).
                assert connection.sock.recv(1) == b""
            finally:
                connection.close()
        serving.close()

    def test_head_sends_headers_only(self, figure1_server):
        connection = http.client.HTTPConnection(
            *figure1_server.address, timeout=30.0)
        try:
            for target in ("/healthz", f"/search?q={QUERY}&k=2",  # a miss
                           f"/search?q={QUERY}&k=2",              # a hit
                           f"/search?q={QUERY}&pages=2&page_size=1", "/nope"):
                connection.request("HEAD", target)
                head = connection.getresponse()
                assert head.read() == b""
                # The next response on the same connection must parse: a
                # body after the HEAD would be read as its status line.
                connection.request("GET", target)
                response = connection.getresponse()
                body = response.read()
                assert response.status == head.status
                if "/search" not in target:  # same document both times
                    assert int(head.getheader("Content-Length")) == len(body)
        finally:
            connection.close()

    def test_unknown_paths_share_one_metric_series(self, figure1_server,
                                                   registry):
        for number in range(50):
            status, _, _ = _request(figure1_server.address, f"/nope/{number}")
            assert status == 404
        series = [counter for counter in registry.snapshot()["counters"]
                  if counter["name"] == "repro_http_requests_total"]
        assert [(c["labels"], c["value"]) for c in series] == [
            ({"route": "other", "status": "404"}, 50)]

    def test_drain_leaves_no_handler_to_cancel(self, registry, capfd):
        """Stopping while a client holds an idle keep-alive connection:
        drain returns only once its handler has exited, so the loop's
        teardown cancels nothing and nothing is reported."""
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        thread = ServerThread(serving, ServerConfig(), registry=registry)
        thread.start()
        reported = []
        thread._loop.call_soon_threadsafe(
            thread._loop.set_exception_handler,
            lambda loop, context: reported.append(context))
        connection = http.client.HTTPConnection(*thread.address, timeout=30.0)
        try:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
            thread.stop()
            assert not thread._thread.is_alive()
            assert not thread.server._connections
        finally:
            connection.close()
            serving.close()
        assert reported == []
        assert capfd.readouterr().err == ""


# ======================================================================
# The degraded-response contract, end to end (satellite 3)
# ======================================================================
class TestDegradedContract:
    def test_crashed_shard_yields_flagged_uncached_diverse_answer(
            self, registry):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2)
        engine = serving.engine
        injection = inject(engine, ChaosPolicy.crash_shards(0))
        k = 3
        query = parse_query("Make = 'Honda'")
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            address = thread.address
            target = f"/search?q={QUERY}&k={k}&algorithm=naive&deadline_ms=0"
            status, headers, body = _request(address, target)
            # Survivor-only answer: 200, flagged, correct shard arithmetic.
            assert status == 200
            assert headers["X-Repro-Degraded"] == "shards=1/2"
            document = json.loads(body)
            assert document["degraded"] is True
            # The answer satisfies Definitions 1-2 over the reachable rows.
            survivors = []
            for shard_id, shard in enumerate(engine.sharded_index.shards):
                if shard_id == 0:
                    continue
                merged = MergedList(query, getattr(shard, "inner", shard))
                survivors.extend(baselines.collect_all(merged))
            deweys = [tuple(item["dewey"]) for item in document["items"]]
            assert is_diverse(deweys, survivors, k)
            # Shard recovered: the follow-up answer must be computed fresh
            # (a cached degraded answer would keep serving the outage).
            injection.undo()
            status, headers, body = _request(address, target)
            assert status == 200
            assert "X-Repro-Degraded" not in headers
            assert headers["X-Repro-Cache"] == "miss"
            healthy = json.loads(body)
            assert healthy["degraded"] is False
            # The healthy (full-coverage) answer now does get cached.
            status, headers, _ = _request(address, target)
            assert headers["X-Repro-Cache"] == "hit"
        serving.close()


# ======================================================================
# The deadline parameter
# ======================================================================
class TestDeadlineParsing:
    @pytest.mark.parametrize("raw", ["nan", "NaN", "abc"])
    def test_non_numbers_are_bad_requests(self, figure1_server, raw):
        address = figure1_server.address
        for target, headers in (
                (f"/search?q={QUERY}&deadline_ms={raw}", None),
                (f"/search?q={QUERY}", {"X-Repro-Deadline-Ms": raw})):
            status, _, body = _request(address, target, headers=headers)
            assert status == 400
            assert json.loads(body)["error"] == "bad_request"
        # Refused before the lookup: nothing was run or counted as a hit.
        assert figure1_server.server.admission.admitted == 0

    def test_header_deadline_is_read_per_request(self, registry):
        """The target's parse is memoised; its deadline header is not."""
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        config = ServerConfig(initial_ms_per_unit=1000.0)
        target = f"/search?q={QUERY}&k=4"
        with ServerThread(serving, config, registry=registry) as thread:
            for deadline, status in (("1", 429), ("0", 200), ("1", 200)):
                # The third is a hit: a stored answer is never refused.
                assert _request(thread.address, target, headers={
                    "X-Repro-Deadline-Ms": deadline})[0] == status
        serving.close()


# ======================================================================
# A hit's stored body
# ======================================================================
class TestStoredHitBody:
    """A plain hit writes bytes kept on its cache entry: encoded once per
    query text, never for ``page=``, never stale after a write."""

    @pytest.fixture
    def encodes(self, monkeypatch):
        """Every ``json_bytes`` call the router makes, in order."""
        from repro.server import routes

        calls, json_bytes = [], routes.json_bytes

        def counting(document):
            calls.append(document)
            return json_bytes(document)

        monkeypatch.setattr(routes, "json_bytes", counting)
        return calls

    @pytest.fixture
    def stored(self, monkeypatch):
        """Every query text ``hit_body`` is asked for."""
        from repro.server import routes

        texts, hit_body = [], routes.hit_body

        def counting(result, text):
            texts.append(text)
            return hit_body(result, text)

        monkeypatch.setattr(routes, "hit_body", counting)
        return texts

    @staticmethod
    def _engines():
        return tuple(ServingEngine.from_relation(
            figure1_relation(), figure1_ordering()) for _ in range(2))

    def test_hit_bytes_decode_to_the_payload(self, registry, encodes):
        from repro.server.routes import result_payload

        text = "Make = 'Honda'"
        serving, twin = self._engines()
        target = f"/search?q={QUERY}&k=3&algorithm=probe"
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            bodies = [_request(thread.address, target)[2] for _ in range(4)]
        expected = [result_payload(twin.search(text, 3, algorithm="probe"),
                                   query=text) for _ in range(4)]
        assert [json.loads(body) for body in bodies] == expected
        assert len(set(bodies[1:])) == 1  # every hit writes the same bytes
        serving.close()
        twin.close()

    def test_zero_encodes_from_the_second_identical_hit(
            self, figure1_server, encodes, stored):
        target = f"/search?q={QUERY}&k=5"
        _request(figure1_server.address, target)  # the miss
        _request(figure1_server.address, target)  # the first hit encodes
        assert stored == ["Make = 'Honda'"] and encodes
        encodes.clear()
        for _ in range(10):
            status, headers, _ = _request(figure1_server.address, target)
            assert (status, headers["X-Repro-Cache"]) == (200, "hit")
        assert encodes == []
        assert len(stored) == 11

    def test_each_raw_text_echoes_its_own_query(self, figure1_server):
        texts = ("Make = 'Honda'", "Make='Honda'", "  Make   =  'Honda' ")
        documents = []
        for _ in range(2):  # alternate, so the one slot is replaced
            for text in texts:
                status, headers, body = _request(
                    figure1_server.address,
                    f"/search?q={urllib.parse.quote(text)}&k=3")
                assert status == 200
                documents.append((text, headers["X-Repro-Cache"],
                                  json.loads(body)))
        # One canonical query: one miss, then hits on the shared entry.
        assert [cache for _, cache, _ in documents] == ["miss"] + ["hit"] * 5
        for text, _, document in documents:
            assert document["query"] == text
            assert document["items"] == documents[0][2]["items"]

    def test_a_write_to_the_plan_is_never_served_stale(self, registry):
        from repro.server.routes import result_payload

        text = "Make = 'Honda'"
        serving, twin = self._engines()
        target = f"/search?q={QUERY}&k=15"
        row = ("Honda", "Fit", "Black", 2008, "Brand new")
        with ServerThread(serving, ServerConfig(), registry=registry) as thread:
            for _ in range(3):
                before = json.loads(_request(thread.address, target)[2])
            rid = serving.insert(row)
            assert twin.insert(row) == rid
            _, headers, body = _request(thread.address, target)
            assert headers["X-Repro-Cache"] == "miss"
            fresh = [json.loads(body), json.loads(_request(
                thread.address, target)[2])]
        assert before["cache_hit"] and fresh[1]["cache_hit"]
        assert fresh[0]["count"] == fresh[1]["count"] == before["count"] + 1
        assert rid in [item["rid"] for item in fresh[1]["items"]]
        expected = [result_payload(twin.search(text, 15, algorithm="auto"),
                                   query=text) for _ in range(2)]
        assert fresh == expected
        serving.close()
        twin.close()

    def test_head_on_a_hit_has_the_get_length(self, figure1_server):
        connection = http.client.HTTPConnection(
            *figure1_server.address, timeout=30.0)
        target = f"/search?q={QUERY}&k=4"
        try:
            lengths = []
            for method in ("GET", "HEAD", "GET", "HEAD"):
                connection.request(method, target)
                response = connection.getresponse()
                body = response.read()
                lengths.append((response.getheader("X-Repro-Cache"),
                                int(response.getheader("Content-Length")),
                                len(body)))
            get_length = lengths[2][2]  # the GET of a hit
            assert lengths[1:] == [("hit", get_length, 0),
                                   ("hit", get_length, get_length),
                                   ("hit", get_length, 0)]
        finally:
            connection.close()

    def test_page_requests_never_use_the_slot(self, figure1_server, stored):
        for _ in range(3):
            status, _, body = _request(
                figure1_server.address,
                f"/search?q={QUERY}&page=2&page_size=1")
            assert status == 200
            assert json.loads(body)["page"] == 2
        assert stored == []


# ======================================================================
# The idle deadline: one timer per connection
# ======================================================================
class _BlockingServing(ServingEngine):
    """A serving engine whose searches wait for ``release`` (set it)."""

    def __init__(self, relation):
        from repro import DiversityEngine

        super().__init__(
            DiversityEngine.from_relation(relation, figure1_ordering()))
        self.release = threading.Event()

    def search(self, query, k, algorithm="probe", scored=False):
        assert self.release.wait(timeout=30.0)
        return super().search(query, k, algorithm=algorithm, scored=scored)


def _count_timers(thread) -> list:
    """``(callback name, inflight)`` of every timer the server's loop arms
    from now on (``call_later`` goes through ``call_at``)."""
    loop, armed = thread._loop, []
    call_at = loop.call_at
    admission = thread.server.admission

    def counting(when, callback, *args, **kwargs):
        armed.append((getattr(callback, "__name__", "?"), admission.inflight))
        return call_at(when, callback, *args, **kwargs)

    done = threading.Event()
    loop.call_soon_threadsafe(
        lambda: (setattr(loop, "call_at", counting), done.set()))
    assert done.wait(timeout=10.0)
    return armed


class TestIdleDeadline:
    def test_idle_after_several_requests_is_closed(self, registry):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering())
        config = ServerConfig(idle_timeout_s=0.5)
        with ServerThread(serving, config, registry=registry) as thread:
            connection = http.client.HTTPConnection(
                *thread.address, timeout=10.0)
            try:
                for target in ("/healthz", f"/search?q={QUERY}&k=2") * 3:
                    last_sent = time.monotonic()
                    connection.request("GET", target)
                    assert connection.getresponse().read()
                assert connection.sock.recv(1) == b""  # hung up, no timeout
                # Not before the deadline the last request set.
                assert time.monotonic() - last_sent >= 0.45
            finally:
                connection.close()
            for _ in range(2000):  # the handler sees its EOF and exits
                if not thread.server._connections:
                    break
                time.sleep(0.005)
            assert not thread.server._connections
        serving.close()

    def test_a_blocked_search_is_never_cut_off(self, registry):
        """The timer fires while the search is in flight and re-arms
        instead of closing; the answer arrives on the same connection,
        which then still serves and is closed only once idle."""
        serving = _BlockingServing(figure1_relation())
        config = ServerConfig(idle_timeout_s=0.2)
        with ServerThread(serving, config, registry=registry) as thread:
            connection = http.client.HTTPConnection(
                *thread.address, timeout=30.0)
            try:
                connection.request("GET", "/healthz")
                assert connection.getresponse().read()
                armed = _count_timers(thread)
                answers = []

                def search():
                    connection.request(
                        "GET", f"/search?q={QUERY}&k=2&deadline_ms=0")
                    response = connection.getresponse()
                    answers.append((response.status, response.read()))

                client = threading.Thread(target=search)
                client.start()
                for _ in range(3000):  # ordering: a re-arm while in flight
                    if ("expire", 1) in armed:
                        break
                    time.sleep(0.005)
                assert ("expire", 1) in armed and answers == []
                serving.release.set()
                client.join(timeout=30.0)
                assert answers and answers[0][0] == 200
                connection.request("GET", "/healthz")  # still open
                assert connection.getresponse().status == 200
                assert connection.sock.recv(1) == b""  # re-armed: idle ends it
            finally:
                serving.release.set()
                connection.close()
        serving.close()

    def test_requests_arm_no_timer(self, figure1_server, monkeypatch):
        """After the connection's first request, N hits, misses and health
        checks create zero timer handles; each distinct target is parsed
        once; a repeated hit encodes nothing."""
        from repro.server import protocol, routes

        parsed, encoded = [], []
        parse_qsl, json_bytes = protocol.parse_qsl, routes.json_bytes
        connection = http.client.HTTPConnection(
            *figure1_server.address, timeout=30.0)
        targets = [f"/search?q={QUERY}&k=6", f"/search?q={QUERY}&k=7",
                   "/healthz"]
        try:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
            armed = _count_timers(figure1_server)
            for target in targets:  # a miss each; the first hit encodes
                for _ in range(2):
                    connection.request("GET", target)
                    assert connection.getresponse().read()
            monkeypatch.setattr(protocol, "parse_qsl", lambda *args, **kw: (
                parsed.append(args) or parse_qsl(*args, **kw)))
            monkeypatch.setattr(routes, "json_bytes", lambda document: (
                encoded.append(document) or json_bytes(document)))
            for _ in range(20):
                for target in targets[:2]:
                    connection.request("GET", target)
                    response = connection.getresponse()
                    assert response.getheader("X-Repro-Cache") == "hit"
                    assert response.read()
            assert (armed, parsed, encoded) == ([], [], [])
        finally:
            connection.close()
