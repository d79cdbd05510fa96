"""Chaos over HTTP: the replication contract at the wire, end to end.

The replication differential suite (test_replication_differential.py)
proves the failover invariants engine-side; this file proves they
survive the full serving stack — admission, caching, response headers —
by running chaos against a live ``ServerThread``:

* a killed *minority* of replicas (plus an always-flaky copy) yields
  plain ``200`` responses, bit-identical to a fault-free unsharded
  reference, with no ``X-Repro-Degraded`` header — failover is
  invisible at the wire;
* killing *every* replica of a shard falls back to the PR 8 degraded
  taxonomy: scan algorithms answer ``503``, gather algorithms answer
  ``200`` + ``X-Repro-Degraded``, and the degraded answer is never
  cached (recovery serves a fresh ``miss``, then a ``hit``).
"""

from __future__ import annotations

import http.client
import json
import random
import urllib.parse

import pytest

from faults.chaos import ChaosPolicy, ShardFaultSpec, inject
from repro import DiversityEngine
from repro.observability import MetricsRegistry, use_registry
from repro.resilience import ResiliencePolicy
from repro.server import ServerConfig, ServerThread
from repro.serving import ServingEngine

from .conftest import RANDOM_ORDERING, random_relation

#: ``color`` is not the level-1 routing attribute, so this query fans out
#: to every shard — chaos on any shard is guaranteed to be on the read
#: path (a ``make = ...`` scalar would route to a single shard).
QUERY = urllib.parse.quote("color = 'red'")

#: Generous retries, breakers disabled (min_calls above the window):
#: failover behaviour is purely crash/flake-driven and deterministic.
TRANSPARENT = ResiliencePolicy(
    max_retries=10,
    backoff_base_ms=0.01,
    backoff_cap_ms=0.05,
    breaker_window=8,
    breaker_min_calls=9,
)


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


def _http_payload(document):
    return [
        (tuple(item["dewey"]), item["rid"],
         tuple(sorted(item["values"].items())), item["score"])
        for item in document["items"]
    ]


def _engine_payload(result):
    return [
        (item.dewey, item.rid, tuple(sorted(item.values.items())), item.score)
        for item in result
    ]


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    with use_registry(fresh):
        yield fresh


@pytest.fixture
def rig(registry):
    """A replicated sharded server plus its fault-free unsharded twin."""
    relation = random_relation(random.Random(4242), max_rows=50)
    reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    serving = ServingEngine.from_relation(
        relation, RANDOM_ORDERING, shards=2,
        policy=TRANSPARENT, replicas=2,
    )
    with ServerThread(serving, ServerConfig(), registry=registry) as thread:
        yield serving, reference, thread.address
    serving.close()
    reference.close()


class TestReplicatedServer:
    def test_minority_replica_loss_is_invisible_at_the_wire(
            self, rig, registry):
        serving, reference, address = rig
        engine = serving.engine
        chaos = inject(engine, ChaosPolicy(seed=21)).policy
        # One dead copy on shard 0, one 100%-flaky copy on shard 1: every
        # shard still has a healthy replica, so nothing may degrade.
        chaos.crash(0, replica_id=0)
        chaos.set_spec((1, 0), ShardFaultSpec(transient_rate=1.0))
        k = 4
        for algorithm in ("probe", "onepass", "multq", "naive", "basic"):
            target = (f"/search?q={QUERY}&k={k}&algorithm={algorithm}"
                      f"&deadline_ms=0")
            status, headers, body = _request(address, target)
            assert status == 200, (algorithm, body)
            assert "X-Repro-Degraded" not in headers
            document = json.loads(body)
            assert document["degraded"] is False
            expected = reference.search(
                json_query(), k, algorithm=algorithm)
            assert _http_payload(document) == _engine_payload(expected), (
                f"algorithm={algorithm}")
        # The faults genuinely fired, and replica failover absorbed them.
        assert chaos.injected["crash"] > 0
        assert chaos.injected["transient"] > 0
        assert any(replica_set.failovers > 0
                   for replica_set in engine.sharded_index.shards)
        # The failovers are visible on the public metrics endpoint.
        status, _, body = _request(address, "/metrics")
        assert status == 200
        assert b"repro_replica_failovers_total" in body

    def test_total_shard_loss_falls_back_to_degraded_taxonomy(self, rig):
        serving, reference, address = rig
        engine = serving.engine
        injection = inject(engine, ChaosPolicy(seed=22))
        chaos = injection.policy
        chaos.crash(0, replica_id=0)
        chaos.crash(0, replica_id=1)          # every copy of shard 0 gone
        # Scan algorithms cannot certify their bound without the shard:
        # the server maps ShardUnavailableError to a retryable 503.
        status, _, body = _request(
            address, f"/search?q={QUERY}&k=3&algorithm=probe&deadline_ms=0")
        assert status == 503
        assert json.loads(body)["status"] == 503
        # Gather algorithms answer from the survivors: 200, flagged.
        target = f"/search?q={QUERY}&k=3&algorithm=naive&deadline_ms=0"
        status, headers, body = _request(address, target)
        assert status == 200
        assert headers["X-Repro-Degraded"] == "shards=1/2"
        assert json.loads(body)["degraded"] is True
        # A degraded answer must never be served from cache: the repeat is
        # recomputed (and still flagged), not a "hit" of the outage.
        status, headers, _ = _request(address, target)
        assert headers.get("X-Repro-Cache") != "hit"
        assert headers["X-Repro-Degraded"] == "shards=1/2"
        # After recovery the same request is computed fresh and exact...
        injection.undo()
        status, headers, body = _request(address, target)
        assert status == 200
        assert "X-Repro-Degraded" not in headers
        assert headers["X-Repro-Cache"] == "miss"
        document = json.loads(body)
        assert document["degraded"] is False
        expected = reference.search(json_query(), 3, algorithm="naive")
        assert _http_payload(document) == _engine_payload(expected)
        # ...and the healthy answer is cache-eligible again.
        status, headers, _ = _request(address, target)
        assert headers["X-Repro-Cache"] == "hit"


def json_query():
    """The parsed form of :data:`QUERY`, for the in-process reference."""
    from repro.query.parser import parse_query

    return parse_query(urllib.parse.unquote(QUERY))
