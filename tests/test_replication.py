"""Unit tests for repro.replication: bootstrap, failover,
mutation convergence, per-replica chaos, and the replica health surface.

The differential acceptance matrix (every algorithm, scored and unscored,
under minority replica kills) lives in test_replication_differential.py;
this file tests the machinery piece by piece.
"""

from __future__ import annotations

import random
import threading

import pytest

from faults.chaos import ChaosPolicy, ShardFaultSpec, inject
from repro import DiversityEngine
from repro.index.inverted import InvertedIndex
from repro.observability import FakeClock, MetricsRegistry, use_registry
from repro.replication import (
    ReplicaBootstrapError,
    ReplicaSet,
    bootstrap_replicas,
    clone_from_index,
    live_rids,
    replica_digest,
)
from repro.resilience import (
    ReplicaDivergenceError,
    ResiliencePolicy,
    ShardCrashedError,
    ShardUnavailableError,
    TransientShardError,
)
from repro.sharding import ShardedEngine, ShardedIndex

from .conftest import (
    RANDOM_ORDERING,
    CountingLock,
    random_query,
    random_relation,
)

#: Fast-failing policy for breaker-path tests (trips after two failures).
TRIGGER_HAPPY = ResiliencePolicy(
    max_retries=1,
    backoff_base_ms=0.01,
    backoff_cap_ms=0.02,
    breaker_threshold=0.5,
    breaker_window=4,
    breaker_min_calls=2,
    breaker_cooldown_ms=10_000.0,
)


def _relation(seed=11, rows=80):
    return random_relation(random.Random(seed), max_rows=rows)


# ----------------------------------------------------------------------
# Bootstrap
# ----------------------------------------------------------------------
class TestBootstrap:
    def test_in_memory_clone_is_bit_identical(self):
        index = ShardedIndex.build(_relation(), RANDOM_ORDERING, shards=2)
        for shard in index.shards:
            clone = clone_from_index(shard)
            assert replica_digest(clone) == replica_digest(shard)
            assert clone.epoch == shard.epoch
            assert len(clone) == len(shard)
            assert clone.dewey is shard.dewey  # shared global assignment

    def test_durable_clone_replays_wal_to_same_epoch(self, tmp_path):
        from repro.durability import create_sharded_store

        relation = _relation(seed=12)
        index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
        create_sharded_store(index, tmp_path, replicas=2)
        # Mutate past the snapshot so the clone must replay WAL records.
        rid = relation.insert(("Honda", "Civic", "Red", "wal replayed row"))
        index.insert(rid)
        for shard in index.shards:
            copies = bootstrap_replicas(shard, 2)
            assert len(copies) == 1
            assert replica_digest(copies[0]) == replica_digest(shard)
            assert copies[0].epoch == shard.epoch
        for shard in index.shards:
            shard.close()

    def test_bootstrap_count_validation(self):
        index = ShardedIndex.build(_relation(), RANDOM_ORDERING, shards=2)
        with pytest.raises(ValueError):
            bootstrap_replicas(index.shards[0], 0)
        assert bootstrap_replicas(index.shards[0], 1) == []

    def test_replicate_is_in_place_and_guarded(self):
        index = ShardedIndex.build(_relation(), RANDOM_ORDERING, shards=2)
        assert index.replication_factor == 1
        index.replicate(3)
        assert index.replication_factor == 3
        assert all(isinstance(shard, ReplicaSet) for shard in index.shards)
        with pytest.raises(ValueError):
            index.replicate(2)  # already replicated

    def test_diverged_copy_is_rejected(self, monkeypatch):
        import repro.replication.bootstrap as bootstrap_module

        index = ShardedIndex.build(_relation(), RANDOM_ORDERING, shards=2)
        primary = index.shards[0]
        assert replica_digest(primary) != replica_digest(index.shards[1])
        real_clone = bootstrap_module.clone_from_index

        def lossy_clone(shard):
            clone = real_clone(shard)
            rid = live_rids(clone)[0]
            clone.remove_mirrored(rid, clone.dewey.dewey_of(rid))
            return clone

        monkeypatch.setattr(bootstrap_module, "clone_from_index", lossy_clone)
        with pytest.raises(ReplicaBootstrapError):
            bootstrap_replicas(primary, 2)


# ----------------------------------------------------------------------
# Read failover
# ----------------------------------------------------------------------
class TestFailover:
    def _replicated_engine(self, shards=2, replicas=2, policy=None, **kw):
        relation = _relation(seed=21)
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=shards, replicas=replicas,
            policy=policy, **kw
        )
        reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        return engine, reference

    def test_crashed_replica_is_invisible(self):
        engine, reference = self._replicated_engine()
        chaos = inject(engine, ChaosPolicy(seed=1)).policy
        chaos.crash(0, replica_id=0)
        chaos.crash(1, replica_id=1)
        for algorithm in ("naive", "basic", "onepass", "probe", "multq"):
            expected = reference.search("color = 'red'", 5,
                                        algorithm=algorithm)
            actual = engine.search("color = 'red'", 5, algorithm=algorithm)
            assert actual.deweys == expected.deweys
            assert actual.stats["degraded"] is False
        assert engine.sharded_index.shards[0].failovers > 0
        engine.close()

    def test_all_replicas_down_surfaces_shard_loss(self):
        engine, _ = self._replicated_engine(policy=TRIGGER_HAPPY)
        chaos = inject(engine, ChaosPolicy(seed=2)).policy
        chaos.crash(0, replica_id=0)
        chaos.crash(0, replica_id=1)
        with pytest.raises(ShardUnavailableError) as excinfo:
            engine.search("color = 'red'", 5, algorithm="probe")
        assert 0 in excinfo.value.shards_lost
        # The degradable gather path still answers from shard 1.
        result = engine.search("color = 'red'", 5, algorithm="naive")
        assert result.stats["degraded"] is True
        assert result.stats["shards_failed"] == 1
        engine.close()

    def test_transient_on_one_replica_fails_over_without_retry(self):
        """A replica that flakes is failed over *inside* the set — the
        engine-level retry budget is untouched."""
        engine, reference = self._replicated_engine(
            policy=ResiliencePolicy(max_retries=0))
        chaos = inject(engine, ChaosPolicy(seed=3)).policy
        chaos.set_spec((0, 0), ShardFaultSpec(transient_rate=1.0))
        expected = reference.search("color = 'red'", 5, algorithm="probe")
        actual = engine.search("color = 'red'", 5, algorithm="probe")
        assert actual.deweys == expected.deweys
        assert actual.stats["retries"] == 0
        engine.close()

    def test_selection_prefers_closed_breaker_and_primary(self):
        index = ShardedIndex.build(_relation(), RANDOM_ORDERING, shards=1)
        index.replicate(3, policy=TRIGGER_HAPPY)
        replica_set = index.shards[0]
        assert replica_set._selection_order() == [0, 1, 2]
        for _ in range(3):
            replica_set.breakers[0].record_failure()
        assert replica_set.breakers[0].state == "open"
        assert replica_set._selection_order()[0] != 0
        assert replica_set._selection_order()[-1] == 0

    def test_fault_free_reads_stay_on_the_primary(self):
        """Regression: a copy never read had EWMA 0.0 and outranked the
        primary once the primary was sampled, so which copy served a
        healthy read depended on single timing samples."""
        engine, _ = self._replicated_engine(shards=4)
        rng = random.Random(23)
        for _ in range(25):
            query = random_query(rng)
            engine.search(query, 5, algorithm="probe")
            engine.search(query, 5, algorithm="naive")
        for replica_set in engine.sharded_index.shards:
            primary, follower = replica_set.health_rows()
            assert primary["successes"] > 0
            assert follower["requests"] == 0
        engine.close()

    def test_reads_never_spawn_threads(self):
        index = ShardedIndex.build(_relation(), RANDOM_ORDERING, shards=1)
        index.replicate(2)
        inject(index, ChaosPolicy(seed=8, per_shard={
            (0, 0): ShardFaultSpec(transient_rate=0.5),
        }))
        before = threading.active_count()
        replica_set = index.shards[0]
        for _ in range(5):
            replica_set.all_postings()
        assert replica_set.failovers > 0
        assert threading.active_count() == before

    def test_exhausted_reasons_name_every_replica(self):
        index = ShardedIndex.build(_relation(), RANDOM_ORDERING, shards=1)
        index.replicate(2)
        chaos = ChaosPolicy.crash_shards(0)  # whole shard: every replica
        inject(index, chaos)
        with pytest.raises(ShardCrashedError) as excinfo:
            index.shards[0].all_postings()
        message = str(excinfo.value)
        assert "replica 0" in message and "replica 1" in message

    def test_transient_anywhere_keeps_retryability(self):
        index = ShardedIndex.build(_relation(), RANDOM_ORDERING, shards=1)
        index.replicate(2)
        chaos = ChaosPolicy(seed=4, per_shard={
            (0, 0): ShardFaultSpec(transient_rate=1.0),
            (0, 1): ShardFaultSpec(crashed=True),
        })
        inject(index, chaos)
        with pytest.raises(TransientShardError):
            index.shards[0].all_postings()


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------
class TestMutationConvergence:
    def test_insert_and_remove_keep_replicas_identical(self):
        relation = _relation(seed=41)
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=2, replicas=3
        )
        rid = engine.insert(("Honda", "Civic", "Red", "fresh row"))
        for replica_set in engine.sharded_index.shards:
            digests = {replica_digest(r) for r in replica_set.replicas}
            assert len(digests) == 1
        assert engine.delete(rid)
        for replica_set in engine.sharded_index.shards:
            digests = {replica_digest(r) for r in replica_set.replicas}
            assert len(digests) == 1
            epochs = {r.epoch for r in replica_set.replicas}
            assert len(epochs) == 1
        engine.close()

    def test_mutations_survive_a_crashed_replica(self):
        """Chaos only breaks the data path: a killed replica still applies
        forwarded mutations, so it is consistent when revived."""
        relation = _relation(seed=42)
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=2, replicas=2
        )
        chaos = inject(engine, ChaosPolicy(seed=7)).policy
        chaos.crash(0, replica_id=0)
        chaos.crash(1, replica_id=0)
        rid = engine.insert(("Honda", "Civic", "Red", "during outage"))
        chaos.revive(0, replica_id=0)
        chaos.revive(1, replica_id=0)
        for replica_set in engine.sharded_index.shards:
            digests = {replica_digest(r) for r in replica_set.replicas}
            assert len(digests) == 1
        assert engine.delete(rid)
        engine.close()

    def test_divergence_is_detected(self):
        index = ShardedIndex.build(_relation(seed=43), RANDOM_ORDERING,
                                   shards=1)
        index.replicate(2)
        replica_set = index.shards[0]
        relation = index.relation
        rid = relation.insert(("Honda", "Civic", "Red", "skewed"))
        # Sabotage: bump only the follower's epoch so the convergence
        # check sees disagreement on the next mutation.
        follower = replica_set.replicas[1]
        follower.insert(rid)
        rid2 = relation.insert(("Ford", "F150", "Black", "next"))
        with pytest.raises(ReplicaDivergenceError) as excinfo:
            replica_set.insert(rid2)
        assert excinfo.value.shard_id == 0

    def test_remove_mirrored_leaves_shared_dewey_alone(self):
        from repro.core.ordering import DiversityOrdering

        relation = _relation(seed=44)
        primary = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
        copy = clone_from_index(primary)
        rid = relation.insert(("Honda", "Civic", "Red", "to remove"))
        dewey = primary.insert(rid)
        copy.insert(rid)
        removed = copy.remove_mirrored(rid, dewey)
        assert removed == dewey
        assert rid in primary.dewey  # shared assignment untouched
        assert dewey in primary.all_postings()
        assert dewey not in copy.all_postings()


# ----------------------------------------------------------------------
# Per-replica chaos addressing + injectable sleep (satellite 1)
# ----------------------------------------------------------------------
class TestReplicaChaos:
    def test_tuple_key_beats_shard_key(self):
        chaos = ChaosPolicy(per_shard={
            0: ShardFaultSpec(crashed=True),
            (0, 1): ShardFaultSpec(),
        })
        assert chaos.spec_for(0).crashed
        assert chaos.spec_for(0, replica_id=0).crashed
        assert not chaos.spec_for(0, replica_id=1).crashed

    def test_crash_and_revive_single_replica(self):
        chaos = ChaosPolicy()
        chaos.crash(2, replica_id=1)
        assert chaos.spec_for(2, replica_id=1).crashed
        assert not chaos.spec_for(2, replica_id=0).crashed
        assert not chaos.spec_for(2).crashed
        chaos.revive(2, replica_id=1)
        assert not chaos.spec_for(2, replica_id=1).crashed

    def test_shard_only_rng_stream_is_stable_across_replication(self):
        """Pre-replication chaos runs must stay bit-identical: the
        replica-less RNG stream ignores the replica dimension."""
        first = ChaosPolicy(seed=9)
        second = ChaosPolicy(seed=9)
        draws_first = [first._rng(3).random() for _ in range(5)]
        second._rng(3, replica_id=0)  # interleave a replica stream
        draws_second = [second._rng(3).random() for _ in range(5)]
        assert draws_first == draws_second
        # Distinct replica streams are independent of each other.
        assert first._rng(3, 0).random() != first._rng(3, 1).random()

    def test_latency_uses_injected_sleep(self):
        clock = FakeClock()
        slept = []

        def fake_sleep(seconds):
            slept.append(seconds)
            clock.advance(seconds)

        chaos = ChaosPolicy(per_shard={0: ShardFaultSpec(latency_ms=25.0)},
                            sleep=fake_sleep)
        chaos.before_read(0, "all_postings")
        assert slept == [pytest.approx(0.025)]
        assert clock() == pytest.approx(0.025)

    def test_engine_latency_sleeps_on_the_policys_sleep(self):
        """Injected latency runs on the policy's own sleep; the engine's
        sleep serves retry backoff only."""
        sleeps, backoffs = [], []
        engine = ShardedEngine.from_relation(
            _relation(seed=51), RANDOM_ORDERING, shards=2,
            sleep=backoffs.append,
        )
        chaos = inject(engine, ChaosPolicy(
            default=ShardFaultSpec(latency_ms=5.0), sleep=sleeps.append)).policy
        engine.search("color = 'red'", 3, algorithm="naive")
        assert sleeps, "chaos latency must run on the policy's sleep"
        assert chaos.injected["latency"] == len(sleeps)
        assert backoffs == []
        engine.close()


# ----------------------------------------------------------------------
# Health surface (satellite 2)
# ----------------------------------------------------------------------
class TestReplicaHealth:
    def test_snapshot_gains_replica_dimension(self):
        engine = ShardedEngine.from_relation(
            _relation(seed=61), RANDOM_ORDERING, shards=2, replicas=2
        )
        engine.search("color = 'red'", 3, algorithm="probe")
        rows = engine.health.snapshot()
        logical = [row for row in rows if row["replica_id"] is None]
        physical = [row for row in rows if row["replica_id"] is not None]
        assert len(logical) == 2
        assert len(physical) == 4
        assert {(row["shard_id"], row["replica_id"]) for row in physical} == {
            (0, 0), (0, 1), (1, 0), (1, 1)
        }
        assert all("breaker" in row and "ewma_ms" in row for row in physical)
        engine.close()

    def test_unreplicated_snapshot_unchanged(self):
        engine = ShardedEngine.from_relation(
            _relation(seed=62), RANDOM_ORDERING, shards=2
        )
        rows = engine.health.snapshot()
        assert len(rows) == 2
        assert all(row["replica_id"] is None for row in rows)
        engine.close()

    def test_replica_gauges_exported(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = ShardedEngine.from_relation(
                _relation(seed=63), RANDOM_ORDERING, shards=2, replicas=2
            )
            engine.search("color = 'red'", 3, algorithm="probe")
            registry.run_collectors()
            # Healthy reads stay on the primary copy of every shard; the
            # idle follower is still visible (at zero) per its address.
            assert registry.value(
                "repro_replica_requests", shard="0", replica="0") > 0
            assert registry.value(
                "repro_replica_requests", shard="1", replica="0") > 0
            assert registry.find(
                "repro_replica_requests", shard="0", replica="1") is not None
            # The coordinator-driven scan credits shard successes (its
            # admission counters belong to the gather fan-out).
            assert registry.value("repro_shard_successes", shard="0") > 0
            engine.close()

    def test_failover_counter_exported(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = ShardedEngine.from_relation(
                _relation(seed=64), RANDOM_ORDERING, shards=2, replicas=2
            )
            chaos = inject(engine, ChaosPolicy(seed=8)).policy
            chaos.crash(0, replica_id=0)
            engine.search("color = 'red'", 3, algorithm="probe")
            assert registry.value(
                "repro_replica_failovers_total", shard="0") > 0
            engine.close()


# ----------------------------------------------------------------------
# One replica choice per query phase: the pin, as counts
# ----------------------------------------------------------------------
class _NthReadFlakes(ChaosPolicy):
    """One transient fault: the ``nth`` read of one ``(shard, replica)``."""

    def __init__(self, address, nth):
        super().__init__()
        self._address = address
        self._countdown = nth

    def before_read(self, shard_id, operation, replica_id=None):
        if (shard_id, replica_id) == self._address:
            self._countdown -= 1
            if self._countdown == 0:
                self.injected["transient"] += 1
                raise TransientShardError(shard_id, operation)


#: Breakers that never trip (min_calls above the window) with a window
#: wide enough to hold every outcome a test books.
WIDE_WINDOW = ResiliencePolicy(breaker_window=64, breaker_min_calls=65)

#: A query whose two leaves are read from every shard, in the prepare
#: phase (ordering the AND) and again in the scan phase.
TWO_LEAVES = "color = 'red' AND desc CONTAINS 'miles'"
TWO_LEAVES_OR = "color = 'red' OR desc CONTAINS 'miles'"


def _books(engine):
    """What every replica set booked: per copy, and the breaker windows."""
    return [
        [(health.requests, health.successes, len(breaker._outcomes))
         for health, breaker in zip(replicas._health, replicas.breakers)]
        for replicas in engine.sharded_index.shards
    ]


def _single_index():
    from repro import DiversityOrdering

    return InvertedIndex.build(_relation(), DiversityOrdering(RANDOM_ORDERING))


class TestPinnedPhase:
    def _engine(self, policy=WIDE_WINDOW, shards=4, **options):
        clock = FakeClock()  # breaker cooldowns advance only on demand
        return ShardedEngine.from_relation(
            _relation(), RANDOM_ORDERING, shards=shards, replicas=2,
            policy=policy, clock=clock, sleep=clock.sleep, **options)

    def test_healthy_probe_chooses_and_locks_once_per_phase(self, monkeypatch):
        engine = self._engine()
        sorts = []
        selection_order = ReplicaSet._selection_order
        monkeypatch.setattr(
            ReplicaSet, "_selection_order",
            lambda self: sorts.append(self.shard_id) or selection_order(self))
        locks = []
        for replicas in engine.sharded_index.shards:
            replicas._lock = CountingLock(replicas._lock)
            locks.append(replicas._lock)
        engine.search(TWO_LEAVES, 5, algorithm="probe")
        # Two phases read postings (prepare, scan), each from every shard.
        assert sorted(sorts) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [lock.acquired for lock in locks] == [2, 2, 2, 2]
        engine.close()

    @pytest.mark.parametrize("text, algorithm, scored", [
        (TWO_LEAVES, "probe", False),
        (TWO_LEAVES, "probe", True),
        (TWO_LEAVES, "onepass", True),
        ("model = 'm1' OR color = 'blue'", "naive", False),
        ("make = 'A' AND color = 'red'", "probe", True),
        ("make = 'B'", "naive", False),
    ])
    def test_batched_books_equal_the_per_read_books(
            self, monkeypatch, text, algorithm, scored):
        pinned = self._engine()
        pinned.search(text, 5, algorithm=algorithm, scored=scored)
        per_read = self._engine()
        monkeypatch.setattr(ReplicaSet, "pin", lambda self: self)
        per_read.search(text, 5, algorithm=algorithm, scored=scored)
        assert _books(pinned) == _books(per_read)
        assert sum(requests for shard in _books(pinned)
                   for requests, _, _ in shard) > 0

    def test_books_of_a_scored_probe_are_the_parents(self):
        """Recorded once at the parent commit (per-read bookkeeping, two
        fetches per leaf): a scored OR run still fetches every leaf for the
        boolean cursor and again for the weighted ones, so the batched
        books must be the very same numbers."""
        engine = self._engine()
        result = engine.search(TWO_LEAVES_OR, 5, algorithm="probe", scored=True)
        assert result.stats["scored_next_calls"] > 0
        assert _books(engine) == [[(4, 4, 4), (0, 0, 0)]] * 4

    def test_books_of_a_scored_probe_on_an_and_plan(self):
        """Every match of an AND scores alike, so its scored probe runs the
        unscored driver: two fetches per leaf (leapfrog ordering, the
        boolean cursor) where the WAND driver took three."""
        engine = self._engine()
        result = engine.search(TWO_LEAVES, 5, algorithm="probe", scored=True)
        assert result.stats["scored_next_calls"] == 0
        assert _books(engine) == [[(4, 4, 4), (0, 0, 0)]] * 4

    def test_transient_on_a_pinned_read_fails_over_mid_phase(self):
        index = _single_index()
        replicas = ReplicaSet.grow(index, 2, shard_id=0, policy=WIDE_WINDOW,
                                   clock=FakeClock())
        inject(replicas, _NthReadFlakes((0, 0), nth=3))
        expected = list(index.scalar_postings("color", "red"))
        pin = replicas.pin()
        assert pin is not replicas and pin.replica_id == 0
        for _ in range(5):
            assert list(pin.scalar_postings("color", "red")) == expected
        assert pin.replica_id == 1  # moved to the copy that answered
        pin.release()
        first, survivor = replicas._health
        assert (first.requests, first.successes,
                first.transient_failures) == (3, 2, 1)
        assert (survivor.requests, survivor.successes) == (3, 3)
        assert replicas.failovers == 1
        # The window holds the outcomes in the order they happened.
        assert list(replicas.breakers[0]._outcomes) == [True, True, False]
        assert list(replicas.breakers[1]._outcomes) == [True, True, True]

    def test_transient_on_a_pinned_read_is_invisible_to_the_query(self):
        reference = DiversityEngine.from_relation(_relation(), RANDOM_ORDERING)
        engine = self._engine(shards=2)
        chaos = inject(engine, _NthReadFlakes((1, 0), nth=3)).policy
        for algorithm, scored in [("probe", True), ("naive", False)]:
            expected = reference.search(TWO_LEAVES, 5, algorithm=algorithm,
                                        scored=scored)
            actual = engine.search(TWO_LEAVES, 5, algorithm=algorithm,
                                   scored=scored)
            assert [(item.rid, item.dewey, item.score) for item in actual] \
                == [(item.rid, item.dewey, item.score) for item in expected]
            assert actual.stats["degraded"] is False
            assert actual.stats["retries"] == 0
        assert chaos.injected["transient"] == 1
        flaky = engine.sharded_index.shards[1]
        assert flaky._health[0].transient_failures == 1
        assert flaky.failovers == 1
        engine.close()

    def test_half_open_copy_is_closed_or_retripped_by_a_pinned_phase(self):
        clock = FakeClock()
        policy = ResiliencePolicy(breaker_threshold=0.5, breaker_window=4,
                                  breaker_min_calls=2,
                                  breaker_cooldown_ms=1000.0)
        replicas = ReplicaSet.grow(
            _single_index(), 2, shard_id=0, policy=policy, clock=clock)
        chaos = ChaosPolicy.crash_shards((0, 0))
        inject(replicas, chaos)
        breaker = replicas.breakers[0]
        while breaker.state != "open":
            replicas.all_postings()  # fails over to replica 1
        assert replicas.pin().replica_id == 1  # an open copy is not preferred

        clock.advance(1.5)
        assert breaker.state == "half_open"
        pin = replicas.pin()  # replica 0 again: its breaker admits the trial
        assert pin.replica_id == 0
        pin.all_postings()  # still crashed
        assert breaker.state == "open" and pin.replica_id == 1
        pin.release()

        chaos.revive(0, replica_id=0)
        clock.advance(1.5)
        pin = replicas.pin()
        assert pin.replica_id == 0 and breaker.state == "half_open"
        # A phase that reads nothing hands the trial slot back ...
        pin.release()
        assert breaker.state == "half_open" and breaker.allow()
        breaker.record_successes(0)
        # ... and one that reads closes the circuit on release.
        pin = replicas.pin()
        pin.all_postings()
        pin.all_postings()
        assert breaker.state == "half_open"  # booked when the phase ends
        pin.release()
        assert breaker.state == "closed"
        assert list(breaker._outcomes) == [True]  # as two record_success

    def test_refused_set_hands_back_itself(self):
        index = _single_index()
        refused = ReplicaSet.grow(index, 2, shard_id=0, policy=TRIGGER_HAPPY)
        for breaker in refused.breakers:
            breaker.record_failure()
            breaker.record_failure()
        assert refused.pin() is refused

    def test_pin_is_released_when_the_algorithm_raises(self, monkeypatch):
        from repro.sharding import engine as sharding_engine

        def broken(reader, *args):
            reader.all_postings()
            raise RuntimeError("algorithm bug")

        monkeypatch.setattr(sharding_engine, "run_algorithm", broken)
        engine = self._engine()
        with pytest.raises(RuntimeError, match="algorithm bug"):
            engine.execute(engine.prepare("color = 'red'"), 5, "probe")
        # The one read of every shard was booked: each pin was released.
        assert _books(engine) == [[(1, 1, 1), (0, 0, 0)]] * 4
        engine.close()


@pytest.mark.parametrize("count", [0, 1, 3, 10])
@pytest.mark.parametrize("state", ["closed", "half_open", "open"])
def test_record_successes_is_n_record_success_calls(state, count):
    from repro.resilience import CircuitBreaker

    def breaker_in(state):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=0.5, window=4, min_calls=2,
                                 cooldown_ms=1000.0, clock=clock)
        breaker.record_success()
        if state != "closed":
            breaker.record_failure()
            assert breaker.state == "open"
        if state == "half_open":
            clock.advance(1.5)
            assert breaker.allow()
        return breaker

    batched, one_by_one = breaker_in(state), breaker_in(state)
    batched.record_successes(count)
    for _ in range(count):
        one_by_one.record_success()
    assert batched.state == one_by_one.state
    assert list(batched._outcomes) == list(one_by_one._outcomes)
    if count:
        assert batched._probing == one_by_one._probing
