"""Differential verification of ``algorithm="auto"``.

The planner is allowed to pick any diversity-preserving algorithm, but it
is never allowed to *change the answer*: an auto run must be bit-identical
(Dewey IDs and scores) to a fixed run of whichever algorithm it selected,
at the same index epoch.  These tests drive that property across the full
deployment matrix — scored/unscored x shards {1,2,4} x array/compressed
posting backends — with mutations interleaved between searches, plus:

* the forced-candidate differential: restricting auto's candidate set to a
  single algorithm must reproduce every one of the 5 fixed algorithms
  bit-for-bit (the auto dispatch path adds nothing and loses nothing);
* the serving-cache decision memo: cached auto answers stay identical to a
  cache-free engine, decisions are re-planned when the index epoch moves
  (the PR 7 plan-cache keying satellite), and separate ``k``/``scored``
  values get separate decision slots;
* the selection boundary: hand-built relations on either side of the
  probe/naive crossover, where auto must take the cheap side and the
  Theorem 2 probe-bound counter must stay 0 either way.
"""

import random

import pytest

from repro import (
    AUTO,
    DiversityEngine,
    Query,
    ServingCache,
    ServingEngine,
    ShardedEngine,
)
from repro.core.baselines import collect_all
from repro.core.engine import ALGORITHMS
from repro.core.similarity import is_diverse
from repro.index.merged import MergedList
from repro.observability import use_registry
from repro.planner import DEFAULT_CANDIDATES

from .conftest import (
    COLORS,
    MAKES,
    MODELS,
    RANDOM_ORDERING,
    WORDS,
    random_query,
    random_relation,
)

SHARD_COUNTS = (1, 2, 4)
POSTING_BACKENDS = ("array", "compressed")


def _answers(result):
    """The bit-identity projection: (dewey, score) in result order."""
    return [(item.dewey, item.score) for item in result.items]


def _build_engine(relation, shards, backend):
    if shards == 1:
        return DiversityEngine.from_relation(
            relation, RANDOM_ORDERING, backend=backend
        )
    return ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards, backend=backend
    )


def _random_row(rng):
    return (
        rng.choice(MAKES),
        rng.choice(MODELS),
        rng.choice(COLORS),
        " ".join(rng.sample(WORDS, 2)),
    )


def _mutate(engine, rng):
    """One random insert or delete (bumps the index epoch)."""
    relation = engine.relation
    live = [rid for rid, _ in relation.iter_live()]
    if live and rng.random() < 0.5:
        engine.delete(rng.choice(live))
    else:
        engine.insert(_random_row(rng))


class TestAutoDifferential:
    """auto == the fixed algorithm it selected, across the whole matrix."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("backend", POSTING_BACKENDS)
    @pytest.mark.parametrize("scored", [False, True])
    def test_auto_matches_selected_fixed(self, shards, backend, scored):
        rng = random.Random(1000 * shards + 10 * len(backend) + scored)
        relation = random_relation(rng, max_rows=60)
        with _build_engine(relation, shards, backend) as engine:
            for step in range(10):
                query = engine.prepare(random_query(rng, weighted=scored), scored)
                k = rng.randint(1, 8)
                auto = engine.execute(query, k, AUTO, scored)
                selected = auto.stats["algorithm_selected"]
                assert selected in DEFAULT_CANDIDATES
                assert auto.stats["algorithm_requested"] == "auto"
                fixed = engine.execute(query, k, selected, scored)
                assert _answers(auto) == _answers(fixed)
                if step % 2 == 0:
                    _mutate(engine, rng)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_plans_match_unsharded(self, shards):
        """Union posting views report global statistics, so every shard
        count must reach the same decision for the same query."""
        rng = random.Random(99)
        relation = random_relation(rng, max_rows=50)
        reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        with _build_engine(relation, shards, "array") as engine:
            for _ in range(8):
                query = reference.prepare(random_query(rng))
                k = rng.randint(1, 10)
                expected = reference.plan(query, k)
                actual = engine.plan(query, k)
                assert actual.algorithm == expected.algorithm
                assert actual.costs == pytest.approx(expected.costs)

    def test_search_accepts_auto_and_rejects_unknown(self, cars_engine):
        result = cars_engine.search("Make = 'Honda'", k=3, algorithm=AUTO)
        assert len(result) == 3
        with pytest.raises(ValueError, match="unknown algorithm"):
            cars_engine.search("Make = 'Honda'", k=3, algorithm="speedy")


class TestForcedCandidates:
    """Auto restricted to one candidate == that fixed algorithm, for all 5."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("scored", [False, True])
    def test_forced_candidate_is_bit_identical(self, algorithm, scored):
        rng = random.Random(ALGORITHMS.index(algorithm) * 2 + scored)
        relation = random_relation(rng, max_rows=40)
        engine = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        for _ in range(6):
            query = engine.prepare(random_query(rng, weighted=scored), scored)
            k = rng.randint(1, 6)
            decision = engine.plan(query, k, scored, candidates=(algorithm,))
            assert decision.algorithm == algorithm
            assert decision.reason == "forced"
            auto = engine.execute(query, k, AUTO, scored, decision=decision)
            fixed = engine.execute(query, k, algorithm, scored)
            assert _answers(auto) == _answers(fixed)

    def test_unknown_candidate_rejected(self, cars_engine):
        with pytest.raises(ValueError, match="unknown candidate"):
            cars_engine.plan("Make = 'Honda'", 3, candidates=("speedy",))
        with pytest.raises(ValueError, match="at least one candidate"):
            cars_engine.plan("Make = 'Honda'", 3, candidates=())


class TestServingCacheAuto:
    """Cached auto: identical answers, memoised decisions, epoch keying."""

    @staticmethod
    def _paired(rows=120, seed=5):
        rng = random.Random(seed)
        relation = random_relation(rng, max_rows=rows)
        rows_copy = [row for _, row in relation.iter_live()]
        # A tiny result cache forces evictions, so same-epoch re-searches
        # miss the result cache and exercise the decision memo.
        cache = ServingCache(result_capacity=2)
        cached = ServingEngine(
            DiversityEngine.from_relation(relation, RANDOM_ORDERING), cache)
        from repro import Relation, Schema

        twin_relation = Relation.from_rows(
            Schema.of(
                make="categorical", model="categorical",
                color="categorical", desc="text",
            ),
            rows_copy,
        )
        bare = DiversityEngine.from_relation(twin_relation, RANDOM_ORDERING)
        return cached, cache, bare, rng

    def test_cached_auto_identical_to_bare_engine(self):
        cached, cache, bare, rng = self._paired()
        queries = [random_query(rng) for _ in range(6)]
        for round_number in range(3):
            for sweep in range(2):  # second sweep re-misses evicted results
                for query in queries:
                    for k in (3, 7):
                        hot = cached.search(query, k, algorithm=AUTO)
                        cold = bare.search(query, k, algorithm=AUTO)
                        assert _answers(hot) == _answers(cold)
            row = _random_row(rng)
            cached.insert(row)
            bare.insert(row)
        assert cache.stats.decision_hits > 0

    def test_decision_replanned_when_statistics_change(self):
        """The PR 7 plan-cache keying satellite: mutating the relation must
        invalidate the memoised decision — here the mutation flips the
        cheapest algorithm, so serving a stale decision would be visible.
        """
        from repro import Relation, Schema

        schema = Schema.of(make="categorical", model="categorical")
        rows = [("A", f"m{i % 7}") for i in range(300)]
        rows += [("B", f"m{i % 7}") for i in range(5)]
        relation = Relation.from_rows(schema, rows)
        cache = ServingCache()
        engine = ServingEngine(
            DiversityEngine.from_relation(relation, ["make", "model"]), cache)
        query = Query.scalar("make", "A")

        first = engine.search(query, 10, algorithm=AUTO)
        # 300 matches, k=10: the probe bound (2k+1 = 21) crushes the scan.
        assert first.stats["algorithm_selected"] == "probe"
        assert cache.stats.decision_misses == 1

        # Same query, same epoch: decision served from the memo.  Vary k so
        # the *result* cache misses and the decision path actually runs.
        engine.search(query, 9, algorithm=AUTO)
        assert cache.stats.decision_misses == 2  # (k=9, unscored) is new
        engine.search(query, 9, algorithm=AUTO)
        engine.search(query, 9, algorithm=AUTO)
        # Result-cache hits short-circuit before the decision memo; the
        # decision counters must not move.
        assert cache.stats.decision_hits == 0
        assert cache.stats.decision_replans == 0

        # Mutate until make='A' is rare: the statistics now favour a scan.
        for rid, row in list(relation.iter_live()):
            if row[0] == "A" and relation.live_count > 8:
                engine.delete(rid)
        replanned = engine.search(query, 10, algorithm=AUTO)
        assert replanned.stats["algorithm_selected"] != "probe"
        assert cache.stats.decision_replans == 1

    def test_distinct_k_and_scored_get_distinct_decisions(self):
        cached, cache, _, rng = self._paired(rows=40, seed=11)
        query = random_query(rng)
        cached.search(query, 3, algorithm=AUTO)
        cached.search(query, 4, algorithm=AUTO)
        cached.search(query, 3, algorithm=AUTO, scored=True)
        assert cache.stats.decision_misses == 3
        assert cache.stats.decision_hits == 0

    def test_serving_engine_auto_end_to_end(self):
        from repro.data.paper_example import figure1_ordering, figure1_relation

        with ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2
        ) as serving:
            bare = serving.engine.search("Make = 'Honda'", 4, algorithm=AUTO)
            first = serving.search("Make = 'Honda'", 4, algorithm=AUTO)
            again = serving.search("Make = 'Honda'", 4, algorithm=AUTO)
            assert _answers(bare) == _answers(first) == _answers(again)
            assert again.stats["cache_hit"] == 1
            for query in ["Make = 'Honda'", "Color = 'Red'"]:
                assert len(serving.search(query, k=3, algorithm=AUTO)) > 0


def _two_value_relation(popular: int, rare: int):
    """``make='big'`` matches ``popular`` rows, ``make='small'`` ``rare``."""
    from repro import Relation, Schema

    schema = Schema.of(make="categorical", model="categorical")
    rows = [("big", f"m{i % 11}") for i in range(popular)]
    rows += [("small", f"m{i % 11}") for i in range(rare)]
    return Relation.from_rows(schema, rows)


class TestSelectionBoundary:
    """Hand-built relations on both sides of the probe/naive crossover."""

    def _run(self, query_value: str, k: int):
        relation = _two_value_relation(popular=400, rare=40)
        engine = DiversityEngine.from_relation(relation, ["make", "model"])
        with use_registry() as registry:
            query = engine.prepare(Query.scalar("make", query_value))
            decision = engine.plan(query, k)
            result = engine.execute(query, k, AUTO, decision=decision)
        return engine, query, decision, result, registry

    def test_low_k_high_selectivity_picks_probe(self):
        """400 matches, k=3: 2k+1 = 7 probes vs reading 400 matches."""
        _, _, decision, result, registry = self._run("big", k=3)
        assert decision.algorithm == "probe"
        assert decision.costs["probe"] < decision.costs["naive"]
        assert result.stats["probe_bound_exceeded"] == 0
        assert registry.value("repro_probe_bound_violations_total") == 0
        assert registry.value(
            "repro_plan_bound_violations_total", algorithm="probe"
        ) == 0

    def test_high_k_low_selectivity_picks_naive(self):
        """40 matches, k=30: 2k+1 = 61 probes lose to reading the 40."""
        _, _, decision, result, registry = self._run("small", k=30)
        assert decision.algorithm == "naive"
        assert decision.costs["naive"] < decision.costs["probe"]
        assert result.stats["rows_touched"] == 40
        assert registry.value("repro_probe_bound_violations_total") == 0
        assert registry.value(
            "repro_plan_bound_violations_total", algorithm="naive"
        ) == 0

    def test_a_former_onepass_plan_gets_a_diverse_answer(self):
        """40 matches, k=5: one-pass used to price cheapest here; auto now
        runs probe or naive, and the answer is still Definition 2's."""
        engine, query, decision, result, _ = self._run("small", k=5)
        assert decision.algorithm in DEFAULT_CANDIDATES
        assert set(decision.costs) == set(DEFAULT_CANDIDATES)
        matches = collect_all(MergedList(query, engine.index))
        assert len(matches) == 40
        assert is_diverse(result.deweys, matches, 5)

    def test_default_candidates_never_pick_worse_than_probe(self):
        """With the full candidate set, the chosen plan never prices above
        the probe baseline (probe is always available)."""
        for value, k in (("big", 3), ("small", 30), ("big", 50), ("small", 1)):
            relation = _two_value_relation(popular=400, rare=40)
            engine = DiversityEngine.from_relation(relation, ["make", "model"])
            query = engine.prepare(Query.scalar("make", value))
            decision = engine.plan(query, k)
            assert decision.costs[decision.algorithm] <= decision.costs["probe"]
