"""Cross-module integration tests on generated Autos data.

These exercise the whole stack — generator -> relation -> index -> query
compiler -> every algorithm -> formal checkers — at a scale where skipping
and probing actually kick in.
"""

import pytest

from repro import DiversityEngine, Query, is_diverse, is_scored_diverse
from paper.extensions.relaxation import relaxed_search
from paper.extensions.weighted import WeightedDiversifier
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.data.workload import WorkloadGenerator, WorkloadSpec
from repro.index.inverted import InvertedIndex
from repro.query.evaluate import res, scored_res
from repro.storage.csvio import from_csv_string, to_csv_string


@pytest.fixture(scope="module")
def inventory():
    return generate_autos(AutosSpec(rows=3000, seed=2026))


@pytest.fixture(scope="module")
def engine(inventory):
    return DiversityEngine.from_relation(inventory, autos_ordering())


class TestWorkloadCorrectness:
    """Every diversity algorithm satisfies the formal definition on every
    workload query — the end-to-end version of the per-module oracles."""

    @pytest.fixture(scope="class")
    def unscored_workload(self, inventory):
        return WorkloadGenerator(
            inventory,
            WorkloadSpec(queries=12, predicates=2, selectivity=0.4, seed=5),
        ).materialise()

    @pytest.fixture(scope="class")
    def scored_workload(self, inventory):
        return WorkloadGenerator(
            inventory,
            WorkloadSpec(
                queries=8, predicates=3, selectivity=0.3,
                disjunctive=True, weighted=True, seed=6,
            ),
        ).materialise()

    @pytest.mark.parametrize("algorithm", ["onepass", "probe", "naive"])
    @pytest.mark.parametrize("k", [1, 10, 40])
    def test_unscored(self, inventory, engine, unscored_workload, algorithm, k):
        for query in unscored_workload:
            result = engine.search(query, k=k, algorithm=algorithm)
            full = [engine.index.dewey.dewey_of(r) for r in res(inventory, query)]
            assert is_diverse(result.deweys, full, k), query.describe()

    @pytest.mark.parametrize("algorithm", ["onepass", "probe", "naive"])
    @pytest.mark.parametrize("k", [1, 10, 40])
    def test_scored(self, inventory, engine, scored_workload, algorithm, k):
        for query in scored_workload:
            result = engine.search(query, k=k, algorithm=algorithm, scored=True)
            sres = {
                engine.index.dewey.dewey_of(r): s
                for r, s in scored_res(inventory, query)
            }
            assert is_scored_diverse(result.deweys, sres, k), query.describe()

    def test_probe_bound_holds_across_workload(self, engine, unscored_workload):
        for query in unscored_workload:
            for k in (1, 10, 40):
                result = engine.search(query, k=k, algorithm="probe")
                assert result.stats["next_calls"] <= 2 * k + 1


class TestBackendsAgree:
    def test_array_and_compressed_same_results(self, inventory):
        ordering = autos_ordering()
        array_engine = DiversityEngine(
            InvertedIndex.build(inventory, ordering, backend="array")
        )
        packed_engine = DiversityEngine(
            InvertedIndex.build(inventory, ordering, backend="compressed")
        )
        for text in [
            "Make = 'Honda'",
            "Description CONTAINS 'low miles'",
            "Make = 'Toyota' [2] OR Description CONTAINS 'rare' [3]",
        ]:
            a = array_engine.search(text, k=8, algorithm="probe")
            b = packed_engine.search(text, k=8, algorithm="probe")
            assert a.deweys == b.deweys


class TestIncrementalIndexing:
    def test_streaming_inserts_serve_queries(self, inventory):
        """An incrementally built index answers like a bulk-built one
        (diversity checked against its own Dewey assignment)."""
        ordering = autos_ordering()
        index = InvertedIndex(inventory, ordering)
        for rid in range(500):
            index.insert(rid)
        engine = DiversityEngine(index)
        result = engine.search("Make = 'Honda'", k=5, algorithm="probe")
        query = Query.scalar("Make", "Honda")
        matching = [
            index.dewey.dewey_of(rid)
            for rid in range(500)
            if inventory.value(rid, "Make") == "Honda"
        ]
        assert is_diverse(result.deweys, matching, 5)

    def test_inserts_after_queries(self, inventory):
        ordering = autos_ordering()
        index = InvertedIndex(inventory, ordering)
        for rid in range(100):
            index.insert(rid)
        engine = DiversityEngine(index)
        before = len(engine.search("", k=1000))
        for rid in range(100, 200):
            index.insert(rid)
        after = len(engine.search("", k=1000))
        assert after == before + 100


class TestCsvRoundtripThroughEngine:
    def test_roundtripped_relation_same_answers(self, inventory, engine):
        clone = from_csv_string(to_csv_string(inventory), name="Cars")
        clone_engine = DiversityEngine.from_relation(clone, autos_ordering())
        for text in ["Make = 'Honda'", "Description CONTAINS 'rare find'"]:
            original = engine.search(text, k=6)
            cloned = clone_engine.search(text, k=6)
            assert [i.values for i in original] == [i.values for i in cloned]


class TestExtensionsAtScale:
    def test_relaxation_on_inventory(self, engine):
        outcome = relaxed_search(
            engine,
            "Make = 'Tesla' AND Color = 'Orange' AND Year = 1999",
            k=5,
        )
        assert outcome.relaxed
        assert len(outcome.result) == 5
        scores = [item.score for item in outcome.result]
        assert scores == sorted(scores, reverse=True)

    def test_weighted_diversity_on_inventory(self, engine):
        merged = engine.compile("Description CONTAINS 'low'")
        from repro.core.baselines import collect_all

        matches = collect_all(merged)
        diversifier = WeightedDiversifier(
            engine.index.dewey, {("Make", "Honda"): 9.0}
        )
        chosen = diversifier.select(matches, 10)
        assert diversifier.is_weighted_diverse(chosen, matches)
        hondas = sum(
            1 for d in chosen if engine.index.dewey.values_of(d)[0] == "Honda"
        )
        # Weight 9 makes Honda's 4th item cheaper (7/9) than any other
        # make's 1st (1.0), so Honda takes >= 4 of the 10 slots; uniform
        # diversity over 10 matching makes would give it exactly 1.
        assert hondas >= 4

    def test_rare_model_surfaces(self, inventory, engine):
        """The S2000 scenario: a diverse page over all Hondas includes the
        rare model even though a proportional sample would miss it."""
        honda_models = {
            row[1] for row in inventory if row[0] == "Honda"
        }
        result = engine.search("Make = 'Honda'", k=len(honda_models))
        shown = {item["Model"] for item in result}
        assert shown == honda_models
