"""Cross-backend and persistence property tests.

Both posting-list backends (array, compressed) must drive
every algorithm to equivalent answers, agree on every seek edge case, and
snapshots must round-trip arbitrary relations bit-exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiversityEngine
from repro.core.dewey import MAX_COMPONENT
from repro.core.ordering import DiversityOrdering
from repro.core.similarity import is_diverse, is_scored_diverse
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.index.postings import BACKENDS, EMPTIED, make_posting_list
from repro.index.snapshot import load_index, save_index
from repro.query.evaluate import res, scored_res

from .conftest import RANDOM_ORDERING, random_query, random_relation


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.integers(1, 8))
def test_backends_drive_identical_algorithm_outputs(seed, k):
    """Array vs compressed: same navigation, same answers."""
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=35)
    query = random_query(rng, weighted=True)
    results = {}
    for backend in BACKENDS:
        index = InvertedIndex.build(
            relation, DiversityOrdering(RANDOM_ORDERING), backend=backend
        )
        engine = DiversityEngine(index)
        results[backend] = (
            engine.search(query, k=k, algorithm="probe").deweys,
            engine.search(query, k=k, algorithm="onepass").deweys,
            engine.search(query, k=k, algorithm="probe", scored=True).deweys,
        )
    for backend in BACKENDS:
        assert results[backend] == results["array"], backend


# ----------------------------------------------------------------------
# Seek edge cases, identical across every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_seek_edges_on_empty_list(backend):
    plist = make_posting_list((), backend, depth=2)
    assert plist.seek((0, 0)) is None
    assert plist.seek_floor((MAX_COMPONENT, MAX_COMPONENT)) is None
    assert plist.first() is None
    assert plist.last() is None
    assert len(plist) == 0


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_seek_edges_on_single_element(backend):
    plist = make_posting_list([(3, 7)], backend, depth=2)
    assert plist.seek((0, 0)) == (3, 7)          # bound before the element
    assert plist.seek((3, 7)) == (3, 7)          # exact hit
    assert plist.seek((3, 8)) is None            # bound past the element
    assert plist.seek_floor((3, 6)) is None      # floor before the element
    assert plist.seek_floor((3, 7)) == (3, 7)    # exact hit
    assert plist.seek_floor((MAX_COMPONENT, 0)) == (3, 7)
    assert plist.first() == plist.last() == (3, 7)


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_seek_edges_before_first_and_after_last(backend):
    postings = [(2, 1), (4, 0), (4, 9), (8, 3)]
    plist = make_posting_list(postings, backend, depth=2)
    assert plist.seek((0, 0)) == (2, 1)              # before the first
    assert plist.seek_floor((0, 0)) is None
    assert plist.seek((9, 0)) is None                # after the last
    assert plist.seek_floor((MAX_COMPONENT, MAX_COMPONENT)) == (8, 3)


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_seek_exact_hit_vs_strict_successor(backend):
    postings = [(2, 1), (4, 0), (4, 9), (8, 3)]
    plist = make_posting_list(postings, backend, depth=2)
    # seek is inclusive (smallest >= bound) ...
    assert plist.seek((4, 0)) == (4, 0)
    # ... and between stored postings it lands on the strict successor.
    assert plist.seek((4, 1)) == (4, 9)
    assert plist.seek((3, MAX_COMPONENT)) == (4, 0)
    # seek_floor mirrors it: inclusive, else the strict predecessor.
    assert plist.seek_floor((4, 9)) == (4, 9)
    assert plist.seek_floor((4, 8)) == (4, 0)
    assert plist.seek_floor((5, 0)) == (4, 9)


# ----------------------------------------------------------------------
# Hypothesis: interleaved mutations keep array and compressed identical
# ----------------------------------------------------------------------
_DEWEYS = st.tuples(
    st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)
)
_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "remove", "seek", "floor"]), _DEWEYS),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_DEWEYS, max_size=40), _OPS)
def test_interleaved_mutations_keep_array_and_compressed_identical(seed_postings, ops):
    """Satellite property: after any interleaving of insert/remove/seek,
    the compressed list is state-identical to the array list."""
    arrayed = make_posting_list(sorted(set(seed_postings)), "array", depth=3)
    compressed = make_posting_list(sorted(set(seed_postings)), "compressed", depth=3)
    for op, dewey in ops:
        if op == "insert":
            arrayed.insert(dewey)
            compressed.insert(dewey)
        elif op == "remove":
            removed = arrayed.remove(dewey)
            assert removed == compressed.remove(dewey)
            assert (removed is EMPTIED) == (bool(removed) and not len(arrayed))
        elif op == "seek":
            assert arrayed.seek(dewey) == compressed.seek(dewey)
        else:
            assert arrayed.seek_floor(dewey) == compressed.seek_floor(dewey)
        assert len(arrayed) == len(compressed)
    assert list(arrayed) == list(compressed)
    assert arrayed.first() == compressed.first()
    assert arrayed.last() == compressed.last()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_snapshot_roundtrip_random_relations(tmp_path_factory, seed):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=30)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    # Random deletions before persisting.
    for rid in rng.sample(range(len(relation)), k=len(relation) // 4):
        relation.delete(rid)
        index.remove(rid)
    path = tmp_path_factory.mktemp("snapshots") / f"r{seed}.idx"
    save_index(index, path)
    restored = load_index(path)
    assert restored.dewey.all_deweys() == index.dewey.all_deweys()
    assert restored.relation.deleted_rids() == relation.deleted_rids()
    for rid, _ in relation.iter_live():
        assert restored.dewey.dewey_of(rid) == index.dewey.dewey_of(rid)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.integers(1, 6))
def test_pagination_partitions_results_under_deletions(seed, page_size):
    """Pages never overlap, cover everything live, and each page is diverse
    over the remaining universe — even after random deletions."""
    from repro.core.pagination import DiversePaginator

    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=30)
    engine = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    for rid in rng.sample(range(len(relation)), k=len(relation) // 4):
        engine.delete(rid)
    query = random_query(rng)
    full = {engine.index.dewey.dewey_of(r) for r in res(relation, query)}
    paginator = DiversePaginator(engine, query, page_size=page_size)
    seen: set = set()
    remaining = set(full)
    for page in paginator.pages():
        deweys = set(page.deweys)
        assert not deweys & seen
        assert is_diverse(page.deweys, remaining, page_size)
        seen |= deweys
        remaining -= deweys
    assert seen == full
