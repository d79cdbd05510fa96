"""Tests for tokenisation, posting lists, sibling dictionaries, the Dewey
index and the inverted index."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dewey import MAX_COMPONENT
from repro.core.ordering import DiversityOrdering, OrderingError
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.index.dewey_index import DeweyIndex
from repro.index.dictionary import SiblingDictionary
from repro.index.compressed import CompressedPostingList
from repro.index.inverted import InvertedIndex
from repro.index.postings import BACKENDS, ArrayPostingList, make_posting_list
from repro.index.tokenize import contains_all, token_set, tokens
from repro.storage.relation import Relation
from repro.storage.schema import Schema

from .conftest import RANDOM_ORDERING, random_relation


class TestTokenize:
    def test_basic(self):
        assert list(tokens("Low miles, ONE owner!")) == [
            "low",
            "miles",
            "one",
            "owner",
        ]

    def test_numbers_kept(self):
        assert "2007" in token_set("year 2007 model")

    def test_contains_all(self):
        assert contains_all("low miles, clean title", "LOW miles")
        assert not contains_all("low miles", "low price")

    def test_empty(self):
        assert token_set("") == frozenset()

    def test_non_string_coerced(self):
        assert list(tokens(2007)) == ["2007"]


class TestOrdering:
    def test_depth_includes_uniqueness_level(self):
        ordering = DiversityOrdering(["a", "b"])
        assert ordering.depth == 3

    def test_attribute_at(self):
        ordering = DiversityOrdering(["make", "model"])
        assert ordering.attribute_at(1) == "make"

    def test_uniqueness_level_has_no_attribute(self):
        ordering = DiversityOrdering(["make"])
        with pytest.raises(OrderingError):
            ordering.attribute_at(2)

    def test_duplicates_rejected(self):
        with pytest.raises(OrderingError):
            DiversityOrdering(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(OrderingError):
            DiversityOrdering([])

    def test_validate_against_schema(self):
        ordering = DiversityOrdering(["make", "bogus"])
        schema = Schema.of(make="categorical")
        with pytest.raises(OrderingError):
            ordering.validate_against(schema)


POSTINGS = [(0, 0, 0), (0, 1, 0), (0, 1, 2), (2, 0, 1), (3, 3, 3)]


@pytest.mark.parametrize("backend_cls", [ArrayPostingList, CompressedPostingList])
class TestPostingLists:
    def test_seek(self, backend_cls):
        postings = backend_cls(POSTINGS)
        assert postings.seek((0, 1, 0)) == (0, 1, 0)
        assert postings.seek((0, 1, 1)) == (0, 1, 2)
        assert postings.seek((9, 0, 0)) is None

    def test_seek_floor(self, backend_cls):
        postings = backend_cls(POSTINGS)
        assert postings.seek_floor((0, 1, 0)) == (0, 1, 0)
        assert postings.seek_floor((2, 0, 0)) == (0, 1, 2)
        assert postings.seek_floor((0, 0, 0)) == (0, 0, 0)
        assert postings.seek_floor((9, 9, 9)) == (3, 3, 3)

    def test_floor_before_first_is_none(self, backend_cls):
        postings = backend_cls([(5, 5)])
        assert postings.seek_floor((5, 4)) is None

    def test_first_last_len_iter(self, backend_cls):
        postings = backend_cls(POSTINGS)
        assert postings.first() == (0, 0, 0)
        assert postings.last() == (3, 3, 3)
        assert len(postings) == len(POSTINGS)
        assert list(postings) == sorted(POSTINGS)

    def test_contains(self, backend_cls):
        postings = backend_cls(POSTINGS)
        assert (2, 0, 1) in postings
        assert (2, 0, 2) not in postings

    def test_insert_idempotent(self, backend_cls):
        postings = backend_cls(POSTINGS)
        postings.insert((2, 0, 1))
        assert len(postings) == len(POSTINGS)
        postings.insert((1, 1, 1))
        assert len(postings) == len(POSTINGS) + 1
        assert (1, 1, 1) in postings

    def test_duplicates_deduped_at_build(self, backend_cls):
        postings = backend_cls([(1, 1), (1, 1), (2, 2)])
        assert len(postings) == 2

    def test_empty(self, backend_cls):
        # A packed list fixes its Dewey depth up front, even when empty.
        depth = {"depth": 1} if backend_cls is CompressedPostingList else {}
        postings = backend_cls([], **depth)
        assert postings.first() is None and postings.last() is None
        assert postings.seek((0,)) is None and postings.seek_floor((9,)) is None


def test_make_posting_list_backends():
    assert isinstance(make_posting_list([], "array"), ArrayPostingList)
    assert isinstance(make_posting_list([], "compressed", depth=2),
                      CompressedPostingList)
    with pytest.raises(ValueError):
        make_posting_list([], "hashmap")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=0, max_size=40
    ),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
def test_backends_agree(postings, probe):
    array = ArrayPostingList(postings)
    packed = CompressedPostingList(postings, depth=2)
    assert array.seek(probe) == packed.seek(probe)
    assert array.seek_floor(probe) == packed.seek_floor(probe)
    assert list(array) == list(packed)


class TestSiblingDictionary:
    def test_encode_assigns_dense_ids(self):
        dictionary = SiblingDictionary()
        assert dictionary.encode((), "Honda") == 0
        assert dictionary.encode((), "Toyota") == 1
        assert dictionary.encode((), "Honda") == 0

    def test_numbering_restarts_per_prefix(self):
        """Figure 2: numbering re-initialises to 0 at each level."""
        dictionary = SiblingDictionary()
        assert dictionary.encode((0,), "Civic") == 0
        assert dictionary.encode((1,), "Prius") == 0

    def test_decode(self):
        dictionary = SiblingDictionary()
        dictionary.encode((), "Honda")
        dictionary.encode((), "Toyota")
        assert dictionary.decode((), 1) == "Toyota"
        with pytest.raises(KeyError):
            dictionary.decode((), 5)
        with pytest.raises(KeyError):
            dictionary.decode((9,), 0)

    def test_lookup_without_allocation(self):
        dictionary = SiblingDictionary()
        assert dictionary.lookup((), "Honda") is None
        dictionary.encode((), "Honda")
        assert dictionary.lookup((), "Honda") == 0



class TestDeweyIndex:
    def test_figure1_structure(self):
        """The built index reproduces the structure of Figure 2(b):
        Hondas share component 0, Toyotas component 1 (sorted order), and
        the Civic colors get distinct third components."""
        relation = figure1_relation()
        index = DeweyIndex.build(relation, figure1_ordering())
        assert index.depth == 6
        hondas = {rid for rid in range(11)}
        for rid in range(len(relation)):
            dewey = index.dewey_of(rid)
            assert (dewey[0] == 0) == (rid in hondas)
        # All five Civics share the first two components.
        civics = [index.dewey_of(rid) for rid in range(5)]
        assert len({d[:2] for d in civics}) == 1
        # Four distinct colors among the 2007 Civics.
        assert len({d[2] for d in civics}) == 4

    def test_roundtrip(self):
        relation = figure1_relation()
        index = DeweyIndex.build(relation, figure1_ordering())
        for rid in range(len(relation)):
            dewey = index.dewey_of(rid)
            assert index.rid_of(dewey) == rid
            values = index.values_of(dewey)
            row = relation[rid]
            assert values == row[:5]

    def test_document_order_matches_value_order(self):
        relation = figure1_relation()
        index = DeweyIndex.build(relation, figure1_ordering())
        deweys = index.all_deweys()
        keyed = [index.values_of(d) for d in deweys]
        assert keyed == sorted(keyed, key=lambda v: tuple(map(str, v)))

    def test_duplicate_tuples_get_distinct_ids(self):
        schema = Schema.of(make="categorical")
        relation = Relation.from_rows(schema, [("Honda",), ("Honda",)])
        index = DeweyIndex.build(relation, DiversityOrdering(["make"]))
        a, b = index.dewey_of(0), index.dewey_of(1)
        assert a != b
        assert a[0] == b[0]  # same value component
        assert {a[1], b[1]} == {0, 1}  # distinct uniqueness components

    def test_incremental_add_appends_siblings(self):
        schema = Schema.of(make="categorical")
        relation = Relation.from_rows(schema, [("B",), ("A",)])
        ordering = DiversityOrdering(["make"])
        index = DeweyIndex(relation, ordering)
        index.add(0)
        index.add(1)
        # Incremental assignment is first-come: B got 0, A got 1.
        assert index.dewey_of(0)[0] == 0
        assert index.dewey_of(1)[0] == 1

    def test_add_is_idempotent(self):
        relation = figure1_relation()
        index = DeweyIndex.build(relation, figure1_ordering())
        before = index.dewey_of(3)
        assert index.add(3) == before
        assert len(index) == len(relation)

    def test_unknown_rid(self):
        relation = figure1_relation()
        index = DeweyIndex.build(relation, figure1_ordering())
        with pytest.raises(KeyError):
            index.dewey_of(999)
        with pytest.raises(KeyError):
            index.rid_of((9, 9, 9, 9, 9, 9))


class TestInvertedIndex:
    @pytest.fixture
    def index(self):
        return InvertedIndex.build(figure1_relation(), figure1_ordering())

    def test_scalar_postings(self, index):
        hondas = index.scalar_postings("Make", "Honda")
        assert len(hondas) == 11
        toyotas = index.scalar_postings("Make", "Toyota")
        assert len(toyotas) == 4
        assert len(index.scalar_postings("Make", "Tesla")) == 0

    def test_numeric_scalar_postings(self, index):
        assert len(index.scalar_postings("Year", 2007)) == 11

    def test_token_postings(self, index):
        assert len(index.token_postings("Description", "miles")) == 11
        assert len(index.token_postings("Description", "MILES")) == 11
        assert len(index.token_postings("Description", "rare")) == 1

    def test_token_postings_require_text_attribute(self, index):
        with pytest.raises(ValueError):
            index.token_postings("Make", "honda")

    def test_all_postings_sorted(self, index):
        everything = list(index.all_postings())
        assert len(everything) == 15
        assert everything == sorted(everything)

    def test_vocabulary(self, index):
        assert set(index.vocabulary("Make")) == {"Honda", "Toyota"}

    def test_unknown_attribute(self, index):
        with pytest.raises(Exception):
            index.scalar_postings("Bogus", 1)

    def test_incremental_insert_matches_rebuild(self):
        relation = figure1_relation()
        ordering = figure1_ordering()
        incremental = InvertedIndex(relation, ordering)
        for rid in range(len(relation)):
            incremental.insert(rid)
        # Same posting multiset per key (sibling numbering may differ since
        # incremental assignment is first-come rather than sorted).
        assert len(incremental) == len(relation)
        assert len(incremental.scalar_postings("Make", "Honda")) == 11
        assert len(incremental.token_postings("Description", "miles")) == 11
        new_rid = relation.insert(("Tesla", "ModelS", "Red", 2008, "rare find"))
        incremental.insert(new_rid)
        assert len(incremental.scalar_postings("Make", "Tesla")) == 1
        assert len(incremental.token_postings("Description", "rare")) == 2

    def test_insert_idempotent(self):
        relation = figure1_relation()
        index = InvertedIndex.build(relation, figure1_ordering())
        index.insert(0)
        assert len(index) == len(relation)

    def test_compressed_backend(self):
        index = InvertedIndex.build(
            figure1_relation(), figure1_ordering(), backend="compressed"
        )
        assert isinstance(index.scalar_postings("Make", "Honda"),
                          CompressedPostingList)
        assert len(index.all_postings()) == 15

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            InvertedIndex(figure1_relation(), figure1_ordering(), backend="x")


def assert_same_lists(live: InvertedIndex, rebuilt: InvertedIndex) -> None:
    for name in live.relation.schema.names:
        assert sorted(live.vocabulary(name)) == sorted(rebuilt.vocabulary(name))
    stats, expected = live.memory_stats(), rebuilt.memory_stats()
    assert stats["lists"] == expected["lists"]
    assert stats["postings"] == expected["postings"]


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_removing_the_last_row_of_a_value_drops_its_list(backend):
    """A server and its own restart must agree on ``vocabulary()``: the
    emptied 'Zastava' list used to stay behind in the live index."""
    relation = figure1_relation()
    index = InvertedIndex.build(relation, figure1_ordering(), backend=backend)
    lists = index.memory_stats()["lists"]
    for _ in range(2):  # the second round re-inserts the dropped value
        rid = relation.insert(("Zastava", "Yugo", "Red", 1988, "one owner"))
        index.insert(rid)
        assert sorted(index.vocabulary("Make")) == ["Honda", "Toyota", "Zastava"]
        assert list(index.scalar_postings("Make", "Zastava")) == [
            index.dewey.dewey_of(rid)
        ]
        relation.delete(rid)
        index.remove(rid)
        assert sorted(index.vocabulary("Make")) == ["Honda", "Toyota"]
        assert len(index.scalar_postings("Make", "Zastava")) == 0
        assert len(index.token_postings("Description", "owner")) == 0
        assert index.memory_stats()["lists"] == lists
        assert_same_lists(
            index, InvertedIndex.build(relation, figure1_ordering(), backend=backend)
        )


@pytest.mark.parametrize("backend", list(BACKENDS))
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_live_index_holds_the_lists_a_rebuild_would(backend, seed):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=12)
    ordering = DiversityOrdering(RANDOM_ORDERING)
    index = InvertedIndex.build(relation, ordering, backend=backend)
    spare = list(random_relation(rng, max_rows=30))
    live = list(range(len(relation)))
    while spare:
        if live and rng.random() < 0.6:
            rid = live.pop(rng.randrange(len(live)))
            relation.delete(rid)
            index.remove(rid)
        else:
            rid = relation.insert(spare.pop())
            index.insert(rid)
            live.append(rid)
        assert_same_lists(
            index, InvertedIndex.build(relation, ordering, backend=backend)
        )
