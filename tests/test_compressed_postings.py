"""Unit tests for the compressed posting-list backend.

The randomized oracle is :class:`ArrayPostingList`: every seek answer,
iteration order and mutation outcome of :class:`CompressedPostingList`
must match it exactly, including probes carrying the ``MAX_COMPONENT``
sentinel that saturates packed key fields.  :class:`PostingMachine` is
the stateful form of that oracle, over the backend's three shapes.
"""

import random
from array import array

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import DiversityEngine
from repro.core.dewey import MAX_COMPONENT
from repro.core.ordering import DiversityOrdering
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.index.compressed import (
    _GALLOP_CAP,
    MIN_COMPACTION,
    CompressedPostingList,
    _compile_codecs,
    _Segment,
    field_widths,
    packed_runs,
)
from repro.index.dewey_index import DeweyIndex
from repro.index.inverted import InvertedIndex
from repro.index.postings import ArrayPostingList

from .conftest import RANDOM_ORDERING, random_query, random_relation
from .test_compressed_differential import K_VALUES, _assert_identical, _clone


def random_postings(rng, depth, count, span=None):
    span = span if span is not None else max(4, count)
    postings = {
        tuple(rng.randrange(span) for _ in range(depth)) for _ in range(count)
    }
    return sorted(postings)


def random_probe(rng, depth, span):
    """A seek bound; may carry MAX_COMPONENT the way region bounds do."""
    probe = [rng.randrange(span + 2) for _ in range(depth)]
    if rng.random() < 0.3:
        level = rng.randrange(depth)
        for position in range(level, depth):
            probe[position] = MAX_COMPONENT
    return tuple(probe)


# ----------------------------------------------------------------------
# The stateful oracle: any interleaving, three shapes, one answer
# ----------------------------------------------------------------------
#: Initial sizes on both sides of every threshold the backend branches on.
SIZES = sorted({
    0, 1,
    _GALLOP_CAP - 1, _GALLOP_CAP, _GALLOP_CAP + 1, 2 * _GALLOP_CAP + 1,
    MIN_COMPACTION - 1, MIN_COMPACTION, MIN_COMPACTION + 1,
    3 * MIN_COMPACTION + 5,
})
DEPTH = 3
#: shape -> (components the initial postings draw from, components the
#: later inserts, removes and bounds draw from).
SHAPES = {
    # fields sized to the list's own content, the standalone constructor
    "self-sized": (range(12), range(12)),
    # 3-bit fields handed down by an index build over components 0..7;
    # later inserts carry 8..11, which no field holds
    "handed-widths": (range(8), range(12)),
    # three ~40-bit fields: past 64 bits, keys are a plain list of ints
    "wide": (
        [2**40, 2**40 + 1, 2**40 + 2, 2**41 - 1],
        [0, 1, 2**40, 2**40 + 1, 2**40 + 3, 2**41 - 1],
    ),
}


class PostingMachine(RuleBasedStateMachine):
    """insert / remove / seek / seek_floor / iterate / compact / a
    scrambled ``_hint``, in any order, against :class:`ArrayPostingList`."""

    @initialize(
        shape=st.sampled_from(sorted(SHAPES)),
        size=st.sampled_from(SIZES),
        seed=st.integers(0, 2**16),
    )
    def build(self, shape, size, seed):
        initial, self.domain = SHAPES[shape]
        rng = random.Random(seed)
        postings = sorted({
            tuple(rng.choice(initial) for _ in range(DEPTH)) for _ in range(size)
        })
        self.oracle = ArrayPostingList(postings)
        if shape == "handed-widths":
            # a run of an index build whose rows span components 0..7
            everything = sorted({*postings, (max(initial),) * DEPTH})
            self.plist = packed_runs(everything, DEPTH)(
                [everything.index(dewey) for dewey in postings]
            )
            assert self.plist._segment.widths == (3, 3, 3)
        else:
            self.plist = CompressedPostingList(postings, depth=DEPTH)
        wide = shape == "wide" and bool(postings)
        assert isinstance(self.plist._segment.keys, array) != wide

    def ids(self):
        return st.tuples(*[st.sampled_from(self.domain)] * DEPTH)

    @rule(data=st.data())
    def insert(self, data):
        dewey = data.draw(self.ids())
        self.oracle.insert(dewey)
        self.plist.insert(dewey)

    @rule(data=st.data())
    def remove_any(self, data):
        dewey = data.draw(self.ids())
        assert self.plist.remove(dewey) == self.oracle.remove(dewey)

    @rule(position=st.integers(0, 2**16))
    def remove_present(self, position):
        if len(self.oracle):
            dewey = self.oracle._postings[position % len(self.oracle)]
            assert self.plist.remove(dewey) and self.oracle.remove(dewey)

    @rule(data=st.data(), saturate_from=st.integers(0, 2 * DEPTH))
    def seek_both_ways(self, data, saturate_from):
        bound = list(data.draw(self.ids()))
        bound[saturate_from:] = [MAX_COMPONENT] * len(bound[saturate_from:])
        bound = tuple(bound)
        assert self.plist.seek(bound) == self.oracle.seek(bound)
        assert self.plist.seek_floor(bound) == self.oracle.seek_floor(bound)
        assert (bound in self.plist) == (bound in self.oracle)

    @rule(data=st.data(), extra=st.integers(0, 3))
    def wrong_depth_ids_match_nothing(self, data, extra):
        dewey = data.draw(self.ids())
        for wrong in (dewey[:-1], dewey + (extra,)):
            assert not self.plist.remove(wrong)
            assert wrong not in self.plist

    @rule()
    def compact(self):
        self.plist.compact()
        assert self.plist._tail == [] and self.plist._deleted == set()

    @rule(data=st.data())
    def scramble_hint(self, data):
        """A stale, raced or out-of-range hint may cost time, never an
        answer."""
        count = self.plist._segment.count
        self.plist._hint = data.draw(st.integers(-1, count + 1))

    @invariant()
    def agrees_with_the_oracle(self):
        expected = list(self.oracle)
        assert list(self.plist) == expected
        assert len(self.plist) == len(expected)
        assert self.plist.first() == self.oracle.first()
        assert self.plist.last() == self.oracle.last()


TestPostingMachine = PostingMachine.TestCase
TestPostingMachine.settings = settings(
    max_examples=120, stateful_step_count=60, deadline=None
)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_duplicates_collapse_and_input_order_is_irrelevant():
    postings = [(2, 1), (0, 3), (2, 1), (1, 1), (0, 3)]
    plist = CompressedPostingList(postings)
    assert list(plist) == [(0, 3), (1, 1), (2, 1)]


def test_empty_without_depth_is_rejected():
    with pytest.raises(ValueError, match="depth"):
        CompressedPostingList()
    assert list(CompressedPostingList(depth=2)) == []


def test_mixed_depths_are_rejected():
    with pytest.raises(ValueError, match="depth"):
        CompressedPostingList([(1, 2), (1, 2, 3)])
    plist = CompressedPostingList([(1, 2)])
    with pytest.raises(ValueError, match="depth"):
        plist.insert((1, 2, 3))


def test_first_last_contains_and_membership():
    postings = [(0, 5), (3, 1), (7, 2)]
    plist = CompressedPostingList(postings)
    assert plist.first() == (0, 5)
    assert plist.last() == (7, 2)
    assert (3, 1) in plist
    assert (3, 2) not in plist
    empty = CompressedPostingList(depth=2)
    assert empty.first() is None
    assert empty.last() is None


# ----------------------------------------------------------------------
# Seek oracle (including saturating MAX_COMPONENT probes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_seek_matches_array_oracle(depth):
    rng = random.Random(100 + depth)
    for _ in range(40):
        count = rng.randrange(0, 8 * MIN_COMPACTION)
        span = rng.choice([3, 10, 1000, 2**40])
        postings = random_postings(rng, depth, count, span=span)
        oracle = ArrayPostingList(postings)
        plist = CompressedPostingList(postings, depth=depth)
        for _ in range(60):
            probe = random_probe(rng, depth, span)
            assert plist.seek(probe) == oracle.seek(probe), probe
            assert plist.seek_floor(probe) == oracle.seek_floor(probe), probe


def test_seek_is_stateless_despite_the_hint():
    """The gallop hint is a pure accelerator: probe order never matters."""
    rng = random.Random(5)
    postings = random_postings(rng, 2, 300, span=1000)
    oracle = ArrayPostingList(postings)
    plist = CompressedPostingList(postings, depth=2)
    probes = [random_probe(rng, 2, 1000) for _ in range(50)]
    forward = [plist.seek(p) for p in probes]
    backward = [plist.seek(p) for p in reversed(probes)]
    assert forward == [oracle.seek(p) for p in probes]
    assert backward == [oracle.seek(p) for p in reversed(probes)]
    # ... nor does a hint nobody answered: stale, raced, out of range.
    count = len(postings)
    for hint in (-1, 0, 1, count // 2, count - 1, count, count + 1, 10**6):
        for probe in probes:
            plist._hint = hint
            assert plist.seek(probe) == oracle.seek(probe), (hint, probe)
    # A scan asks for the last answer's successor — the neighbour the seek
    # answers without galloping — and for the last answer again.
    answer = plist.first()
    while answer is not None:
        assert plist.seek(answer) == answer
        successor = answer[:-1] + (answer[-1] + 1,)
        answer = plist.seek(successor)
        assert answer == oracle.seek(successor)


# ----------------------------------------------------------------------
# Mutation: tail buffer, tombstones, compaction
# ----------------------------------------------------------------------
def test_insert_remove_oracle_under_interleaving():
    rng = random.Random(11)
    oracle = ArrayPostingList()
    plist = CompressedPostingList(depth=3)
    for step in range(600):
        dewey = tuple(rng.randrange(12) for _ in range(3))
        if rng.random() < 0.6:
            oracle.insert(dewey)
            plist.insert(dewey)
        else:
            assert plist.remove(dewey) == oracle.remove(dewey)
        if step % 37 == 0:
            assert list(plist) == list(oracle)
            probe = random_probe(rng, 3, 12)
            assert plist.seek(probe) == oracle.seek(probe)
            assert plist.seek_floor(probe) == oracle.seek_floor(probe)
    assert list(plist) == list(oracle)


def test_wrong_depth_ids_match_nothing_and_change_nothing():
    """A too-long id used to match its own prefix in the packed segment:
    ``remove`` returned True and planted a tombstone no posting matched,
    so ``len()`` undercounted for good; a too-short one raised."""
    postings = [(1, 2, 3), (1, 2, 4), (2, 0, 0)]
    plist = CompressedPostingList(postings)
    plist.insert((2, 0, 1))  # one id in the tail as well
    for wrong in [(1, 2, 3, 4), (1, 2), (2, 0, 1, 0), (2, 0), ()]:
        assert plist.remove(wrong) is False
        assert wrong not in plist
    assert len(plist) == 4 and plist._deleted == set()
    assert list(plist) == postings + [(2, 0, 1)]


def test_insert_wider_than_the_handed_fields_lives_in_the_tail():
    """Index-wide widths fit the build's rows, not tomorrow's: an id no
    field holds waits in the tail until a compaction re-sizes the fields."""
    postings = [(i, i % 3) for i in range(8)]
    plist = packed_runs(postings, 2)(list(range(len(postings))))
    assert plist._segment.widths == (3, 2)
    plist.insert((8, 0))
    plist.insert((3, 4))
    assert plist._tail == [(3, 4), (8, 0)]
    assert (8, 0) in plist and plist.seek((7, 3)) == (8, 0)
    assert plist.seek_floor((3, MAX_COMPONENT)) == (3, 4)
    plist.compact()
    assert plist._segment.widths == (4, 3) and plist._tail == []
    assert list(plist) == sorted(postings + [(8, 0), (3, 4)])
    assert plist.remove((8, 0)) and (8, 0) not in plist


def test_segment_reinsertion_undoes_tombstone():
    postings = [(i,) for i in range(10)]
    plist = CompressedPostingList(postings)
    assert plist.remove((4,))
    assert (4,) not in plist
    plist.insert((4,))
    assert (4,) in plist
    assert list(plist) == postings


def test_compaction_merges_tail_and_tombstones():
    base = [(i, 0) for i in range(0, 400, 2)]
    plist = CompressedPostingList(base)
    for i in range(1, 2 * MIN_COMPACTION + 10, 2):
        plist.insert((i, 0))
    for i in range(0, 40, 2):
        plist.remove((i, 0))
    plist.compact()
    assert plist._tail == [] and plist._deleted == set()
    expected = sorted(
        ({(i, 0) for i in range(0, 400, 2)}
         | {(i, 0) for i in range(1, 2 * MIN_COMPACTION + 10, 2)})
        - {(i, 0) for i in range(0, 40, 2)}
    )
    assert list(plist) == expected


def test_remove_everything_leaves_a_working_empty_list():
    postings = [(i,) for i in range(5)]
    plist = CompressedPostingList(postings)
    for dewey in postings:
        assert plist.remove(dewey)
    assert len(plist) == 0
    assert plist.seek((0,)) is None
    assert plist.seek_floor((MAX_COMPONENT,)) is None
    plist.insert((3,))
    assert list(plist) == [(3,)]


def test_memory_bytes_is_far_below_the_tuple_representation():
    rng = random.Random(3)
    postings = random_postings(rng, 4, 5000, span=3000)
    compressed = CompressedPostingList(postings, depth=4)
    arrayed = ArrayPostingList(postings)
    assert compressed.memory_bytes() < arrayed.memory_bytes() / 2


def test_wide_components_fall_back_to_bigint_keys():
    """Packed widths past 64 bits switch keys to a plain int list."""
    postings = [(i, 2**40 + i, 2**50 - i) for i in range(100)]
    plist = CompressedPostingList(postings)
    assert list(plist) == postings
    oracle = ArrayPostingList(postings)
    for probe in [(0, 0, 0), (50, 2**40, 0), (99, 2**41, 2**50),
                  (MAX_COMPONENT,) * 3]:
        assert plist.seek(probe) == oracle.seek(probe)
        assert plist.seek_floor(probe) == oracle.seek_floor(probe)
    # The module docstring's numbers: the fallback is still smaller than
    # a tuple per posting, but no longer a machine word.
    assert isinstance(plist._segment.keys, list)
    assert plist.memory_bytes() / len(plist) == 48
    assert 72 <= oracle.memory_bytes() / len(oracle) < 73


# ----------------------------------------------------------------------
# The index build: one buffer, one codec, 8 bytes a posting
# ----------------------------------------------------------------------
def test_index_build_stores_each_posting_once_and_compiles_one_codec():
    relation = generate_autos(AutosSpec(rows=2000, seed=42))
    before = _compile_codecs.cache_info().misses
    index = InvertedIndex.build(relation, autos_ordering(), backend="compressed")
    # the index-wide codec and the (1,) * depth one of the empty lists
    assert _compile_codecs.cache_info().misses - before <= 2
    stats = index.memory_stats()
    assert stats["lists"] > 500
    assert stats["bytes_per_posting"] == 8.0
    codecs = {id(plist._segment.decode_key) for plist in index.posting_lists()}
    assert len(codecs) == 1
    segment = index.all_postings()._segment
    buffers = [
        name for name in _Segment.__slots__
        if isinstance(getattr(segment, name), (array, list, bytes, bytearray))
    ]
    assert buffers == ["keys"]


def _stretched_engine(relation, backend, shift):
    """An engine over ``relation`` in a Dewey space whose every component
    is the natural one ``<< shift``: the same tree, ids too wide to pack
    index-wide into 64 bits."""
    ordering = DiversityOrdering(RANDOM_ORDERING)
    natural = DeweyIndex.build(relation, ordering)
    wide = DeweyIndex.restore(relation, ordering, {
        rid: tuple(c << shift for c in natural.dewey_of(rid))
        for rid in natural.iter_rids()
    })
    return DiversityEngine(
        InvertedIndex.build(relation, ordering, backend=backend, dewey=wide)
    )


def test_index_whose_widths_pass_64_bits_sizes_each_list_and_still_agrees():
    rng = random.Random(6401)
    for trial in range(3):
        relation = random_relation(rng, max_rows=60)
        reference = _stretched_engine(relation, "array", shift=16)
        candidate = _stretched_engine(_clone(relation), "compressed", shift=16)
        everything = list(candidate.index.all_postings())
        assert sum(field_widths(everything, 5)) > 64
        shapes = {
            type(plist._segment.keys) for plist in candidate.index.posting_lists()
        }
        # ... so each run sized itself: the narrow ones still fit a word.
        assert shapes == {array, list}
        for _ in range(6):
            query = random_query(rng, weighted=rng.random() < 0.5)
            _assert_identical(
                reference, candidate, query, rng.choice(K_VALUES),
                context=f"wide trial={trial}",
            )
