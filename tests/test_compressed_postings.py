"""Unit tests for the compressed posting-list backend.

The randomized oracle is :class:`ArrayPostingList`: every seek answer,
iteration order and mutation outcome of :class:`CompressedPostingList`
must match it exactly, including probes carrying the ``MAX_COMPONENT``
sentinel that saturates packed key fields.
"""

import random

import pytest

from repro.core.dewey import MAX_COMPONENT
from repro.index.compressed import (
    BLOCK,
    MIN_COMPACTION,
    CompressedPostingList,
)
from repro.index.postings import ArrayPostingList


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
# Construction and round-trips
# ----------------------------------------------------------------------
def test_roundtrips_postings_across_block_boundaries():
    rng = random.Random(7)
    for count in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
        postings = random_postings(rng, 3, count, span=50)
        plist = CompressedPostingList(postings, depth=3)
        assert list(plist) == postings
        assert len(plist) == len(postings)


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
        count = rng.randrange(0, 4 * BLOCK)
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
