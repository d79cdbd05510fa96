"""Merged-list navigation over a compiled query (Section III-B).

The paper's algorithms never materialise ``RES(R, Q)``; they navigate a
conceptual *merged list* of all matches through

* ``next(id, LEFT)``  — smallest matching Dewey ID >= id,
* ``next(id, RIGHT)`` — largest matching Dewey ID <= id,
* ``next(id, dir, theta)`` — ditto, restricted to tuples scoring >= theta,

implemented here by composing posting-list seeks: leapfrog intersection for
AND nodes, k-way min/max for OR nodes.  :class:`MergedList` is the façade the
diversity algorithms use; it also counts probe calls so Theorem 2 and the
ablation benchmarks can be checked empirically.

Naive needs ``RES`` whole: :meth:`MergedList.matches` reads it in one pass
over the lists' streams, not a seek per match.  An AND streams its first
child (the rarest, after ``order_for_leapfrog``) and every other child
filters what is left; an OR merges its children's streams.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional, Sequence

from ..core.dewey import LEFT, RIGHT, DeweyId, predecessor, successor, validate_direction
from ..query.predicates import KeywordPredicate, ScalarPredicate
from ..query.query import AND, LEAF, OR, Query
from .inverted import EMPTY_POSTINGS, InvertedIndex
from .postings import PostingList


_POSITION, _ORDER = itemgetter(0), itemgetter(3)


class Cursor:
    """A navigable view of the Dewey IDs matching some boolean expression.

    ``run()`` gives every match as :meth:`PostingList.stream` gives a
    list's postings, ``(decode, keys)``, and ``keep(decode, keys)`` the
    members of such sorted keys that match, in order."""

    __slots__ = ()

    def next(self, bound: DeweyId, direction: str = LEFT) -> Optional[DeweyId]:
        """Nearest match at-or-beyond ``bound`` in ``direction``."""
        raise NotImplementedError


def _decoded(decode: Optional[Callable], keys: Sequence) -> list:
    return keys if decode is None else list(map(decode, keys))


class LeafCursor(Cursor):
    """Navigates a single posting list."""

    __slots__ = ("_postings",)

    def __init__(self, postings: PostingList):
        self._postings = postings

    def next(self, bound: DeweyId, direction: str = LEFT) -> Optional[DeweyId]:
        if direction == LEFT:
            return self._postings.seek(bound)
        validate_direction(direction)
        return self._postings.seek_floor(bound)

    def run(self) -> tuple[Optional[Callable], Sequence]:
        return self._postings.stream()

    def keep(self, decode: Optional[Callable], keys: Sequence) -> list:
        return self._postings.intersect(decode, keys)


class AndCursor(Cursor):
    """Leapfrog intersection of child cursors."""

    __slots__ = ("_children",)

    def __init__(self, children: list[Cursor]):
        if not children:
            raise ValueError("AndCursor needs at least one child")
        self._children = children

    def next(self, bound: DeweyId, direction: str = LEFT) -> Optional[DeweyId]:
        validate_direction(direction)
        candidate = bound
        while True:
            agreed = True
            for child in self._children:
                found = child.next(candidate, direction)
                if found is None:
                    return None
                if found != candidate:
                    candidate = found
                    agreed = False
                    break
            if agreed:
                return candidate

    def run(self) -> tuple[Optional[Callable], Sequence]:
        decode, keys = self._children[0].run()
        return decode, self.keep(decode, keys, 1)

    def keep(self, decode: Optional[Callable], keys: Sequence, start=0) -> list:
        for child in self._children[start:]:
            if not keys:
                break
            keys = child.keep(decode, keys)
        return keys


class OrCursor(Cursor):
    """k-way union of child cursors."""

    __slots__ = ("_children",)

    def __init__(self, children: list[Cursor]):
        if not children:
            raise ValueError("OrCursor needs at least one child")
        self._children = children

    def next(self, bound: DeweyId, direction: str = LEFT) -> Optional[DeweyId]:
        validate_direction(direction)
        best: Optional[DeweyId] = None
        for child in self._children:
            found = child.next(bound, direction)
            if found is None:
                continue
            if best is None:
                best = found
            elif direction == LEFT and found < best:
                best = found
            elif direction == RIGHT and found > best:
                best = found
        return best

    def run(self) -> tuple[Optional[Callable], Sequence]:
        runs = [child.run() for child in self._children]
        decode = runs[0][0]
        if any(other is not decode for other, _ in runs):
            decode, runs = None, [(None, _decoded(*run)) for run in runs]
        return decode, sorted(set().union(*(keys for _, keys in runs)))

    def keep(self, decode: Optional[Callable], keys: Sequence) -> list:
        hits = set().union(*(child.keep(decode, keys) for child in self._children))
        return [key for key in keys if key in hits]


def compile_cursor(query: Query, index: InvertedIndex) -> Cursor:
    """Compile a query tree to a cursor over the inverted index."""
    if query.kind == LEAF:
        return _compile_leaf(query, index)
    if query.kind == AND and _pins_attribute_twice(query):
        # Nothing matches.  Reject what compiling would reject, but do not
        # fetch the scalar lists (a fan-out on a sharded index).
        for child in query.children:
            if isinstance(child.predicate, ScalarPredicate):
                index.relation.validate_attribute(child.predicate.attribute)
            else:
                compile_cursor(child, index)
        return LeafCursor(EMPTY_POSTINGS)
    children = [compile_cursor(child, index) for child in query.children]
    if len(children) == 1:
        return children[0]
    if query.kind == AND:
        return AndCursor(children)
    if query.kind == OR:
        return OrCursor(children)
    raise ValueError(f"unknown query node kind {query.kind!r}")


def _pins_attribute_twice(conjunction: Query) -> bool:
    """Do two scalar leaves of this AND pin one attribute to different
    values?  A row is posted under exactly one value per attribute, so the
    conjunction is empty — and leapfrogging two disjoint lists end to end
    is the slowest way to learn it."""
    pinned: dict = {}
    for child in conjunction.children:
        predicate = child.predicate
        if isinstance(predicate, ScalarPredicate):
            value = pinned.setdefault(predicate.attribute, predicate.value)
            if value != predicate.value:
                return True
    return False


def _compile_leaf(query: Query, index: InvertedIndex) -> Cursor:
    predicate = query.predicate
    if isinstance(predicate, ScalarPredicate):
        return LeafCursor(index.scalar_postings(predicate.attribute, predicate.value))
    if isinstance(predicate, KeywordPredicate):
        lists = [
            LeafCursor(index.token_postings(predicate.attribute, token))
            for token in predicate.terms
        ]
        if len(lists) == 1:
            return lists[0]
        return AndCursor(lists)
    # The match-all predicate (and any future always-true predicate).
    return LeafCursor(index.all_postings())


class MergedList:
    """The façade used by all diversity algorithms.

    Wraps the boolean cursor of a query plus the per-leaf weighted cursors
    needed for scoring, and counts every probe for instrumentation.  The
    weighted cursors fetch every leaf's list a second time (a fan-out on a
    sharded index), so they are built on the first scored use only.
    """

    def __init__(self, query: Query, index: InvertedIndex):
        self._query = query
        self._index = index
        self._root = compile_cursor(query, index)
        self._leaves: Optional[list[tuple[Cursor, float]]] = None
        self._recheck = True
        # The last scored landing: ``score()`` answers it without seeking.
        self._landing: Optional[tuple[DeweyId, float]] = None
        self.next_calls = 0
        self.scored_next_calls = 0
        # Always-on access accounting (repro.observability.probes): cheap
        # integer counters, aggregated once per query — never per probe.
        self.rows_touched = 0        # probes that landed on a match
        self.skip_jumps = 0          # one-pass skip-aheads (driver-reported)
        self.scan_restarts = 0       # LEFT probes issued behind the scan head
        self._scan_head: Optional[DeweyId] = None

    @property
    def query(self) -> Query:
        return self._query

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def depth(self) -> int:
        return self._index.depth

    def reset_stats(self) -> None:
        self.next_calls = 0
        self.scored_next_calls = 0
        self.rows_touched = 0
        self.skip_jumps = 0
        self.scan_restarts = 0
        self._scan_head = None

    # ------------------------------------------------------------------
    # Unscored navigation
    # ------------------------------------------------------------------
    def next(self, bound: DeweyId, direction: str = LEFT) -> Optional[DeweyId]:
        """The paper's ``mergedList.next(id, dir)``."""
        self.next_calls += 1
        if direction == LEFT:
            # Single-scan accounting: a LEFT probe *behind* the furthest
            # LEFT probe so far means a posting region is being re-read.
            # One-pass issues monotonically increasing bounds, so for it
            # this stays 0 — the runtime form of the single-scan property.
            head = self._scan_head
            if head is None or bound > head:
                self._scan_head = bound
            elif bound < head:
                self.scan_restarts += 1
        result = self._root.next(bound, direction)
        if result is not None:
            self.rows_touched += 1
        return result

    def first(self) -> Optional[DeweyId]:
        """The leftmost match (``next(0)`` in the paper)."""
        return self.next((0,) * self._index.depth, LEFT)

    def matches(self) -> list[DeweyId]:
        """Every match in document order, evaluated in one pass (Naive's
        "evaluate the full query")."""
        return _decoded(*self._run())

    def _run(self) -> tuple[Optional[Callable], Sequence]:
        """The root's :meth:`Cursor.run`, counted as the merged ``next``
        loop it stands for: one call per match and one that finds none."""
        decode, keys = self._root.run()
        self.next_calls += len(keys) + 1
        self.rows_touched += len(keys)
        return decode, keys

    def contains(self, dewey: DeweyId) -> bool:
        """Boolean membership test (not counted as a probe)."""
        return self._root.next(dewey, LEFT) == dewey

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _build_leaves(self) -> list[tuple[Cursor, float]]:
        query = self._query
        # A leaf's match is a query match when the query is that leaf or an
        # OR of leaves: the pivot step then skips its boolean re-check.
        self._recheck = not (query.kind == LEAF or (
            query.kind == OR
            and all(child.kind == LEAF for child in query.children)))
        self._leaves = leaves = [
            (_compile_leaf(leaf, self._index), leaf.weight)
            for leaf in query.leaves()
        ]
        return leaves

    def score(self, dewey: DeweyId) -> float:
        """Sum of the weights of the leaf predicates containing ``dewey``."""
        landing = self._landing
        if landing is not None and landing[0] == dewey:
            return landing[1]
        total = 0.0
        for cursor, weight in self._leaves or self._build_leaves():
            if weight and cursor.next(dewey, LEFT) == dewey:
                total += weight
        return total

    def scored_matches(self) -> dict[DeweyId, float]:
        """:meth:`matches` with their scores: each leaf's weight added, in
        leaf order as :meth:`score` adds it, to the matches in its list."""
        decode, keys = self._run()
        if not keys:  # no match is scored, so no leaf list is fetched
            return {}
        scores = dict.fromkeys(keys, 0.0)
        for cursor, weight in self._leaves or self._build_leaves():
            if weight:
                for key in cursor.keep(decode, keys):
                    scores[key] += weight
        if decode is None:
            return scores
        return dict(zip(map(decode, scores), scores.values()))

    def max_score(self) -> float:
        return self._query.max_score()

    def wand_states(self, bound: DeweyId, direction: str, theta: float,
                    strict: bool) -> list[list]:
        """``[position, cursor, weight, leaf index]`` per leaf, seeked from
        ``bound``; a zero-weight leaf only if a score of 0 qualifies."""
        zero_counts = 0.0 > theta if strict else 0.0 >= theta
        return [[cursor.next(bound, direction) if weight > 0.0 or zero_counts
                 else None, cursor, weight, order] for order, (cursor, weight)
                in enumerate(self._leaves or self._build_leaves())]

    def wand_pivot(self, states: list[list], bound: DeweyId, direction: str,
                   theta: float, strict: bool) -> Optional[tuple[DeweyId, float]]:
        """WAND's pivot loop: the nearest match at-or-beyond ``bound``
        scoring >= theta (> when ``strict``), with its score; not a probe.

        Every position is the nearest posting to a bound at or before the
        pivot, so the lists standing on it are exactly those holding it and
        their weights, added in leaf order as :meth:`score` adds them, are
        its score.  A prefix's bound adds three or more weights in that
        order too: by position, a lagging list can leave it an ulp short of
        a score.  ``states`` advance in place: pass them back with a bound
        beyond the landing to resume."""
        forward = direction == LEFT
        zero_counts = 0.0 > theta if strict else 0.0 >= theta
        recheck = self._recheck
        while True:
            live = []
            for state in states:
                position = state[0]
                if position is None or not (zero_counts or state[2] > 0.0):
                    continue
                if position < bound if forward else position > bound:
                    position = state[0] = state[1].next(bound, direction)
                    if position is None:
                        continue
                live.append(state)
            live.sort(key=_POSITION, reverse=not forward)
            accumulated = 0.0
            for index, state in enumerate(live):
                accumulated += state[2]
                if index > 1:
                    prefix = sorted(live[:index + 1], key=_ORDER)
                    accumulated = sum(other[2] for other in prefix)
                if accumulated > theta if strict else accumulated >= theta:
                    pivot = state[0]
                    break
            else:
                return None
            if live[0][0] != pivot:
                bound = pivot  # advance the lagging lists up to the pivot
                continue
            score = 0.0
            for state in states:
                if state[0] == pivot:
                    score += state[2]
            if (score > theta if strict else score >= theta) and (
                    not recheck or self._root.next(pivot, direction) == pivot):
                return pivot, score
            bound = successor(pivot) if forward else predecessor(pivot)
            if bound is None:
                return None

    def next_scored(
        self,
        bound: DeweyId,
        direction: str,
        theta: float,
        strict: bool = False,
    ) -> Optional[DeweyId]:
        """Nearest match in ``direction`` whose score is >= theta (or > theta
        when ``strict``).  This is ``mergedList.next(id, dir, theta)`` from
        Sections III-D and IV-B, implemented with WAND-style pivoting
        ("our implementation of next() uses the same techniques as the WAND
        algorithm", Section III-B): regions whose summed leaf weights cannot
        reach theta are skipped without being touched.
        """
        step = self._wand_step(bound, direction, theta, strict)
        return step[0] if step is not None else None

    def _wand_step(self, bound: DeweyId, direction: str, theta: float,
                   strict: bool) -> Optional[tuple[DeweyId, float]]:
        """One counted scored ``next``, its landing kept for :meth:`score`."""
        self.scored_next_calls += 1
        states = self.wand_states(bound, direction, theta, strict)
        self._landing = self.wand_pivot(states, bound, direction, theta, strict)
        return self._landing

    def next_onepass_scored(
        self,
        start: DeweyId,
        skip_id: Optional[DeweyId],
        min_score: float,
    ) -> Optional[tuple[DeweyId, float]]:
        """The scored one-pass step (Section III-D).

        Returns the smallest match ``id >= start`` such that either
        ``score(id) > min_score``, or ``score(id) == min_score`` and
        ``id >= skip_id``; ``None`` when the scan is exhausted (a ``None``
        ``skip_id`` disables the equal-score pickup entirely).  The result
        carries its score so the caller need not recompute it.

        Composed of two WAND pivot searches: a strict one from ``start``
        (anything beating the current minimum) and a non-strict one from
        ``skip_id`` (the diversity-driven pickup within the tied tier); the
        smaller of the two hits wins.
        """
        better = self._wand_step(start, LEFT, min_score, strict=True)
        if skip_id is None:
            return better
        tier_start = skip_id if skip_id > start else start
        tied = self._wand_step(tier_start, LEFT, min_score, strict=False)
        if better is None:
            return tied
        if tied is None or better[0] <= tied[0]:
            return better
        return tied
