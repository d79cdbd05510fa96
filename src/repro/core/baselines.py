"""Baseline algorithms from the experimental study (Section V).

* ``Naive``  — evaluate the full query, then post-process a diverse subset
  (the paper times only the evaluation phase; see the harness).
* ``Basic``  — return the first k answers with no diversity guarantee
  (unscored: first k in document order; scored: plain WAND top-k).
* ``MultQ``  — rewrite the query into one sub-query per distinct attribute
  value combination (the introduction's "issue a query to see if there are
  any Honda Civic convertibles, ... Honda Accord convertibles, ...") and
  merge.  Most sub-queries return empty, which is exactly why the paper
  dismisses it; we enumerate the *global* vocabulary per level to reproduce
  that cost profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..index.inverted import InvertedIndex
from ..index.merged import MergedList
from ..index.wand import wand_topk
from ..query.query import Query
from .dewey import DeweyId, successor
from .diversify import diverse_subset, scored_diverse_subset

#: MultQ enumerates value combinations for this many leading diversity
#: attributes by default; deeper levels are handled by the final
#: post-processing trim.  Two levels already reproduces the paper's
#: "Make x Model" example and its cost explosion.
MULTQ_DEFAULT_LEVELS = 2


def collect_all(merged: MergedList) -> List[DeweyId]:
    """Materialise every match in document order (the Naive evaluation)."""
    return merged.matches()


def collect_all_scored(merged: MergedList) -> Dict[DeweyId, float]:
    """Every match with its score (the scored Naive evaluation)."""
    return merged.scored_matches()


def naive_unscored(merged: MergedList, k: int) -> List[DeweyId]:
    """UNaive: full evaluation + exact diverse post-processing."""
    return diverse_subset(collect_all(merged), k)


def naive_scored(merged: MergedList, k: int) -> Dict[DeweyId, float]:
    """SNaive: full scored evaluation + exact scored-diverse selection."""
    scored = collect_all_scored(merged)
    chosen = scored_diverse_subset(scored, k)
    return {dewey: scored[dewey] for dewey in chosen}


def basic_unscored(merged: MergedList, k: int) -> List[DeweyId]:
    """UBasic: the first k matches in document order (no diversity)."""
    results: List[DeweyId] = []
    current = merged.first()
    while current is not None and len(results) < k:
        results.append(current)
        current = merged.next(successor(current))
    return results


def basic_scored(merged: MergedList, k: int) -> Dict[DeweyId, float]:
    """SBasic: plain WAND top-k by score (no diversity)."""
    return dict(wand_topk(merged, k))


def multq_unscored(
    index: InvertedIndex,
    query: Query,
    k: int,
    levels: int = MULTQ_DEFAULT_LEVELS,
) -> Tuple[List[DeweyId], int]:
    """MultQ: returns ``(diverse results, number of sub-queries issued)``.

    Recursively enumerates the global vocabulary of the first ``levels``
    diversity attributes, issuing ``query AND attr = value`` for every
    combination (including combinations that return nothing), fetching up to
    k matches from each non-empty one, and trimming the union with the exact
    post-processor.
    """
    if k <= 0:
        return [], 0
    attributes = list(index.ordering.attributes[: max(0, levels)])
    candidates, issued = _multq_recurse(index, query, k, attributes)
    return diverse_subset(candidates, k), issued


def _multq_recurse(
    index: InvertedIndex,
    query: Query,
    k: int,
    attributes: List[str],
) -> Tuple[List[DeweyId], int]:
    if not attributes:
        merged = MergedList(query, index)
        return basic_unscored(merged, k), 1
    attribute, rest = attributes[0], attributes[1:]
    collected: List[DeweyId] = []
    issued = 0
    for value in sorted(index.vocabulary(attribute), key=repr):
        sub_query = query & Query.scalar(attribute, value)
        sub_results, sub_issued = _multq_recurse(index, sub_query, k, rest)
        issued += sub_issued
        collected.extend(sub_results)
    return collected, issued


def multq_scored(
    index: InvertedIndex,
    query: Query,
    k: int,
    levels: int = MULTQ_DEFAULT_LEVELS,
) -> Tuple[Dict[DeweyId, float], int]:
    """Scored MultQ: per-combination WAND top-k, merged and re-selected."""
    if k <= 0:
        return {}, 0
    attributes = list(index.ordering.attributes[: max(0, levels)])
    candidates, issued = _multq_scored_recurse(index, query, k, attributes)
    chosen = scored_diverse_subset(candidates, k)
    return {dewey: candidates[dewey] for dewey in chosen}, issued


def _multq_scored_recurse(
    index: InvertedIndex,
    query: Query,
    k: int,
    attributes: List[str],
) -> Tuple[Dict[DeweyId, float], int]:
    if not attributes:
        merged = MergedList(query, index)
        return dict(wand_topk(merged, k)), 1
    attribute, rest = attributes[0], attributes[1:]
    collected: Dict[DeweyId, float] = {}
    issued = 0
    for value in sorted(index.vocabulary(attribute), key=repr):
        # Weight 0 so the rewrite predicate filters without skewing scores.
        sub_query = query & Query.scalar(attribute, value, weight=0.0)
        sub_results, sub_issued = _multq_scored_recurse(index, sub_query, k, rest)
        issued += sub_issued
        collected.update(sub_results)
    return collected, issued
