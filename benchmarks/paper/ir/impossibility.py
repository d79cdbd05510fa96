"""Executable demonstration of Theorem 1.

Theorem 1: on the Figure 1(a) database, *no* Inverted-List Based IR System
(per-list value-dependent scores + per-query weights + monotone aggregation)
returns an unscored diverse result set for every query.

The proof pits three queries against each other:

* ``Q1``: Year = 2007, k = 8 — diversity forces all four Toyotas plus
  exactly one Honda Civic into the answer;
* ``Q2``: Description CONTAINS 'miles', k = 8 — same forcing;
* ``Q3``: Year = 2007 AND Description CONTAINS 'miles', k = 6 — by
  monotonicity at most two tuples (the Civics surfacing in Q1/Q2) can beat
  the Toyotas, so the top-6 contains >= 4 Toyotas and <= 2 Hondas, which is
  not diverse (a diverse 6-answer of Q3 needs 3 of each make... in fact it
  needs >= 3 Hondas).

:func:`find_violation` evaluates any concrete score assignment against the
three queries and reports the first one whose top-k is not diverse;
:func:`demonstrate` sweeps many assignments (random and adversarially
hand-tuned) and reports that every single one violates diversity somewhere,
plus a direct check of the proof's counting argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.similarity import is_diverse
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.index.dewey_index import DeweyIndex
from repro.query.evaluate import res
from repro.query.parser import parse_query

from .irsystem import (
    InvertedListIRSystem,
    ListKey,
    ScoreAssignment,
    scalar_key,
    sum_aggregator,
    token_key,
)

#: The three queries of the proof, with their k and the IR lists they touch.
THEOREM_QUERIES: List[Tuple[str, int, Tuple[ListKey, ...]]] = [
    ("Year = 2007", 8, (scalar_key("Year", 2007),)),
    ("Description CONTAINS 'miles'", 8, (token_key("Description", "miles"),)),
    (
        "Year = 2007 AND Description CONTAINS 'miles'",
        6,
        (scalar_key("Year", 2007), token_key("Description", "miles")),
    ),
]


@dataclass(frozen=True)
class Violation:
    """One diversity failure of an IR system."""

    query_text: str
    k: int
    returned_rids: Tuple[int, ...]
    reason: str


def find_violation(
    scores: ScoreAssignment,
    weights: Optional[Sequence[Sequence[float]]] = None,
    aggregator: Callable[[Sequence[float]], float] = sum_aggregator,
) -> Optional[Violation]:
    """Check one IR configuration against the theorem's three queries.

    ``weights[i]`` are the per-query weights for query i (defaults to all
    ones).  Returns the first query whose engine answer is not a diverse
    result set, or ``None`` if the configuration survives (Theorem 1 says it
    never will — asserted over large sweeps in the tests).
    """
    relation = figure1_relation()
    system = InvertedListIRSystem(relation, scores, aggregator)
    dewey = DeweyIndex.build(relation, figure1_ordering())
    for index, (text, k, keys) in enumerate(THEOREM_QUERIES):
        query = parse_query(text)
        query_weights = (
            weights[index] if weights is not None else [1.0] * len(keys)
        )
        if len(query_weights) != len(keys):
            raise ValueError("weights must align with the query's lists")
        # Grant the engine perfect boolean filtering (only matching tuples
        # are ranked) — strictly more generous than the paper's machine, so
        # a violation here is an even stronger demonstration.
        matches = set(res(relation, query))
        answer = system.top_k(list(zip(keys, query_weights)), k, allowed=matches)
        answer_deweys = [dewey.dewey_of(rid) for rid in answer]
        all_deweys = [dewey.dewey_of(rid) for rid in sorted(matches)]
        if not is_diverse(answer_deweys, all_deweys, k):
            return Violation(text, k, tuple(answer), "top-k is not diverse")
    return None


def random_assignment(rng: random.Random) -> Dict[Tuple[ListKey, int], float]:
    """A random score assignment over every list of the Figure 1 database."""
    relation = figure1_relation()
    system = InvertedListIRSystem(relation, {})
    scores: Dict[Tuple[ListKey, int], float] = {}
    for key in system.list_keys():
        for rid in system.postings(key):
            scores[(key, rid)] = rng.random()
    return scores


def adversarial_assignments() -> List[Dict[Tuple[ListKey, int], float]]:
    """Hand-tuned assignments that try hardest to satisfy Q1 and Q2.

    Each places the four Toyotas and one chosen Civic at the top of both the
    ``Year=2007`` and ``'miles'`` lists — the best any assignment can do per
    the proof — so the conjunctive query Q3 is the one that must break.
    """
    relation = figure1_relation()
    year_list = scalar_key("Year", 2007)
    miles_list = token_key("Description", "miles")
    toyotas = [11, 12, 13, 14]
    assignments = []
    for civic_year in range(4):          # which Civic tops the Year list
        for civic_miles in range(4):     # which Civic tops the miles list
            scores: Dict[Tuple[ListKey, int], float] = {}
            for rid in range(len(relation)):
                scores[(year_list, rid)] = 1.0
                scores[(miles_list, rid)] = 1.0
            for rid in toyotas:
                scores[(year_list, rid)] = 10.0
                scores[(miles_list, rid)] = 10.0
            scores[(year_list, civic_year)] = 9.0
            scores[(miles_list, civic_miles)] = 9.0
            # Push the Accord/Odyssey/CRV 2007 rows just below, the other
            # civics to the bottom (they would break Q1/Q2 diversity).
            for rid in (5, 7, 9):
                scores[(year_list, rid)] = 8.0
            for rid in range(4):
                if rid != civic_year:
                    scores[(year_list, rid)] = 0.1
                if rid != civic_miles:
                    scores[(miles_list, rid)] = 0.1
            assignments.append(scores)
    return assignments


def demonstrate(random_trials: int = 200, seed: int = 13) -> Dict[str, object]:
    """Sweep assignments; every one must violate diversity somewhere.

    Returns a report dict with violation counts per query, consumed by the
    ``impossibility_demo`` example and the tests.
    """
    rng = random.Random(seed)
    per_query: Dict[str, int] = {text: 0 for text, _, _ in THEOREM_QUERIES}
    survivors = 0
    total = 0
    for scores in adversarial_assignments():
        total += 1
        violation = find_violation(scores)
        if violation is None:
            survivors += 1
        else:
            per_query[violation.query_text] += 1
    for _ in range(random_trials):
        total += 1
        violation = find_violation(random_assignment(rng))
        if violation is None:
            survivors += 1
        else:
            per_query[violation.query_text] += 1
    return {
        "assignments_checked": total,
        "survivors": survivors,
        "violations_per_query": per_query,
    }
