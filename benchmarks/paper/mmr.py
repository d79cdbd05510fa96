"""The web-search baseline: retrieve c*k results, then rerank for diversity.

The paper's introduction dismisses the method "commonly used in web search
engines: in order to show k results to the user, first retrieve c x k
results (for some c > 1) and then pick a diverse subset from these results
[MMR et al.] ... it does not work as well for structured listings since
there are many more duplicates.  Thus, c would have to be of the order of
1000s or 10000s."

This module makes that argument executable:

* :func:`mmr_select` — Maximal Marginal Relevance (Carbonell & Goldstein,
  reference [3]) over Dewey-prefix similarity;
* :func:`retrieve_ck_diverse` — the full baseline: scan the first ``c * k``
  matches in document order, MMR-rerank, return k;
* :func:`evaluate_ck` — measures, for growing c, how far the baseline's
  output remains from true diversity (water-fill violations), which the
  ``abl-cxk`` benchmark sweeps.

The similarity between two tuples is the natural structured analogue of
document similarity: the fraction of leading diversity attributes they
share (``common Dewey prefix / depth``), which is exactly the hierarchy the
paper's SIM definitions walk.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.dewey import DeweyId, common_prefix_len, successor
from repro.core.similarity import balance_violations
from repro.index.merged import MergedList


def dewey_similarity(a: DeweyId, b: DeweyId) -> float:
    """Shared-prefix fraction in [0, 1]; 1.0 only for identical IDs."""
    if len(a) != len(b):
        raise ValueError("Dewey IDs must have equal depth")
    return common_prefix_len(a, b) / len(a)


def mmr_select(
    candidates: Sequence[DeweyId],
    k: int,
    relevance: Optional[Dict[DeweyId, float]] = None,
    trade_off: float = 0.5,
) -> List[DeweyId]:
    """Maximal Marginal Relevance selection of ``min(k, n)`` candidates.

    Greedy: repeatedly add the candidate maximising
    ``trade_off * rel(x) - (1 - trade_off) * max_{s in S} SIM(x, s)``.
    With no relevance (unscored), this is a pure farthest-first diversity
    heuristic.  Deterministic: document order breaks ties.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0.0 <= trade_off <= 1.0:
        raise ValueError("trade_off must be in [0, 1]")
    pool = list(dict.fromkeys(candidates))
    chosen: List[DeweyId] = []
    if not pool or k == 0:
        return chosen
    rel = relevance or {}

    def gain(candidate: DeweyId) -> float:
        relevance_term = trade_off * rel.get(candidate, 0.0)
        if not chosen:
            return relevance_term
        redundancy = max(dewey_similarity(candidate, s) for s in chosen)
        return relevance_term - (1.0 - trade_off) * redundancy

    while pool and len(chosen) < k:
        best = max(pool, key=lambda c: (gain(c), tuple(-x for x in c)))
        chosen.append(best)
        pool.remove(best)
    return sorted(chosen)


def retrieve_ck_diverse(
    merged: MergedList,
    k: int,
    c: int,
    trade_off: float = 0.0,
) -> List[DeweyId]:
    """The introduction's baseline: first ``c * k`` matches + MMR rerank.

    ``trade_off=0`` is the unscored case (pure diversity reranking).
    """
    if c < 1:
        raise ValueError("c must be at least 1")
    budget = c * k
    window: List[DeweyId] = []
    current = merged.first()
    while current is not None and len(window) < budget:
        window.append(current)
        current = merged.next(successor(current))
    return mmr_select(window, k, trade_off=trade_off)


def evaluate_ck(
    merged: MergedList,
    full_results: Iterable[DeweyId],
    k: int,
    c_values: Sequence[int],
) -> Dict[int, int]:
    """Water-fill violations of the c*k baseline for each window factor c.

    Returns ``{c: violations}``; 0 means the window happened to contain a
    truly diverse k-subset *and* MMR found it.  On duplicate-heavy
    structured data, small c leaves entire branches outside the window, so
    violations persist until c approaches |results| / k — the paper's
    argument, quantified.
    """
    full = list(full_results)
    report: Dict[int, int] = {}
    for c in c_values:
        selected = retrieve_ck_diverse(merged, k, c)
        report[c] = balance_violations(selected, full)
    return report
