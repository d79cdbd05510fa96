"""The cost model behind ``algorithm="auto"``.

The paper's own experiments (Figs. 5-8) show no algorithm dominates: probe
wins when many rows match and k is small (its Theorem 2 bound of ``2k+1``
probes is independent of the match count), one-pass/naive win when few rows
match (a short scan beats the probing driver's bidirectional region
bookkeeping), and the crossover moves with k, selectivity and scoring.
This module prices each algorithm for one prepared query from the exact
statistics the index already keeps — posting-list lengths — plus the
independence-assumption selectivity estimates of :mod:`repro.query.estimate`,
and picks the cheapest *diversity-preserving* algorithm.

The currency is the **seek unit**: one positioned lookup into one posting
list (what a single leaf-cursor ``next`` costs, up to a logarithmic bisect
factor).  All constants are relative weights in that unit; absolute wall
clock cancels out of the comparison.  The model only has to *rank*
correctly — and only has to rank correctly where the costs diverge, since
near the crossover either choice is within the regret budget (the oracle
tests gate auto at 1.05x the best fixed algorithm).

Costs per algorithm (``M`` = estimated matches, ``k`` = result size,
``d`` = diversity-tree depth, ``c`` = seek units per merged ``next``):

* ``naive``   — full evaluation, ``(M+1)·c``, plus the exact diverse
  selection over all ``M`` matches (``M·d`` cheap dict operations).
* ``basic``   — first-k / WAND: ``(min(k,M)+1)`` nexts.  Not diversity
  preserving; priced for ``plan explain`` but excluded from auto's
  default candidates.
* ``onepass`` — single scan with skips: between ``k`` and ``M`` visits;
  modelled as ``k + min(1, k/skip_k)·(M-k)`` (skips prune a lot of the
  scan at small k but almost none of it once k approaches ``skip_k``),
  each visit paying one next plus per-level one-pass tree bookkeeping.
* ``probe``   — ``2·min(k,M)+1`` probes (Theorem 2), each paying one next
  plus per-level probe-region bookkeeping.  Independent of ``M`` — the
  whole reason auto exists.
* ``multq``   — the rewrite baseline issues one sub-query per value
  combination of the first ordering levels; priced from vocabulary sizes,
  excluded from auto's default candidates (not an index-driven diverse
  algorithm).

Scored variants pay a per-leaf surcharge on every next (the WAND driver
sorts leaf states and accumulates scores) and naive additionally scores
every match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..query.estimate import leaf_cardinality
from ..query.query import AND, LEAF, OR, Query

#: Every algorithm the model can price (mirrors ``repro.core.ALGORITHMS``;
#: not imported from there to keep this module engine-independent).
PRICEABLE = ("onepass", "probe", "naive", "basic", "multq")

#: Algorithms auto picks among by default: the diversity-preserving ones.
#: ``basic`` (first-k, no diversity) and ``multq`` (rewrite baseline) answer
#: a different question, so auto never silently substitutes them — they
#: remain reachable as explicit ``algorithm=`` choices and are still priced
#: for ``plan explain``.
DEFAULT_CANDIDATES = ("onepass", "probe", "naive")

#: Deterministic tie-break when two candidates price identically: prefer the
#: paper's bounded algorithms over the baseline.
_PREFERENCE = {"probe": 0, "onepass": 1, "naive": 2, "basic": 3, "multq": 4}


@dataclass(frozen=True)
class CostConstants:
    """Relative weights of the cost model, in seek units.

    Calibrated once against the repo's own benchmarks (bench_autoselect);
    the differential tests do not depend on them (auto is compared against
    whatever it picked), and the oracle tests only need the *ranking* to be
    right away from the crossover.  ``tree_op``'s "per visit, per level" no
    longer describes ``OnePassTree``; re-fit it with ``probe_op`` (ROADMAP 7(b)).
    """

    seek_log: float = 0.12        # marginal bisect cost per doubling of a list
    and_rounds: float = 1.6       # mean leapfrog rounds per AND next
    tree_op: float = 0.7          # one-pass tree bookkeeping per visit, per level
    probe_op: float = 1.2         # probe-region bookkeeping per probe, per level
    diversify_op: float = 0.08    # naive post-selection per match, per level
    skip_k: float = 24.0          # k at which one-pass skips stop helping
    scored_leaf: float = 0.9      # per-leaf WAND surcharge per scored next
    scored_probe_pass: float = 2.0  # scored probing's extra threshold passes
    multq_query: float = 3.0      # fixed overhead per issued rewrite sub-query


DEFAULT_CONSTANTS = CostConstants()


class PlanFeatures(NamedTuple):
    """The feature vector the cost model prices from.

    Everything here comes from statistics the index keeps exactly (posting
    lengths, vocabulary) or from :mod:`repro.query.estimate`'s independence
    estimates — no data is scanned to plan.  A named tuple, not a frozen
    dataclass, whose per-field ``object.__setattr__`` was a fifth of a
    match-all query's planning.
    """

    rows: int                 # |R|: live indexed tuples
    est_matches: float        # estimated match count (exact for leaves)
    selectivity: float        # est_matches / rows (0 when the index is empty)
    leaves: int               # leaf predicates in the tree
    rarest_leaf: int          # smallest exact leaf cardinality
    total_leaf_postings: int  # sum of exact leaf cardinalities
    next_cost: float          # seek units one merged next() costs
    depth: int                # diversity-tree depth
    k: int
    scored: bool              # the scored drivers run (not a uniform-score plan)
    disjunctive: bool         # any OR node in the tree

    def as_stats(self) -> Dict[str, float]:
        """The feature entries merged into ``result.stats`` / explain."""
        return {
            "plan_rows": self.rows,
            "plan_est_matches": round(self.est_matches, 2),
            "plan_selectivity": round(self.selectivity, 4),
            "plan_leaves": self.leaves,
            "plan_rarest_leaf": self.rarest_leaf,
            "plan_next_cost": round(self.next_cost, 3),
        }


class PlanDecision(NamedTuple):
    """One planning verdict: the chosen algorithm plus its evidence.

    ``epoch`` is the index mutation epoch the statistics were read at — the
    serving-layer decision cache rejects a decision whose epoch no longer
    matches, so mutated relations re-plan (PR 7 satellite: epoch + k +
    scored keying).
    """

    algorithm: str
    k: int
    scored: bool
    epoch: int
    costs: Mapping[str, float]          # candidate -> seek units
    features: PlanFeatures
    candidates: Tuple[str, ...]
    reason: str = "cost"                # "cost" | "forced" | "stats unavailable"


def _walk(query: Query, index, total: int, constants: CostConstants,
          cardinalities: list) -> Tuple[float, float, bool]:
    """``(selectivity, next_cost, disjunctive)`` in one walk, appending
    each leaf's exact cardinality.  Selectivity as in ``estimate_selectivity``;
    ``next_cost`` is one merged ``next`` in seek units: a seek per list a leaf
    reads (a keyword leaf ANDs its tokens) plus a log bisect surcharge, times
    ~``and_rounds`` leapfrog rounds under an AND, summed under an OR."""
    if query.kind == LEAF:
        cardinality = leaf_cardinality(query, index)
        cardinalities.append(cardinality)
        predicate = query.predicate
        terms = getattr(predicate, "terms", None)
        cost = 0.0
        for length in ([len(index.token_postings(predicate.attribute, token))
                        for token in terms] if terms else (cardinality,)):
            cost += 1.0 + constants.seek_log * math.log2(1.0 + length)
        return (min(1.0, cardinality / total) if total else 0.0), cost, False
    parts = [_walk(child, index, total, constants, cardinalities)
             for child in query.children]
    cost = sum(part[1] for part in parts)
    disjunctive = query.kind == OR or any(part[2] for part in parts)
    if query.kind == AND:
        selectivity = 1.0
        for part in parts:
            selectivity *= part[0]
        if len(parts) > 1:
            cost = constants.and_rounds * cost
        return selectivity, cost, disjunctive
    miss = 1.0
    for part in parts:
        miss *= 1.0 - part[0]
    return 1.0 - miss, cost, disjunctive


def extract_features(
    index,
    query: Query,
    k: int,
    scored: bool = False,
    constants: CostConstants = DEFAULT_CONSTANTS,
) -> PlanFeatures:
    """Read the planning statistics for one prepared query.

    Pure index-statistics work — one tree walk of posting-length lookups,
    no row is touched.  Works over anything implementing the index read
    protocol (including :class:`repro.sharding.ShardedIndex`, whose union
    posting views report the same global lengths as an unsharded index, so
    sharded and unsharded deployments plan identically).  A scored plan
    whose matches all score alike runs the unscored drivers
    (``run_algorithm``), so it is priced as unscored.
    """
    scored = scored and not query.uniform_score()
    rows = len(index)
    cardinalities: list = []
    selectivity, next_cost, disjunctive = _walk(
        query, index, rows, constants, cardinalities)
    est = rows * selectivity
    return PlanFeatures(
        rows=rows,
        est_matches=est,
        selectivity=(est / rows) if rows else 0.0,
        leaves=len(cardinalities),
        rarest_leaf=min(cardinalities) if cardinalities else 0,
        total_leaf_postings=sum(cardinalities),
        next_cost=next_cost,
        depth=index.depth,
        k=k,
        scored=scored,
        disjunctive=disjunctive,
    )


def _multq_issued(index, constants: CostConstants) -> float:
    """Sub-queries the rewrite baseline issues: one per value combination
    of the first rewrite levels (``MULTQ_DEFAULT_LEVELS``)."""
    from ..core.baselines import MULTQ_DEFAULT_LEVELS

    issued = 1.0
    ordering = index.ordering
    for attribute in list(ordering.attributes)[:MULTQ_DEFAULT_LEVELS]:
        issued *= max(1, len(index.vocabulary(attribute)))
    return issued


def algorithm_cost(
    algorithm: str,
    features: PlanFeatures,
    constants: CostConstants = DEFAULT_CONSTANTS,
    index=None,
) -> float:
    """Price one algorithm for one feature vector, in seek units.

    ``index`` is only needed for ``multq`` (vocabulary sizes); the other
    algorithms price from the features alone.
    """
    M = features.est_matches
    k = features.k
    d = max(1, features.depth)
    c = features.next_cost
    if features.scored:
        # Every scored next pays the WAND driver's per-leaf state work.
        c = c + features.leaves * constants.scored_leaf
    found = min(k, M)  # no algorithm can return more than matches exist

    if algorithm == "naive":
        cost = (M + 1.0) * c + M * d * constants.diversify_op
        if features.scored:
            cost += M * features.leaves * constants.scored_leaf
        return cost
    if algorithm == "basic":
        return (found + 1.0) * c
    if algorithm == "onepass":
        # The deeper into the tree the scan must descend to fill k slots,
        # the less its diversity skips prune: measured visit counts grow
        # from a few percent of the surplus at k~5 to essentially all of
        # it by k~skip_k, so the surplus fraction scales with k.
        skip_alpha = min(1.0, k / constants.skip_k)
        visits = found + skip_alpha * max(0.0, M - k)
        return (visits + 1.0) * (c + d * constants.tree_op)
    if algorithm == "probe":
        probes = 2.0 * found + 1.0
        cost = probes * (c + d * constants.probe_op)
        if features.scored:
            cost *= constants.scored_probe_pass
        return cost
    if algorithm == "multq":
        if index is None:
            raise ValueError("pricing multq needs the index (vocabulary sizes)")
        issued = _multq_issued(index, constants)
        return issued * (constants.multq_query + (found + 1.0) * c)
    raise ValueError(f"unknown algorithm {algorithm!r}; choose from {PRICEABLE}")


def estimate_costs(
    index,
    query: Query,
    k: int,
    scored: bool = False,
    algorithms: Sequence[str] = PRICEABLE,
    constants: CostConstants = DEFAULT_CONSTANTS,
    features: Optional[PlanFeatures] = None,
) -> Dict[str, float]:
    """Price several algorithms for one prepared query (``plan explain``)."""
    if features is None:
        features = extract_features(index, query, k, scored, constants)
    return {
        algorithm: algorithm_cost(algorithm, features, constants, index=index)
        for algorithm in algorithms
    }


def choose(
    index,
    query: Query,
    k: int,
    scored: bool = False,
    candidates: Optional[Sequence[str]] = None,
    constants: CostConstants = DEFAULT_CONSTANTS,
) -> PlanDecision:
    """Pick the cheapest candidate algorithm for one prepared query.

    ``candidates`` defaults to the diversity-preserving set
    (:data:`DEFAULT_CANDIDATES`); passing a single-element tuple forces
    that algorithm through the auto path (the differential tests use this
    to exercise auto against every fixed algorithm).  Deterministic given
    the query and the index statistics — exactly the property the serving
    layer's decision cache relies on.
    """
    chosen = DEFAULT_CANDIDATES if candidates is None else tuple(candidates)
    if not chosen:
        raise ValueError("auto needs at least one candidate algorithm")
    for algorithm in chosen:
        if algorithm not in PRICEABLE:
            raise ValueError(
                f"unknown candidate {algorithm!r}; choose from {PRICEABLE}"
            )
    features = extract_features(index, query, k, scored, constants)
    costs = estimate_costs(
        index, query, k, scored, algorithms=chosen,
        constants=constants, features=features,
    )
    best = min(chosen, key=lambda a: (costs[a], _PREFERENCE[a]))
    return PlanDecision(
        algorithm=best,
        k=k,
        scored=scored,
        epoch=index.epoch,
        costs=costs,
        features=features,
        candidates=chosen,
        reason="cost" if len(chosen) > 1 else "forced",
    )


def annotate_plan_stats(stats: Dict, decision: PlanDecision) -> Dict:
    """Fold one auto decision into its result's stats dict."""
    stats["algorithm_requested"] = "auto"
    stats["algorithm_selected"] = decision.algorithm
    stats["plan_reason"] = decision.reason
    stats["plan_epoch"] = decision.epoch
    for key, value in decision.features.as_stats().items():
        stats[key] = value
    for algorithm, cost in decision.costs.items():
        stats[f"plan_cost_{algorithm}"] = round(cost, 2)
    return stats


def render_explain(
    decision: PlanDecision,
    all_costs: Optional[Mapping[str, float]] = None,
) -> str:
    """Human-readable cost breakdown (the ``plan explain`` CLI output).

    ``all_costs`` may extend the table beyond the candidate set (the CLI
    prices every algorithm); non-candidates are marked excluded.
    """
    features = decision.features
    lines = [
        f"plan: {decision.algorithm} (auto, reason: {decision.reason})",
        f"epoch: {decision.epoch}   k: {decision.k}   "
        f"scored: {'yes' if decision.scored else 'no'}",
        "features:",
        f"  rows            {features.rows}",
        f"  est matches     {features.est_matches:.1f}",
        f"  selectivity     {features.selectivity:.4f}",
        f"  leaves          {features.leaves}"
        + (" (disjunctive)" if features.disjunctive else ""),
        f"  rarest leaf     {features.rarest_leaf}",
        f"  next cost       {features.next_cost:.2f} seek units",
        f"  tree depth      {features.depth}",
        "costs (seek units, lower wins):",
    ]
    table = dict(all_costs) if all_costs else dict(decision.costs)
    width = max(len(name) for name in table)
    for algorithm in sorted(table, key=lambda a: table[a]):
        marker = ""
        if algorithm == decision.algorithm:
            marker = "  <- selected"
        elif algorithm not in decision.candidates:
            marker = "  (excluded: not diversity-preserving)"
        lines.append(f"  {algorithm:<{width}}  {table[algorithm]:>12.1f}{marker}")
    return "\n".join(lines)
