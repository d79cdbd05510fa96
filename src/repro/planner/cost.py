"""The cost model behind ``algorithm="auto"``.

Theorem 2 bounds probe at ``2k+1`` ``next`` calls whatever |RES(R, Q)|
is, while naive reads every match, so auto makes one decision with
content: the estimated match count against k.  Both are priced from
posting-list lengths and :mod:`repro.query.estimate`'s independence
estimates, in **seek units** (one positioned lookup into one posting
list).  With ``M`` = estimated matches, ``d`` = diversity-tree depth and
``c`` = seek units per merged ``next``:

* ``probe`` -- ``2·min(k,M)+1`` probes, each one next plus per-level
  probe-region bookkeeping.  Independent of ``M``.
* ``naive`` -- ``(M+1)·c`` to evaluate, plus ``M·d`` cheap dict operations
  for the exact diverse selection over all matches.

A scored next pays a per-leaf WAND surcharge; scored naive also scores
every match, and scored probing pays its extra threshold passes.  The
other algorithms are never auto candidates, but admission prices any named
one (:func:`price`): ``basic`` reads O(k) like probe, ``onepass`` and
``multq`` scan |RES| like naive.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..query.estimate import leaf_cardinality
from ..query.query import AND, LEAF, OR, Query

#: Auto's candidates; a tie goes to the first listed, probe.
DEFAULT_CANDIDATES = ("probe", "naive")

SEEK_LOG = 0.12           # marginal bisect cost per doubling of a list
AND_ROUNDS = 1.6          # mean leapfrog rounds per AND next
PROBE_OP = 1.2            # probe-region bookkeeping per probe, per level
DIVERSIFY_OP = 0.08       # naive post-selection per match, per level
SCORED_LEAF = 0.9         # per-leaf WAND surcharge per scored next
SCORED_PROBE_PASS = 2.0   # scored probing's extra threshold passes


class PlanFeatures(NamedTuple):
    """The feature vector the cost model prices from.  A named tuple: a
    frozen dataclass's per-field ``object.__setattr__`` was a fifth of a
    match-all query's planning."""

    rows: int                 # |R|: live indexed tuples
    est_matches: float        # estimated match count (exact for leaves)
    selectivity: float        # est_matches / rows (0 when the index is empty)
    leaves: int               # leaf predicates in the tree
    rarest_leaf: int          # smallest exact leaf cardinality
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
    """One planning verdict: the chosen algorithm plus its evidence,
    stamped with the index ``epoch`` its statistics were read at (the
    serving layer's decision cache re-plans when the epoch moves)."""

    algorithm: str
    k: int
    scored: bool
    epoch: int
    costs: Mapping[str, float]          # candidate -> seek units
    features: PlanFeatures
    reason: str = "cost"                # "cost" | "forced" | "stats unavailable"


def _walk(query: Query, index, total: int,
          cardinalities: list) -> Tuple[float, float, bool]:
    """``(selectivity, next_cost, disjunctive)`` in one walk, appending
    each leaf's exact cardinality.  Selectivity as in ``estimate_selectivity``;
    ``next_cost`` is one merged ``next`` in seek units: a seek per list a leaf
    reads (a keyword leaf ANDs its tokens) plus a log bisect surcharge, times
    ~``AND_ROUNDS`` leapfrog rounds under an AND, summed under an OR."""
    if query.kind == LEAF:
        cardinality = leaf_cardinality(query, index)
        cardinalities.append(cardinality)
        predicate = query.predicate
        terms = getattr(predicate, "terms", None)
        cost = 0.0
        for length in ([len(index.token_postings(predicate.attribute, token))
                        for token in terms] if terms else (cardinality,)):
            cost += 1.0 + SEEK_LOG * math.log2(1.0 + length)
        return (min(1.0, cardinality / total) if total else 0.0), cost, False
    parts = [_walk(child, index, total, cardinalities)
             for child in query.children]
    cost = sum(part[1] for part in parts)
    disjunctive = query.kind == OR or any(part[2] for part in parts)
    if query.kind == AND:
        selectivity = 1.0
        for part in parts:
            selectivity *= part[0]
        if len(parts) > 1:
            cost = AND_ROUNDS * cost
        return selectivity, cost, disjunctive
    miss = 1.0
    for part in parts:
        miss *= 1.0 - part[0]
    return 1.0 - miss, cost, disjunctive


def extract_features(index, query: Query, k: int,
                     scored: bool = False) -> PlanFeatures:
    """Read the planning statistics for one prepared query: one tree walk
    of posting-length lookups, no row touched.  A sharded index's union
    views report global lengths, so sharded and unsharded deployments plan
    identically.  A scored plan whose matches all score alike runs the
    unscored drivers (``run_algorithm``), so it is priced as unscored.
    """
    scored = scored and not query.uniform_score()
    rows = len(index)
    cardinalities: list = []
    selectivity, next_cost, disjunctive = _walk(query, index, rows, cardinalities)
    est = rows * selectivity
    return PlanFeatures(
        rows=rows,
        est_matches=est,
        selectivity=(est / rows) if rows else 0.0,
        leaves=len(cardinalities),
        rarest_leaf=min(cardinalities) if cardinalities else 0,
        next_cost=next_cost,
        depth=index.depth,
        k=k,
        scored=scored,
        disjunctive=disjunctive,
    )


def _next_cost(features: PlanFeatures) -> float:
    if features.scored:  # the WAND driver's per-leaf state work
        return features.next_cost + features.leaves * SCORED_LEAF
    return features.next_cost


def _probe_cost(features: PlanFeatures) -> float:
    probes = 2.0 * min(features.k, features.est_matches) + 1.0
    cost = probes * (_next_cost(features) + max(1, features.depth) * PROBE_OP)
    return cost * SCORED_PROBE_PASS if features.scored else cost


def _naive_cost(features: PlanFeatures) -> float:
    matches = features.est_matches
    cost = ((matches + 1.0) * _next_cost(features)
            + matches * max(1, features.depth) * DIVERSIFY_OP)
    if features.scored:
        cost += matches * features.leaves * SCORED_LEAF
    return cost


#: Each algorithm priced by the formula of its access pattern.
_FORMULAS = {
    "probe": _probe_cost, "basic": _probe_cost,
    "naive": _naive_cost, "onepass": _naive_cost, "multq": _naive_cost,
}


def price(algorithm: str, features: PlanFeatures) -> float:
    """Seek units one run of ``algorithm`` costs for ``features``: probe's
    formula for the algorithms that read O(k) (probe, basic), naive's for
    those that scan |RES| (naive, onepass, multq)."""
    formula = _FORMULAS.get(algorithm)
    if formula is None:
        raise ValueError(
            f"unknown candidate {algorithm!r}; choose from {tuple(_FORMULAS)}")
    return formula(features)


def choose(index, query: Query, k: int, scored: bool = False,
           candidates: Optional[Sequence[str]] = None) -> PlanDecision:
    """Pick the cheapest candidate algorithm for one prepared query.

    ``candidates`` defaults to :data:`DEFAULT_CANDIDATES`; a one-element
    tuple forces that algorithm through the auto path (admission prices a
    named algorithm this way).  Deterministic given the query and the
    index statistics, which the serving layer's decision cache relies on.
    """
    chosen = DEFAULT_CANDIDATES if candidates is None else tuple(candidates)
    if not chosen:
        raise ValueError("auto needs at least one candidate algorithm")
    features = extract_features(index, query, k, scored)
    costs = {algorithm: price(algorithm, features) for algorithm in chosen}
    return PlanDecision(
        algorithm=min(chosen, key=costs.__getitem__),
        k=k,
        scored=scored,
        epoch=index.epoch,
        costs=costs,
        features=features,
        reason="cost" if len(chosen) > 1 else "forced",
    )


def annotate_plan_stats(stats: Dict, decision: PlanDecision) -> Dict:
    """Fold one auto decision into its result's stats dict."""
    stats["algorithm_requested"] = "auto"
    stats["algorithm_selected"] = decision.algorithm
    stats["plan_reason"] = decision.reason
    stats["plan_epoch"] = decision.epoch
    stats.update(decision.features.as_stats())
    for algorithm, cost in decision.costs.items():
        stats[f"plan_cost_{algorithm}"] = round(cost, 2)
    return stats


def render_explain(decision: PlanDecision, named: Optional[str] = None) -> str:
    """The ``plan explain`` output: features and the candidates' prices,
    plus a row for a ``named`` algorithm that is not a candidate."""
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
    costs = decision.costs
    width = max(len(name) for name in (*costs, named or ""))
    for algorithm in sorted(costs, key=costs.__getitem__):
        marker = "  <- selected" if algorithm == decision.algorithm else ""
        lines.append(f"  {algorithm:<{width}}  {costs[algorithm]:>12.1f}{marker}")
    if named is not None and named not in costs:
        lines.append(f"  {named:<{width}}  {price(named, features):>12.1f}"
                     "  (named; not an auto candidate)")
    return "\n".join(lines)
