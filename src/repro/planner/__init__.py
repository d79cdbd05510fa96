"""Cost-based algorithm selection (``algorithm="auto"``).

Theorem 2 bounds probe at ``2k+1`` probes whatever the match count, while
naive reads every match, so auto is a choice between the two; this
package prices both from index statistics (:mod:`repro.planner.cost`).
The engines integrate it through ``DiversityEngine.plan`` /
``algorithm="auto"``; the serving layer memoises decisions in the plan
cache keyed by index epoch + k + scored.  The regret races that score the
planner against the oracle live with the benchmarks
(``benchmarks/paper/regret.py``).
"""

from .cost import (
    DEFAULT_CANDIDATES,
    PlanDecision,
    PlanFeatures,
    annotate_plan_stats,
    choose,
    extract_features,
    price,
    render_explain,
)

__all__ = [
    "DEFAULT_CANDIDATES",
    "PlanDecision",
    "PlanFeatures",
    "annotate_plan_stats",
    "choose",
    "extract_features",
    "price",
    "render_explain",
]
