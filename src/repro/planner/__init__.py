"""Cost-based algorithm selection (``algorithm="auto"``).

The paper's Figs. 5-8 show the best of naive/onepass/probe flips with
selectivity, k and scoring; this package prices each algorithm from index
statistics (:mod:`repro.planner.cost`).  The engines integrate it through
``DiversityEngine.plan`` / ``algorithm="auto"``; the serving layer memoises
decisions in the plan cache keyed by index epoch + k + scored.  The regret
races that score the planner against the oracle live with the benchmarks
(``benchmarks/paper/regret.py``).
"""

from .cost import (
    DEFAULT_CANDIDATES,
    DEFAULT_CONSTANTS,
    CostConstants,
    PlanDecision,
    PlanFeatures,
    algorithm_cost,
    annotate_plan_stats,
    choose,
    estimate_costs,
    extract_features,
    render_explain,
)

__all__ = [
    "CostConstants",
    "DEFAULT_CANDIDATES",
    "DEFAULT_CONSTANTS",
    "PlanDecision",
    "PlanFeatures",
    "algorithm_cost",
    "annotate_plan_stats",
    "choose",
    "estimate_costs",
    "extract_features",
    "render_explain",
]
