"""Mixed-workload definitions for the auto-selection regret harness.

One place defines the regimes; two consumers race them:

* ``tests/test_autoselect_oracle.py`` — small-scale gate (auto total
  wall-clock within 1.05x of the best single fixed algorithm);
* ``benchmarks/bench_autoselect.py`` — full-scale report emitting
  ``BENCH_autoselect.json`` with per-workload regret and win/loss tables.

The mix is deliberately adversarial to any *fixed* choice: match-all
low-k workloads (probe's home turf, paper Figs. 5-6), narrow big-k
workloads (where the 2k+1 probes lose to a short scan, the Fig. 7-8
crossover), scored variants, disjunctive auction queries, and a
Zipf-repeated pool.  A planner only earns its keep if no single
hard-coded algorithm can match it across the whole mix.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.engine import DiversityEngine
from repro.data.auctions import auctions_ordering, generate_auctions
from repro.data.autos import autos_ordering, generate_autos
from repro.data.workload import WorkloadGenerator, WorkloadSpec

from .regret import RegretReport, measure_regret, total_regret

#: (name, dataset, spec overrides, k, scored) — ``queries`` is filled in by
#: the caller so the test and the benchmark can run the same mix at
#: different scales.
WORKLOAD_MIX = (
    # Probe regime: match-all, tiny k (Figs. 5-6 left edge).
    ("autos-matchall", "autos",
     dict(predicates=0, selectivity=1.0), 5, False),
    # Scan regime: narrow conjunctions, big k (the Figs. 7-8 crossover).
    ("autos-narrow-bigk", "autos",
     dict(predicates=2, selectivity=0.2), 40, False),
    # Scored: probe pays its two-pass factor, shifting the crossover.
    ("autos-scored", "autos",
     dict(predicates=1, selectivity=0.5, weighted=True), 10, True),
    # Disjunctive auction queries: OR estimates, different leaf shapes.
    ("auctions-disjunctive", "auctions",
     dict(predicates=2, selectivity=0.4, disjunctive=True), 10, False),
    # Zipf-repeated pool: the serving-traffic shape (popular queries recur).
    ("auctions-zipf", "auctions",
     dict(predicates=1, selectivity=0.5, distinct=12, zipf_s=1.1), 10, False),
)


def mixed_workloads(
    rows: int = 5000,
    queries: int = 40,
    seed: int = 1,
) -> List[Dict]:
    """Materialise the standard mix: engines built once per dataset.

    Returns a list of dicts ``{name, engine, queries, k, scored}`` ready
    for :func:`paper.regret.measure_regret`.
    """
    if rows < 1 or queries < 1:
        raise ValueError("rows and queries must be positive")
    autos = generate_autos(rows=rows, seed=seed)
    auctions = generate_auctions(rows=rows, seed=seed)
    engines = {
        "autos": DiversityEngine.from_relation(autos, autos_ordering()),
        "auctions": DiversityEngine.from_relation(auctions, auctions_ordering()),
    }
    relations = {"autos": autos, "auctions": auctions}
    workloads = []
    for name, dataset, overrides, k, scored in WORKLOAD_MIX:
        if name == "autos-narrow-bigk":
            # Keep this workload on the scan side of the Figs. 7-8
            # crossover at any bench scale: two predicates at 0.2
            # selectivity match ~4% of rows, so a k tracking 5% of rows
            # keeps the 2k+1 probe bound overshooting the scan length.
            k = min(2000, max(40, int(rows * 0.05)))
        spec = WorkloadSpec(queries=queries, k=k, seed=seed, **overrides)
        generator = WorkloadGenerator(relations[dataset], spec)
        workloads.append({
            "name": name,
            "engine": engines[dataset],
            "queries": generator.materialise(),
            "k": k,
            "scored": scored,
        })
    return workloads


def race_mix(
    workloads: Sequence[Dict],
    repeats: int = 3,
    registry=None,
) -> List[RegretReport]:
    """Run the regret harness over every workload in the mix."""
    return [
        measure_regret(
            w["engine"], w["queries"], w["k"], scored=w["scored"],
            repeats=repeats, name=w["name"], registry=registry,
        )
        for w in workloads
    ]


def summarise(reports: Sequence[RegretReport]) -> Dict:
    """The benchmark report body: per-workload tables + aggregate verdict."""
    summary = total_regret(reports)
    choices: Dict[str, int] = {}
    wins = 0
    races = 0
    for report in reports:
        for algorithm, count in report.choices.items():
            choices[algorithm] = choices.get(algorithm, 0) + count
        for won in report.wins_against().values():
            races += 1
            wins += int(won)
    return {
        "workloads": [report.as_dict() for report in reports],
        "total": summary,
        "choices_total": dict(sorted(choices.items())),
        "races": races,
        "wins": wins,
    }
