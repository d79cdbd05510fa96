"""Result-set quality diagnostics: the "diversity report card".

Given an answer and the query's full result set, the report measures what a
product owner would ask about a search page:

* per-level **distinct-value counts**: how many makes / models / colors the
  page shows, against how many the matching inventory offers;
* **balance violations**: prefixes where the answer is not a water-filling
  allocation (0 for any exact algorithm's output);
* the **pair objective**: the paper's raw ``SIM`` sum at each level.

Used by the examples and handy when tuning weighted or symmetric variants,
where "how diverse is this, really?" has no single yes/no answer.  It
lives beside the figure harness, not in the served package: no request
path reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.dewey import DeweyId
from repro.core.similarity import balance_violations, count_tree, pair_objective
from repro.index.dewey_index import DeweyIndex


@dataclass(frozen=True)
class LevelReport:
    """Diversity statistics for one Dewey level."""

    level: int
    attribute: str
    distinct_shown: int
    distinct_available: int
    pair_objective: int

    @property
    def coverage(self) -> float:
        """Fraction of the available distinct values represented."""
        if self.distinct_available == 0:
            return 1.0
        return self.distinct_shown / self.distinct_available


@dataclass(frozen=True)
class DiversityReport:
    """Full report card for one answer set."""

    size: int
    result_size: int
    violations: int
    levels: List[LevelReport]

    @property
    def is_exactly_diverse(self) -> bool:
        return self.violations == 0

    def render(self) -> str:
        lines = [
            f"answer size {self.size} of {self.result_size} matches; "
            f"balance violations: {self.violations}"
            + (" (exactly diverse)" if self.is_exactly_diverse else ""),
        ]
        for level in self.levels:
            lines.append(
                f"  level {level.level} ({level.attribute}): "
                f"{level.distinct_shown}/{level.distinct_available} distinct "
                f"values shown ({level.coverage:.0%}), "
                f"pair objective {level.pair_objective}"
            )
        return "\n".join(lines)


def diversity_report(
    selected: Iterable[DeweyId],
    result_set: Iterable[DeweyId],
    dewey_index: DeweyIndex,
) -> DiversityReport:
    """Build the report card for ``selected`` against the full results."""
    selected = list(selected)
    full = list(result_set)
    ordering = dewey_index.ordering
    chosen_counts = count_tree(selected)
    available_counts = count_tree(full)
    levels: List[LevelReport] = []
    for level in range(1, len(ordering) + 1):
        attribute = ordering.attribute_at(level)
        shown = {prefix for prefix in chosen_counts if len(prefix) == level}
        available = {prefix for prefix in available_counts if len(prefix) == level}
        # Pair objective at this level: pairs agreeing on the level's value
        # within each parent (the paper's SIM_rho sum for prefixes of
        # length level-1).
        objective = 0
        parents = {prefix[:-1] for prefix in shown}
        for parent in parents:
            child_counts = [
                count
                for prefix, count in chosen_counts.items()
                if len(prefix) == level and prefix[:-1] == parent
            ]
            objective += pair_objective(child_counts)
        levels.append(
            LevelReport(
                level=level,
                attribute=attribute,
                distinct_shown=len(shown),
                distinct_available=len(available),
                pair_objective=objective,
            )
        )
    return DiversityReport(
        size=len(selected),
        result_size=len(full),
        violations=balance_violations(selected, full) if selected else 0,
        levels=levels,
    )


def compare_reports(
    reports: Dict[str, DiversityReport]
) -> str:
    """Side-by-side coverage table for several answers (e.g. algorithms)."""
    if not reports:
        return "(no reports)"
    names = list(reports)
    first = reports[names[0]]
    header = ["level"] + names
    rows = []
    for index, level in enumerate(first.levels):
        row = [f"{level.attribute}"]
        for name in names:
            entry = reports[name].levels[index]
            row.append(f"{entry.distinct_shown}/{entry.distinct_available}")
        rows.append(row)
    rows.append(
        ["violations"] + [str(reports[name].violations) for name in names]
    )
    widths = [
        max(len(header[c]), *(len(row[c]) for row in rows))
        for c in range(len(header))
    ]
    lines = ["  ".join(header[c].ljust(widths[c]) for c in range(len(header)))]
    lines.append("  ".join("-" * widths[c] for c in range(len(header))))
    for row in rows:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in range(len(header))))
    return "\n".join(lines)
