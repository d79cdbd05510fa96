"""Execution tracing: watch how an algorithm touches the index.

Wrapping a :class:`~repro.index.merged.MergedList` in a
:class:`TracingMergedList` records every ``next`` / ``next_scored`` probe
(bound, direction, threshold, result) without changing behaviour.  The
trace makes the paper's efficiency arguments *visible*: one-pass traces
show monotonically increasing bounds with branch-sized gaps (the skips),
probing traces show at most 2k bidirectional probes.

Test-side only: the tests that pin down access patterns (the single-pass
property, lazy probing) wrap the lists they hand the drivers in it.  The
served counterpart is the always-on per-query accounting of
:mod:`repro.observability.probes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.dewey import LEFT, DeweyId, common_prefix_len, format_dewey
from repro.index.merged import MergedList


@dataclass(frozen=True)
class ProbeEvent:
    """One recorded index access."""

    kind: str                      # "next" | "next_scored" | "next_onepass"
    bound: DeweyId
    direction: str
    result: Optional[DeweyId]
    theta: Optional[float] = None

    def describe(self) -> str:
        suffix = f" theta={self.theta:g}" if self.theta is not None else ""
        result = format_dewey(self.result) if self.result else "NULL"
        return (
            f"{self.kind}({format_dewey(self.bound)}, {self.direction}"
            f"{suffix}) -> {result}"
        )


class TracingMergedList:
    """Drop-in MergedList wrapper that records every probe."""

    def __init__(self, merged: MergedList):
        self._merged = merged
        self.events: List[ProbeEvent] = []
        # Drivers bump this on the list they were handed (see
        # repro.observability.probes); give the wrapper its own slot so it
        # stays a drop-in for the always-on accounting too.
        self.skip_jumps = 0

    # -- delegated surface -------------------------------------------------
    @property
    def depth(self) -> int:
        return self._merged.depth

    @property
    def query(self):
        return self._merged.query

    @property
    def next_calls(self) -> int:
        return self._merged.next_calls

    @property
    def scored_next_calls(self) -> int:
        return self._merged.scored_next_calls

    @property
    def rows_touched(self) -> int:
        return self._merged.rows_touched

    @property
    def scan_restarts(self) -> int:
        return self._merged.scan_restarts

    def contains(self, dewey: DeweyId) -> bool:
        return self._merged.contains(dewey)

    def score(self, dewey: DeweyId) -> float:
        return self._merged.score(dewey)

    def max_score(self) -> float:
        return self._merged.max_score()

    def wand_states(self, *args):
        return self._merged.wand_states(*args)

    def wand_pivot(self, *args):
        return self._merged.wand_pivot(*args)

    def first(self) -> Optional[DeweyId]:
        return self.next((0,) * self.depth, LEFT)

    # -- recorded operations ------------------------------------------------
    def next(self, bound: DeweyId, direction: str = LEFT) -> Optional[DeweyId]:
        result = self._merged.next(bound, direction)
        self.events.append(ProbeEvent("next", bound, direction, result))
        return result

    def next_scored(self, bound, direction, theta, strict=False):
        result = self._merged.next_scored(bound, direction, theta, strict)
        self.events.append(
            ProbeEvent("next_scored", bound, direction, result, theta)
        )
        return result

    def next_onepass_scored(self, start, skip_id, min_score):
        step = self._merged.next_onepass_scored(start, skip_id, min_score)
        result = step[0] if step is not None else None
        self.events.append(
            ProbeEvent("next_onepass", start, LEFT, result, min_score)
        )
        return step

    # -- analysis -----------------------------------------------------------
    def render(self) -> str:
        """The trace as one line per probe."""
        return "\n".join(
            f"{index:4d}  {event.describe()}"
            for index, event in enumerate(self.events)
        )

    def probe_count(self) -> int:
        return len(self.events)

    def skip_levels(self) -> List[int]:
        """For consecutive LEFT probes, the Dewey level at which the scan
        jumped (0 = new top-level branch).  Large-level jumps are plain
        steps; small levels are the one-pass branch skips."""
        levels: List[int] = []
        previous: Optional[DeweyId] = None
        for event in self.events:
            if event.direction != LEFT or event.result is None:
                previous = None
                continue
            if previous is not None:
                levels.append(common_prefix_len(previous, event.result))
            previous = event.result
        return levels
