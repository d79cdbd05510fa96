"""The query resilience policy: deadlines, retries, backoff, breaker knobs.

A :class:`ResiliencePolicy` is a frozen bundle of budgets the sharded
engine applies to every query: how long a query may take end to end
(``deadline_ms``), how often a transient shard failure is retried
(``max_retries``) and at what exponentially growing, jittered pace
(``backoff_*``, ``jitter``), and when a persistently failing shard trips
its circuit breaker (``breaker_*``).  The policy itself is stateless and
shareable; per-shard state (breakers, health counters) lives in
:mod:`repro.resilience.health`.

:class:`Deadline` is the running countdown for one query — created at
admission, consulted before every shard call and between retries.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-query failure-handling budgets for the sharded fan-out."""

    deadline_ms: Optional[float] = None   # end-to-end budget; None = unbounded
    max_retries: int = 2                  # retries per task on transient faults
    backoff_base_ms: float = 1.0          # first retry delay
    backoff_multiplier: float = 2.0       # growth per retry
    backoff_cap_ms: float = 50.0          # delay ceiling
    jitter: float = 0.5                   # fraction of the delay randomised
    breaker_threshold: float = 0.5        # failure rate that opens the circuit
    breaker_window: int = 8               # outcomes in the sliding window
    breaker_min_calls: int = 4            # calls before the rate is trusted
    breaker_cooldown_ms: float = 1000.0   # open -> half-open delay
    seed: int = 0                         # jitter RNG seed (determinism)

    def __post_init__(self):
        if self.deadline_ms is not None and not self.deadline_ms > 0:  # NaN too
            raise ValueError("deadline_ms must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_ms < 0 or self.backoff_cap_ms < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError("breaker_threshold must be in (0, 1]")
        if self.breaker_window < 1 or self.breaker_min_calls < 1:
            raise ValueError("breaker window/min_calls must be positive")
        if self.breaker_cooldown_ms < 0:
            raise ValueError("breaker_cooldown_ms must be non-negative")

    def backoff_ms(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before retry ``attempt`` (1-based), jittered when ``rng`` given.

        Exponential with a cap: ``base * multiplier**(attempt-1)``, then up
        to ``jitter`` of it replaced by a uniform draw so synchronized
        retries from many queries spread out instead of thundering.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(
            self.backoff_base_ms * self.backoff_multiplier ** (attempt - 1),
            self.backoff_cap_ms,
        )
        if rng is not None and self.jitter > 0.0:
            delay = delay * (1.0 - self.jitter) + delay * self.jitter * rng.random()
        return delay


#: The engine's default when no policy is supplied: no deadline, a couple of
#: fast retries, standard breaker. Chosen so a fault-free deployment behaves
#: exactly like pre-resilience code, just with typed errors.
DEFAULT_POLICY = ResiliencePolicy()


class Deadline:
    """A monotonic countdown for one query's time budget."""

    __slots__ = ("deadline_ms", "_clock", "_started")

    def __init__(self, deadline_ms: Optional[float],
                 clock: Callable[[], float] = time.monotonic):
        if deadline_ms is not None and not deadline_ms > 0:  # NaN too
            raise ValueError("deadline_ms must be positive (or None)")
        self.deadline_ms = deadline_ms
        self._clock = clock
        self._started = clock()

    @classmethod
    def unbounded(cls) -> "Deadline":
        return cls(None)

    def elapsed_ms(self) -> float:
        return (self._clock() - self._started) * 1000.0

    def remaining_ms(self) -> float:
        """Milliseconds left (``inf`` when unbounded, clamped at 0)."""
        if self.deadline_ms is None:
            return math.inf
        return max(0.0, self.deadline_ms - self.elapsed_ms())

    def expired(self) -> bool:
        return self.remaining_ms() <= 0.0

    def __repr__(self) -> str:
        if self.deadline_ms is None:
            return "Deadline(unbounded)"
        return f"Deadline({self.remaining_ms():.1f} of {self.deadline_ms:g} ms left)"
