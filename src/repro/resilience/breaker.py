"""A per-shard circuit breaker: closed -> open -> half-open -> closed.

Classic three-state breaker over a sliding window of recent call outcomes:

* **closed** — calls flow; outcomes are recorded.  When the window holds at
  least ``min_calls`` outcomes and the failure rate reaches ``threshold``,
  the breaker *opens*.
* **open** — calls are rejected outright (the shard is presumed down, so
  the fan-out skips it instead of burning its deadline).  After
  ``cooldown_ms`` the breaker moves to *half-open*.
* **half-open** — exactly one trial call is admitted.  Success closes the
  breaker (window cleared); failure re-opens it for another cooldown.

The clock is injectable so tests drive state transitions without sleeping.
Thread-safe: the sharded fan-out consults breakers from pool threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque

from ..observability import get_registry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


def _count_transition(to_state: str) -> None:
    get_registry().counter(
        "repro_breaker_transitions_total",
        "Circuit breaker state transitions, by destination state",
        to=to_state,
    ).inc()


class CircuitBreaker:
    """Failure-rate breaker over a sliding outcome window."""

    def __init__(
        self,
        threshold: float = 0.5,
        window: int = 8,
        min_calls: int = 4,
        cooldown_ms: float = 1000.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if window < 1 or min_calls < 1:
            raise ValueError("window and min_calls must be positive")
        if cooldown_ms < 0:
            raise ValueError("cooldown_ms must be non-negative")
        self._threshold = threshold
        self._window = window
        self._min_calls = min_calls
        self._cooldown_ms = cooldown_ms
        self._clock = clock
        self._lock = threading.Lock()
        self._outcomes: Deque[bool] = deque(maxlen=window)  # True = success
        self._state = CLOSED
        self._opened_at = 0.0
        self._probing = False       # a half-open trial is in flight
        self.opens = 0              # cumulative open transitions

    @classmethod
    def from_policy(cls, policy, clock) -> "CircuitBreaker":
        """A breaker with a :class:`ResiliencePolicy`'s ``breaker_*`` knobs."""
        return cls(
            threshold=policy.breaker_threshold,
            window=policy.breaker_window,
            min_calls=policy.breaker_min_calls,
            cooldown_ms=policy.breaker_cooldown_ms,
            clock=clock,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == OPEN:
            elapsed_ms = (self._clock() - self._opened_at) * 1000.0
            if elapsed_ms >= self._cooldown_ms:
                self._state = HALF_OPEN
                self._probing = False
                _count_transition(HALF_OPEN)
        return self._state

    @property
    def failure_rate(self) -> float:
        with self._lock:
            if not self._outcomes:
                return 0.0
            return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open admits one trial.)"""
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    # ------------------------------------------------------------------
    # Outcome recording
    # ------------------------------------------------------------------
    def record_success(self) -> None:
        self.record_successes(1)

    def record_successes(self, count: int) -> None:
        """``count`` successes of one admitted phase at once: the window
        ends up exactly as ``count`` :meth:`record_success` calls leave it.
        Zero: the admission went unused — a half-open trial is handed back."""
        with self._lock:
            state = self._state_locked()
            if state == HALF_OPEN:
                self._probing = False
                if not count:
                    return
                # The trial call came back healthy: fully close.
                self._state = CLOSED
                self._outcomes.clear()
                _count_transition(CLOSED)
                count -= 1
            self._outcomes.extend([True] * count)

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state == OPEN:
                # A stale outcome (the call was admitted before the trip, or
                # reached the shard through a path that bypassed ``allow``).
                # Re-tripping here would reset the cooldown and bump
                # ``opens`` once per caller — a steadily failing shard with
                # a steady query stream would then stay open forever and
                # never reach its half-open trial.  Open already presumes
                # failure; drop the observation.
                return
            if state == HALF_OPEN:
                self._trip_locked()
                return
            self._outcomes.append(False)
            if len(self._outcomes) >= self._min_calls:
                failures = sum(1 for ok in self._outcomes if not ok)
                if failures / len(self._outcomes) >= self._threshold:
                    self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._probing = False
        self._outcomes.clear()
        self.opens += 1
        _count_transition(OPEN)

    def reset(self) -> None:
        """Force-close (administrative reset; counters are kept)."""
        with self._lock:
            self._state = CLOSED
            self._outcomes.clear()
            self._probing = False

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, rate={self.failure_rate:.2f}, "
            f"opens={self.opens})"
        )
