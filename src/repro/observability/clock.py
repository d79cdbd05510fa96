"""One injectable clock for the whole stack.

Before this module, the serving layer timed batches with
``time.perf_counter()`` while resilience deadlines and circuit-breaker
cooldowns counted ``time.monotonic()`` — two timelines that can disagree,
and neither fakeable without monkeypatching.  Everything now defaults to
:data:`MONOTONIC` (``time.monotonic``: deadlines and latencies are wall
intervals, and a single timeline keeps "time spent" and "time left"
commensurable) and accepts a ``clock`` argument, so failure tests drive a
:class:`FakeClock` end to end — through ``Deadline``, ``CircuitBreaker``
cooldowns, backoff sleeps and batch timings — without sleeping for real.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

Clock = Callable[[], float]

#: The stack-wide default timeline.
MONOTONIC: Clock = time.monotonic


class FakeClock:
    """A manually advanced clock (seconds) whose ``sleep`` costs no time.

    Pass ``fake`` as the ``clock=`` of engines/deadlines/breakers and
    ``fake.sleep`` wherever a sleeper is injectable: backoff waits then
    advance the fake timeline instead of blocking the test.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("time only moves forward")
        with self._lock:
            self._now += seconds
            return self._now

    def advance_ms(self, milliseconds: float) -> float:
        return self.advance(milliseconds / 1000.0)

    def sleep(self, seconds: float) -> None:
        """Drop-in for ``time.sleep`` that advances the fake timeline."""
        if seconds > 0:
            self.advance(seconds)
