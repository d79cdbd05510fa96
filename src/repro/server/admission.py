"""Deadline-aware admission control and load shedding for the HTTP front-end.

The serving engine is CPU-bound pure Python: under overload, an unbounded
queue turns every request into a deadline miss (queue collapse — everyone
waits, everyone times out, throughput goes to zero useful work).  The
controller here keeps the queue *short and honest* instead:

* **Pricing.**  Every request that has to *run* is priced before
  admission with the planner's cost model (PR 7): the same seek-unit
  estimate that picks the cheapest algorithm also tells the queue how much
  work it is being asked to hold (a result-cache hit is answered by the
  router and never comes here: the EWMA learns from executions only).
  Theorem 2 is what makes this workable — probe answers any admitted
  query in at most ``2k+1`` probes regardless of how many rows match, so
  per-query cost is predictable enough to schedule against.
* **Deadline-aware admission.**  The controller tracks an EWMA of observed
  milliseconds per seek unit.  At arrival, the projected wait (work queued
  and in flight, over the worker count) plus the request's own estimated
  service time is compared against the request's deadline: a request that
  cannot finish in time is rejected *on arrival* with ``429`` and a
  ``Retry-After`` — in O(1), before it costs the engine anything.
* **Load shedding.**  When the queue is full, the controller sheds
  **cheapest-to-reject first**: a queued request whose deadline has already
  expired is shed before anything else (rejecting it costs nothing — it
  can no longer succeed), otherwise the single most expensive request in
  ``queued ∪ {newcomer}`` is shed (one rejection frees the most queue
  capacity, so sustained overload is absorbed with the fewest rejections).
  A request that has *started executing* is never shed — answers are never
  truncated mid-execution, so every admitted query still gets the full
  Definitions 1–2 answer (docs/paper_mapping.md).

The controller is event-loop confined: every method is called from the
server's asyncio loop (handlers, workers, drain), so there are no locks —
the engine executor threads never touch it.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Callable, Deque, Optional, Union

from ..observability import MONOTONIC, Clock

#: Admission rejection reasons (the ``reason`` label on the shed counter).
REASON_DEADLINE = "deadline_unmeetable"
REASON_OVERLOAD = "overload"
REASON_SHED = "shed_overload"
REASON_DRAINING = "draining"


class Rejection(Exception):
    """A request the front-end refused (before any execution).

    Carries the wire mapping: ``status`` (429 for per-request reasons the
    caller can fix by retrying later or relaxing the deadline, 503 for
    server-wide overload/drain) plus the ``Retry-After`` hint.
    """

    def __init__(self, status: int, reason: str, retry_after_ms: float,
                 message: Optional[str] = None):
        self.status = status
        self.reason = reason
        self.retry_after_ms = retry_after_ms
        super().__init__(
            message or f"request rejected ({reason}); "
                       f"retry after {retry_after_ms:.0f} ms"
        )


class Ticket:
    """One admitted request's place in line.

    ``work`` runs on an executor thread once a worker picks the ticket up;
    ``future`` resolves with the work's outcome (or a :class:`Rejection`
    if the ticket is shed while still queued).
    """

    __slots__ = ("cost", "deadline_ms", "enqueued_at", "started_at",
                 "state", "work", "future", "label")

    def __init__(self, cost: float, deadline_ms: Optional[float],
                 enqueued_at: float, work: Callable, label: str):
        self.cost = cost
        self.deadline_ms = deadline_ms
        self.enqueued_at = enqueued_at
        self.started_at: Optional[float] = None
        self.state = "queued"          # queued -> running | shed
        self.work = work
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.label = label

    def queue_ms(self, now: float) -> float:
        return (now - self.enqueued_at) * 1000.0

    def deadline_expired(self, now: float) -> bool:
        return (self.deadline_ms is not None
                and self.queue_ms(now) >= self.deadline_ms)


class AdmissionController:
    """Bounded request queue with deadline-aware admission (see module doc).

    The **seek unit** is the planner's currency (one positioned posting
    lookup); ``ms_per_unit`` is learned online from completed requests via
    EWMA, seeded with ``initial_ms_per_unit`` so the very first requests
    have a sane projection.
    """

    def __init__(
        self,
        queue_depth: int = 64,
        workers: int = 1,
        initial_ms_per_unit: float = 0.02,
        rate_alpha: float = 0.2,
        clock: Clock = MONOTONIC,
        registry=None,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        if not 0.0 < rate_alpha <= 1.0:
            raise ValueError("rate_alpha must be in (0, 1]")
        if initial_ms_per_unit <= 0.0:
            raise ValueError("initial_ms_per_unit must be positive")
        self.queue_depth = queue_depth
        self.workers = workers
        self.ms_per_unit = initial_ms_per_unit
        self._alpha = rate_alpha
        self._clock = clock
        self._queue: Deque[Ticket] = deque()
        self._queued_units = 0.0
        self._inflight = 0
        self._inflight_units = 0.0
        self._available = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        # Lifetime tallies (exact; the registry gauges mirror them).
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.completed = 0
        self._registry = registry
        self._depth_gauge = None
        self._inflight_gauge = None
        if registry is not None and registry.enabled:
            self._depth_gauge = registry.gauge(
                "repro_http_queue_depth", "Requests waiting for a worker")
            self._inflight_gauge = registry.gauge(
                "repro_http_inflight", "Requests executing on the engine")

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def projected_wait_ms(self, extra_units: float = 0.0) -> float:
        """Estimated queue wait for work arriving now, in milliseconds."""
        pending = self._inflight_units + self._queued_units + extra_units
        return pending * self.ms_per_unit / self.workers

    def estimated_service_ms(self, cost: float) -> float:
        return cost * self.ms_per_unit

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def inflight(self) -> int:
        return self._inflight

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, cost: float, deadline_ms: Optional[float],
               work: Callable, label: str = "") -> Ticket:
        """Admit one priced request, or raise :class:`Rejection`.

        Admission order of battle: drain check, deadline feasibility,
        queue capacity (with cheapest-to-reject shedding).  All O(queue)
        worst case, no engine work — the fast-reject property the
        overload benchmark measures.
        """
        if self._draining:
            self.rejected += 1
            raise Rejection(503, REASON_DRAINING, 1000.0,
                            "server is draining; connection will close")
        wait_ms = self.projected_wait_ms()
        service_ms = self.estimated_service_ms(cost)
        if deadline_ms is not None and wait_ms + service_ms > deadline_ms:
            self.rejected += 1
            raise Rejection(
                429, REASON_DEADLINE,
                max(1.0, wait_ms + service_ms - deadline_ms),
                f"projected wait {wait_ms:.1f} ms + service "
                f"{service_ms:.1f} ms exceeds deadline {deadline_ms:g} ms",
            )
        now = self._clock()
        if len(self._queue) >= self.queue_depth:
            victim = self._pick_victim(cost)
            if victim is None:
                # The newcomer is the cheapest to reject.
                self.rejected += 1
                raise Rejection(503, REASON_OVERLOAD, max(1.0, wait_ms),
                                f"queue full ({self.queue_depth} deep)")
            self._shed(victim, now)
        ticket = Ticket(cost, deadline_ms, now, work, label)
        self._queue.append(ticket)
        self._queued_units += cost
        self.admitted += 1
        self._idle.clear()
        self._available.set()
        self._publish_depth()
        return ticket

    def _pick_victim(self, newcomer_cost: float) -> Optional[Ticket]:
        """The queued ticket to shed, or ``None`` to reject the newcomer.

        Cheapest-to-reject first: a queued request whose deadline already
        expired is a free rejection (it cannot succeed); otherwise the
        most expensive request across ``queued ∪ {newcomer}`` goes —
        fewest rejections per unit of load shed.  Running tickets are
        never candidates.
        """
        now = self._clock()
        costliest: Optional[Ticket] = None
        for ticket in self._queue:
            if ticket.deadline_expired(now):
                return ticket
            if costliest is None or ticket.cost > costliest.cost:
                costliest = ticket
        if costliest is not None and costliest.cost > newcomer_cost:
            return costliest
        return None

    def _shed(self, ticket: Ticket, now: float) -> None:
        # Out of the queue at once, so its length is the live depth: the
        # bound, the gauge and the idle check read it without a scan.
        self._queue.remove(ticket)
        ticket.state = "shed"
        self._queued_units -= ticket.cost
        self.shed += 1
        if not ticket.future.done():
            ticket.future.set_exception(Rejection(
                503, REASON_SHED,
                max(1.0, self.projected_wait_ms()),
                "shed under overload while queued",
            ))
        self._publish_depth()
        self._check_idle()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    async def next_ticket(self) -> Ticket:
        """Block until a queued ticket is available; claim it."""
        while not self._queue:
            self._available.clear()
            await self._available.wait()
        ticket = self._queue.popleft()
        ticket.state = "running"
        ticket.started_at = self._clock()
        self._queued_units -= ticket.cost
        self._inflight += 1
        self._inflight_units += ticket.cost
        self._publish_depth()
        return ticket

    def finish(self, ticket: Ticket, service_ms: float) -> None:
        """Record one execution's end; negative ``service_ms`` skips the
        rate update (the worker refused to execute an expired ticket)."""
        self._inflight -= 1
        self._inflight_units -= ticket.cost
        self.completed += 1
        if service_ms >= 0.0 and ticket.cost > 0.0:
            sample = service_ms / ticket.cost
            self.ms_per_unit = (
                self._alpha * sample + (1.0 - self._alpha) * self.ms_per_unit
            )
        self._publish_depth()
        self._check_idle()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def start_draining(self) -> None:
        """Refuse all new work; already-admitted tickets still execute."""
        self._draining = True
        self._check_idle()

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_idle(self) -> None:
        """Resolve once nothing is queued or in flight (drain barrier)."""
        await self._idle.wait()

    def _check_idle(self) -> None:
        if self._inflight == 0 and not self._queue:
            self._idle.set()

    def _publish_depth(self) -> None:
        if self._depth_gauge is not None:
            self._depth_gauge.set(len(self._queue))
            self._inflight_gauge.set(self._inflight)
