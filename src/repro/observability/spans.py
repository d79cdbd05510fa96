"""Lightweight structured spans: named, timed, nested sections of work.

A span brackets one pipeline stage — ``durability.snapshot``,
``durability.recover``, ``shard.scan``, ``shard.scatter`` — records its
wall duration into the registry's ``repro_span_duration_ms`` histogram
(labelled by span name), and keeps a bounded ring of recent finished
spans for ``snapshot()``.  The process pool's executor adds one record
per shard task it ran (``repro.parallel.executor``).
Nesting is tracked with a :mod:`contextvars` stack, so a span started
inside another (same thread/context) records its parent name — enough to
reconstruct the serving pipeline's shape without a tracing backend.

Usage::

    with span("shard.scan", algorithm="probe", k=10):
        ...work...

Overhead is a clock read, a record, and one histogram observe per span —
and near zero when the active registry is disabled.  Spans deliberately
time whole pipeline stages, never per-probe index calls; probe-level
visibility comes from the always-on counters in
:mod:`repro.observability.probes`.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

from .clock import MONOTONIC, Clock
from .metrics import MetricsRegistry, get_registry

SPAN_DURATION_METRIC = "repro_span_duration_ms"

_active_span: contextvars.ContextVar[Optional["SpanRecord"]] = (
    contextvars.ContextVar("repro_active_span", default=None))


@dataclass
class SpanRecord:
    """One span: the active one of its context while it runs
    (:func:`current_span`), then kept in the registry's ring buffer."""

    name: str
    duration_ms: float
    parent: Optional[str] = None
    status: str = "ok"              # "ok" | "error"
    fields: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 4),
            "status": self.status,
        }
        if self.parent:
            document["parent"] = self.parent
        if self.fields:
            document["fields"] = dict(self.fields)
        return document


@contextmanager
def span(name: str, registry: Optional[MetricsRegistry] = None,
         clock: Clock = MONOTONIC, **fields):
    """Time one named section of work; yields its :class:`SpanRecord`
    (``None`` on a disabled registry), recorded when the section ends.

    ``fields`` are free-form structured attributes (query text, k,
    algorithm, shard id, ...) carried on the finished record.  An
    exception inside the span marks it ``status="error"`` (and adds the
    error type) but is never swallowed.
    """
    if registry is None:
        registry = get_registry()
    if not registry.enabled:
        yield None
        return
    enclosing = _active_span.get()
    # The fields dict is shared with the record on the happy path (no
    # caller mutates it after exit); only the error path copies.
    record = SpanRecord(name, 0.0, enclosing.name if enclosing else None,
                        fields=fields)
    token = _active_span.set(record)
    started = clock()
    try:
        yield record
    except BaseException as exc:
        record.status = "error"
        record.fields = {**fields, "error": type(exc).__name__}
        raise
    finally:
        record.duration_ms = (clock() - started) * 1000.0
        _active_span.reset(token)
        registry.record_span(record)
        registry.histogram(
            SPAN_DURATION_METRIC,
            help="Wall duration of instrumented pipeline spans",
            span=name,
        ).observe(record.duration_ms)
        if record.status == "error":
            registry.counter(
                "repro_span_errors_total",
                help="Spans that exited with an exception",
                span=name,
            ).inc()


def current_span() -> Optional[SpanRecord]:
    """The record of this context's innermost active span, or ``None``."""
    return _active_span.get()
