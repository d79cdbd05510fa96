"""Lightweight structured spans: named, timed, nested sections of work.

A span brackets one unit of serving work — ``serve.execute``,
``shard.scatter``, ``wal.append`` — records its wall duration into the
registry's ``repro_span_duration_ms`` histogram (labelled by span name),
and keeps a bounded ring of recent finished spans for ``snapshot()``.
Nesting is tracked with a :mod:`contextvars` stack, so a span started
inside another (same thread/context) records its parent name — enough to
reconstruct the serving pipeline's shape without a tracing backend.

Usage::

    with span("serve.execute", algorithm="probe", k=10):
        ...work...

Overhead is a clock read, a dict, and one histogram observe per span —
and near zero when the active registry is disabled.  Spans deliberately
time whole pipeline stages, never per-probe index calls; probe-level
visibility comes from the always-on counters in
:mod:`repro.observability.probes`.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from typing import Dict, Optional

from .clock import MONOTONIC, Clock
from .metrics import MetricsRegistry, get_registry

SPAN_DURATION_METRIC = "repro_span_duration_ms"

_active_span: contextvars.ContextVar[Optional["span"]] = contextvars.ContextVar(
    "repro_active_span", default=None
)


@dataclass
class SpanRecord:
    """One finished span, as kept in the registry's ring buffer."""

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


class span:
    """Context manager timing one named section of work.

    ``fields`` are free-form structured attributes (query text, k,
    algorithm, shard id, ...) carried on the finished record.  An
    exception inside the span marks it ``status="error"`` (and adds the
    error type) but is never swallowed.
    """

    __slots__ = ("name", "fields", "registry", "_clock", "_started",
                 "_token", "parent", "record")

    def __init__(
        self,
        name: str,
        registry: Optional[MetricsRegistry] = None,
        clock: Clock = MONOTONIC,
        **fields,
    ):
        self.name = name
        self.fields = fields
        self.registry = registry
        self._clock = clock
        self._started = 0.0
        self._token = None
        self.parent: Optional[str] = None
        self.record: Optional[SpanRecord] = None

    def __enter__(self) -> "span":
        if self.registry is None:
            self.registry = get_registry()
        if not self.registry.enabled:
            return self
        enclosing = _active_span.get()
        self.parent = enclosing.name if enclosing is not None else None
        self._token = _active_span.set(self)
        self._started = self._clock()
        return self

    def __exit__(self, exc_type, exc, exc_tb) -> bool:
        registry = self.registry
        if registry is None or not registry.enabled:
            return False
        duration_ms = (self._clock() - self._started) * 1000.0
        if self._token is not None:
            _active_span.reset(self._token)
        # The fields dict is shared with the record on the happy path (no
        # caller mutates it after exit); only the error path copies.
        fields = self.fields
        status = "ok"
        if exc_type is not None:
            status = "error"
            fields = {**fields, "error": exc_type.__name__}
        self.record = SpanRecord(
            name=self.name,
            duration_ms=duration_ms,
            parent=self.parent,
            status=status,
            fields=fields,
        )
        registry.record_span(self.record)
        # Per-name duration histogram, memoised in the registry's hot
        # cache (spans close once per pipeline stage, but the engine's
        # execute span is per-query — worth skipping the re-resolution).
        hist = registry.hot_cache.get(("span", self.name))
        if hist is None:
            hist = registry.histogram(
                SPAN_DURATION_METRIC,
                help="Wall duration of instrumented pipeline spans",
                span=self.name,
            )
            registry.hot_cache[("span", self.name)] = hist
        hist.observe(duration_ms)
        if status == "error":
            registry.counter(
                "repro_span_errors_total",
                help="Spans that exited with an exception",
                span=self.name,
            ).inc()
        return False


def current_span() -> Optional[span]:
    """The innermost active span of this context, or ``None``."""
    return _active_span.get()
