"""repro.serving — the caching layer in front of the engine.

An engineering extension beyond the paper (the paper computes each diverse
top-k from scratch; see docs/paper_mapping.md): plan caching and
write-validated LRU result caching for skewed, repeated-query serving
traffic.
"""

from .cache import (
    CacheStats,
    PlanCache,
    ResultCache,
    ServingCache,
)
from .engine import ServingEngine

__all__ = [
    "CacheStats",
    "PlanCache",
    "ResultCache",
    "ServingCache",
    "ServingEngine",
]
