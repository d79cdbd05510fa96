"""Structured failure taxonomy for the durability layer.

Mirrors :mod:`repro.resilience.errors`: every failure a caller can act on
gets its own type, and recovery never surfaces a raw ``KeyError`` or
``struct.error`` from half-parsed bytes.

The split that matters operationally: a torn or truncated log *tail* is
the expected signature of a crash mid-append, so recovery silently drops
it (the mutation it carried was never acknowledged as durable) and raises
nothing.  :class:`WALCorruptionError` means a record failed its checksum
*before* the tail: bytes the log previously acknowledged are damaged.
Recovery refuses to guess and raises, because silently dropping the
suffix would resurrect deleted rows and un-insert acknowledged ones.
"""

from __future__ import annotations


class DurabilityError(Exception):
    """Base class for every durability-layer failure."""


class WALError(DurabilityError):
    """A write-ahead-log file is structurally unusable (bad magic, bad
    header, unwritable path)."""


class WALCorruptionError(WALError):
    """A WAL record before the tail failed its checksum — acknowledged
    bytes are damaged, so replay would be wrong, not just incomplete."""

    def __init__(self, path, offset: int, reason: str):
        self.path = path
        self.offset = offset
        self.reason = reason
        super().__init__(
            f"WAL {path} corrupt at byte {offset} (not a torn tail): {reason}"
        )


class RecoveryError(DurabilityError):
    """A data directory cannot be recovered into a consistent index:
    corrupt snapshot, mid-log corruption, sequence gaps, or missing shard
    data.  Carries the offending path for operator triage."""

    def __init__(self, path, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"cannot recover {path}: {reason}")

