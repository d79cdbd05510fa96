"""Shard routing keyed on the diversity ordering's top attribute.

A row's shard is a pure function of its *level-1 diversity value* (the
highest-priority ordering attribute, e.g. ``Make``).  Routing on that value
— rather than on the rid — is what makes the sharded diverse-merge work:
every level-1 subtree of the global Dewey tree lives wholly inside one
shard, so a shard's local diverse top-k is computed over whole subtrees and
the merge step never has to reconcile a subtree split across shards (see
``docs/paper_mapping.md``, "Sharding").
"""

from __future__ import annotations

import zlib
from typing import Any


class HashRouter:
    """Stable-hash partitioning: ``crc32(typed value) % shards``.

    Uniform, stateless, and new values route deterministically forever.
    Python's builtin ``hash`` for strings is salted per process, so it
    cannot be used — two runs (or a coordinator and its shards) must agree
    on every placement.  CRC32 over a typed repr is stable everywhere and
    keeps ``1``, ``1.0``-as-int, ``'1'`` and ``True`` distinct exactly when
    the index's value equality does not conflate them.
    """

    __slots__ = ("_shards",)

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("shard count must be positive")
        self._shards = shards

    @property
    def shards(self) -> int:
        return self._shards

    def shard_of(self, value: Any) -> int:
        tag = f"{type(value).__name__}:{value!r}"
        return zlib.crc32(tag.encode("utf-8")) % self._shards

    def __repr__(self) -> str:
        return f"HashRouter(shards={self._shards})"
