"""Deterministic fault injection for shard reads, from outside the package.

:class:`ChaosPolicy` decides, per shard replica and per read, whether to
inject latency, a transient error, or a hard crash — from a seeded RNG, so
every chaos run is exactly reproducible (the chaos differential suites
rely on this: same seed, same faults, same retries, same answers).

:class:`FaultyShard` wraps one shard copy behind the same read protocol
and consults the policy on every *read* entry point (posting-list lookups
and vocabulary scans — the operations that would be RPCs in a real
deployment).  Mutations and control-plane reads (``epoch``, ``len``) pass
through untouched: chaos models a flaky data path, not a corrupted one,
and the serving caches must keep observing true epochs while shards
misbehave.

Fault plans address either a whole logical shard (an ``int`` key: every
replica of that shard suffers) or one specific copy (a ``(shard,
replica)`` key, which takes precedence) — that is how the replication
suite kills a minority of replicas and asserts answers stay exact.

Injected latency sleeps on the policy's ``sleep`` (wall-clock
``time.sleep`` when unset); pass a :class:`~repro.observability.FakeClock`'s
``sleep`` to spend deadline budget on a fake timeline without blocking.

Wiring: :func:`inject` swaps every shard copy under an engine, a sharded
index or a replica set for a :class:`FaultyShard`, in place in the live
lists ``ShardedIndex.shards`` and ``ReplicaSet.replicas`` return, and its
:class:`Injection` puts the copies back (``undo()``, or on leaving a
``with`` block).  The served package itself carries no injection hook.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.index.reader import NamedReads
from repro.parallel import UnsupportedWorkerModeError
from repro.replication import ReplicaSet
from repro.resilience.errors import ShardCrashedError, TransientShardError

#: A fault-plan key: a logical shard (all replicas) or one specific copy.
ChaosAddress = Union[int, Tuple[int, int]]


@dataclass(frozen=True)
class ShardFaultSpec:
    """What one shard's reads suffer: latency, flakes, or a hard crash."""

    latency_ms: float = 0.0       # added to every read
    transient_rate: float = 0.0   # probability a read raises TransientShardError
    crashed: bool = False         # every read raises ShardCrashedError

    def __post_init__(self):
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")
        if not 0.0 <= self.transient_rate <= 1.0:
            raise ValueError("transient_rate must be in [0, 1]")


def _normalise_address(address: ChaosAddress) -> ChaosAddress:
    if isinstance(address, tuple):
        shard, replica = address
        return (int(shard), int(replica))
    return int(address)


class ChaosPolicy:
    """Seeded per-replica fault plan, consulted on every shard read.

    ``default`` applies to every address not named in ``per_shard``, whose
    keys are shard ids (``int`` — the fault hits every replica of that
    shard) or ``(shard, replica)`` pairs (one copy only; the more specific
    key wins).  The policy is mutable at runtime — :meth:`crash`/
    :meth:`revive` flip a shard or a single replica mid-workload, which is
    how the tests kill copies under a warm cache — and keeps exact
    injection counters.
    """

    def __init__(
        self,
        seed: int = 0,
        default: Optional[ShardFaultSpec] = None,
        per_shard: Optional[Dict[ChaosAddress, ShardFaultSpec]] = None,
        sleep=None,
    ):
        self._seed = seed
        self._default = default if default is not None else ShardFaultSpec()
        self._per_shard: Dict[ChaosAddress, ShardFaultSpec] = {
            _normalise_address(address): spec
            for address, spec in (per_shard or {}).items()
        }
        self._sleep = sleep if sleep is not None else time.sleep
        self._lock = threading.Lock()
        self._rngs: Dict[Tuple[int, Optional[int]], random.Random] = {}
        self.injected: Dict[str, int] = {"latency": 0, "transient": 0, "crash": 0}

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def transient(cls, rate: float, seed: int = 0) -> "ChaosPolicy":
        """Every shard flakes independently at ``rate`` per read."""
        return cls(seed=seed, default=ShardFaultSpec(transient_rate=rate))

    @classmethod
    def crash_shards(cls, *addresses: ChaosAddress, seed: int = 0) -> "ChaosPolicy":
        """Hard-kill the named shards (ints) or single replicas (``(shard,
        replica)`` pairs); everything else is healthy."""
        return cls(
            seed=seed,
            per_shard={
                address: ShardFaultSpec(crashed=True) for address in addresses
            },
        )

    @classmethod
    def slow_shards(cls, latency_ms: float, *addresses: ChaosAddress,
                    seed: int = 0) -> "ChaosPolicy":
        """Add fixed latency to the named addresses (everywhere when none
        given)."""
        spec = ShardFaultSpec(latency_ms=latency_ms)
        if not addresses:
            return cls(seed=seed, default=spec)
        return cls(seed=seed, per_shard={address: spec for address in addresses})

    # ------------------------------------------------------------------
    # Runtime control
    # ------------------------------------------------------------------
    def spec_for(self, shard_id: int,
                 replica_id: Optional[int] = None) -> ShardFaultSpec:
        """The effective fault spec for one copy: ``(shard, replica)`` key
        first, then the whole-shard key, then the default."""
        with self._lock:
            if replica_id is not None:
                spec = self._per_shard.get((shard_id, replica_id))
                if spec is not None:
                    return spec
            return self._per_shard.get(shard_id, self._default)

    def set_spec(self, address: ChaosAddress, spec: ShardFaultSpec) -> None:
        with self._lock:
            self._per_shard[_normalise_address(address)] = spec

    def _address(self, shard_id: int,
                 replica_id: Optional[int]) -> ChaosAddress:
        if replica_id is None:
            return int(shard_id)
        return (int(shard_id), int(replica_id))

    def crash(self, shard_id: int, replica_id: Optional[int] = None) -> None:
        """Hard-kill one shard — or just one replica of it — from now on
        (other configured faults at that address are kept)."""
        self._set_crashed(shard_id, replica_id, True)

    def revive(self, shard_id: int, replica_id: Optional[int] = None) -> None:
        """Bring a killed shard (or single replica) back."""
        self._set_crashed(shard_id, replica_id, False)

    def _set_crashed(self, shard_id: int, replica_id: Optional[int],
                     crashed: bool) -> None:
        address = self._address(shard_id, replica_id)
        with self._lock:
            spec = self._per_shard.get(address)
            if spec is None and replica_id is not None:
                spec = self._per_shard.get(int(shard_id))
            if spec is None:
                spec = self._default
            self._per_shard[address] = replace(spec, crashed=crashed)

    # ------------------------------------------------------------------
    # Injection (called by FaultyShard on every read)
    # ------------------------------------------------------------------
    def _rng(self, shard_id: int,
             replica_id: Optional[int] = None) -> random.Random:
        key = (shard_id, replica_id)
        rng = self._rngs.get(key)
        if rng is None:
            # Independent deterministic stream per copy: the fault pattern
            # one replica sees never depends on traffic to another.  The
            # replica-less stream keeps the pre-replication seeds, so the
            # original chaos differential runs are bit-for-bit unchanged.
            stream = self._seed * 2654435761 + shard_id
            if replica_id is not None:
                stream = stream * 1000003 + replica_id + 1
            rng = self._rngs[key] = random.Random(stream)
        return rng

    def before_read(self, shard_id: int, operation: str,
                    replica_id: Optional[int] = None) -> None:
        spec = self.spec_for(shard_id, replica_id)
        if spec.crashed:
            with self._lock:
                self.injected["crash"] += 1
            raise ShardCrashedError(shard_id, operation)
        if spec.latency_ms > 0.0:
            with self._lock:
                self.injected["latency"] += 1
            self._sleep(spec.latency_ms / 1000.0)
        if spec.transient_rate > 0.0:
            with self._lock:
                flake = self._rng(shard_id, replica_id).random() < spec.transient_rate
                if flake:
                    self.injected["transient"] += 1
            if flake:
                raise TransientShardError(shard_id, operation)

    def __repr__(self) -> str:
        return (
            f"ChaosPolicy(seed={self._seed}, default={self._default}, "
            f"per_shard={self._per_shard}, injected={self.injected})"
        )


class FaultyShard(NamedReads):
    """An :class:`InvertedIndex` read-protocol proxy that injects faults.

    Only the data-path reads go through :meth:`ChaosPolicy.before_read`;
    mutations (``insert``/``remove``) and control-plane attributes
    (``epoch``, ``len``, ``relation`` …) delegate untouched.  ``replica_id``
    names which copy of the shard this proxy fronts (``None`` outside a
    replicated deployment) so the policy can target single replicas.
    """

    __slots__ = ("_target", "shard_id", "replica_id", "chaos")

    def __init__(self, inner, shard_id: int, chaos: ChaosPolicy,
                 replica_id: Optional[int] = None):
        self._target = inner
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.chaos = chaos

    @property
    def inner(self):
        """The wrapped shard index (unwrapping handle)."""
        return self._target

    def __repr__(self) -> str:
        if self.replica_id is None:
            return f"FaultyShard({self.shard_id}, {self._target!r})"
        return (
            f"FaultyShard({self.shard_id}/r{self.replica_id}, {self._target!r})"
        )

    def _read(self, operation: str, *args):
        """A data-path read: injected."""
        self.chaos.before_read(self.shard_id, operation, self.replica_id)
        return getattr(self._target, operation)(*args)

    def remove_mirrored(self, rid: int, dewey):
        """A replica set's follower-side removal: a mutation, uninjected."""
        return self._target.remove_mirrored(rid, dewey)


class Injection:
    """The copies one :func:`inject` call swapped; :meth:`undo` (or leaving
    a ``with`` block, which yields the policy) puts them back."""

    def __init__(self, policy: ChaosPolicy, swapped: List[tuple]):
        self.policy = policy
        self._swapped = swapped   # (slot list, position, original copy)

    def undo(self) -> None:
        for slots, position, original in self._swapped:
            slots[position] = original

    def __enter__(self) -> ChaosPolicy:
        return self.policy

    def __exit__(self, *exc_info) -> None:
        self.undo()


def inject(target, policy: ChaosPolicy) -> Injection:
    """Make every shard copy under ``target`` — a ``ShardedEngine``, a
    ``ShardedIndex`` or one ``ReplicaSet`` — read through a
    :class:`FaultyShard` driven by ``policy``.

    An unreplicated shard slot is addressed by its shard id alone; each
    copy inside a replica set by ``(shard, replica)``.  Injecting over an
    earlier injection replaces its proxies rather than stacking them.  An
    engine whose gathers run in a process pool is refused: its worker
    processes hold their own shard copies, which no fault would reach.
    """
    if hasattr(target, "resolved_worker_mode"):
        if target.resolved_worker_mode != "serial":
            raise UnsupportedWorkerModeError(
                f"chaos cannot reach the {target.resolved_worker_mode} worker "
                f"processes that answer this engine's gathers; use workers=0 "
                f"for chaos experiments"
            )
        target = target.sharded_index
    slots = [target] if isinstance(target, ReplicaSet) else target.shards
    copies = []
    for shard_id, slot in enumerate(slots):
        if isinstance(slot, ReplicaSet):
            copies.extend((slot.replicas, replica_id, slot.shard_id, replica_id)
                          for replica_id in range(slot.num_replicas))
        else:
            copies.append((slots, shard_id, shard_id, None))
    swapped = []
    for copy_slots, position, shard_id, replica_id in copies:
        original = copy_slots[position]
        if isinstance(original, FaultyShard):
            original = original.inner
        copy_slots[position] = FaultyShard(original, shard_id, policy, replica_id)
        swapped.append((copy_slots, position, original))
    return Injection(policy, swapped)
