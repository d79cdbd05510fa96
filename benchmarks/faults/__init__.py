"""Fault injection from outside the served package.

:mod:`faults.crash` records the durable file operations a workload sends
through :data:`repro.storage.disk.DISK` and rebuilds every on-disk state
a crash could leave behind (``tests/test_crash_matrix.py`` replays them
all), so the durability code itself carries no crash hook.

:mod:`faults.chaos` makes shard reads slow, flaky or dead on a seeded
plan by swapping shard copies for proxies in place
(:func:`faults.chaos.inject`), so the sharding and replication code
carries no injection hook either.
"""

from .chaos import ChaosPolicy, FaultyShard, ShardFaultSpec, inject
from .crash import RecordingDisk

__all__ = ["ChaosPolicy", "FaultyShard", "RecordingDisk", "ShardFaultSpec",
           "inject"]
