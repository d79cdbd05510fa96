"""Fault injection from outside the served package.

:mod:`faults.crash` records the durable file operations a workload sends
through :data:`repro.storage.disk.DISK` and rebuilds every on-disk state
a crash could leave behind (``tests/test_crash_matrix.py`` replays them
all), so the durability code itself carries no crash hook.
"""

from .crash import RecordingDisk

__all__ = ["RecordingDisk"]
