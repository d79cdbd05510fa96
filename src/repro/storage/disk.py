"""The one seam for durable file I/O.

Everything that must survive a crash — the write-ahead log, index
snapshots and the store manifest — opens its files, fsyncs them and
their directories, renames and truncates through :data:`DISK`.  The seam
hands back real file objects, so a write is still one call on a real
file; what passes through :data:`DISK` are the operations whose order
decides what a crash leaves on disk.  A test can swap :data:`DISK` for
an object that records them, write bytes included, and rebuild from the
recording every state a crash could leave behind.

This module imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

PathLike = Union[str, Path]


class Disk:
    """Durable file operations on the real file system."""

    def open(self, path: PathLike, mode: str):
        """``path`` opened for binary writing: ``"wb"`` or ``"ab"``."""
        return open(path, mode)

    def fsync(self, handle) -> None:
        """Flush ``handle`` and make its bytes durable."""
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_dir(self, directory: PathLike) -> None:
        """Make the names in ``directory`` durable (new files, renames);
        best-effort on platforms that refuse O_RDONLY directory fds."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def replace(self, source: PathLike, target: PathLike) -> None:
        os.replace(source, target)

    def truncate(self, handle, size: int) -> None:
        handle.flush()
        handle.truncate(size)

    def mkdir(self, path: PathLike) -> None:
        os.mkdir(path)


#: The process's disk.  Callers look it up at call time (``disk.DISK``),
#: so a test that swaps it sees every durable operation.
DISK = Disk()


def make_dirs(path: PathLike) -> None:
    """Create ``path`` and its missing parents, each new name fsynced
    into its parent directory."""
    path = Path(path)
    missing = []
    while not path.is_dir():
        missing.append(path)
        path = path.parent
    for directory in reversed(missing):
        DISK.mkdir(directory)
        DISK.fsync_dir(directory.parent)


def replace_atomically(target: PathLike, data: bytes) -> None:
    """Make ``target`` hold ``data`` whatever a crash interrupts: write a
    temp file beside it, fsync it, rename it over ``target``, and fsync
    the directory so the rename itself is durable."""
    target = Path(target)
    tmp = target.with_name(target.name + ".tmp")
    with DISK.open(tmp, "wb") as handle:
        handle.write(data)
        DISK.fsync(handle)
    DISK.replace(tmp, target)
    DISK.fsync_dir(target.parent)
