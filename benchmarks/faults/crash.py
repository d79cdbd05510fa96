"""Every state a crash can leave on disk, from one recorded run.

:class:`RecordingDisk` stands in for :data:`repro.storage.disk.DISK`
while a scripted workload runs once.  It performs every operation for
real and logs it, the bytes of each write included, on top of the files
already under its root when it starts.  :meth:`RecordingDisk.images`
then replays every prefix of that log on a model of the file system and
yields what a crash right there may leave.  The model is the one of
Pillai et al., "All File Systems Are Not Created Equal" (OSDI 2014):
bytes written since a file's last fsync may be lost or torn, and a new
or renamed name survives only once its parent directory is fsynced.

Each prefix yields up to three images:

* ``dropped``: every file as of its last fsync and every directory as
  of its last fsync, the harshest outcome the model allows;
* ``kept``: everything the process did reached the disk, except that a
  write the crash interrupted lands only halfway (``torn``);
* ``flip``: right after a write-ahead-log fsync, the ``dropped`` image
  with one bit of the just-synced record flipped by the medium.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.durability.store import WAL_NAME
from repro.storage import disk

#: What an image tree holds for a directory (a file holds its bytes).
DIR = None

Parts = Tuple[str, ...]  # a path relative to the recorder's root


class Op(NamedTuple):
    """One recorded operation.

    ``kind`` is ``mkdir``, ``create``, ``write``, ``truncate``, ``fsync``,
    ``fsync_dir``, ``replace`` or ``step``; ``arg`` is a write's bytes, a
    truncation's size, a rename's target, or a step's number.
    """

    kind: str
    path: Parts
    arg: object = None


class CrashImage(NamedTuple):
    """What the disk may hold after a crash that followed ``ops[:cut]``."""

    cut: int
    step: int      # the workload step in progress (0 before the first)
    damage: str    # "dropped", "kept", "torn" or "flip"
    tree: tuple    # sorted ((parts, bytes or DIR), ...)

    def write(self, root) -> Path:
        """Materialise the image under a new directory ``root``."""
        root = Path(root)
        root.mkdir(parents=True)
        for parts, data in self.tree:
            if data is DIR:
                root.joinpath(*parts).mkdir()
            else:
                root.joinpath(*parts).write_bytes(data)
        return root


class _RecordedFile:
    """A real file opened through the recorder: its writes are logged."""

    def __init__(self, ops: List[Op], path: Parts, handle):
        self._ops = ops
        self._path = path
        self._handle = handle

    def write(self, data) -> int:
        self._ops.append(Op("write", self._path, bytes(data)))
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self) -> "_RecordedFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()


class RecordingDisk(disk.Disk):
    """The real disk, with every durable operation under ``root`` logged.

    Use it as a context manager: it is :data:`repro.storage.disk.DISK`
    inside the block.  Call :meth:`step` before each workload step so
    every image knows which step a crash interrupted.  A write must go
    to the end of its file (the log and the temp files only append).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.ops: List[Op] = []
        self.initial = _read_tree(self.root)
        self._saved = None

    def __enter__(self) -> "RecordingDisk":
        self._saved, disk.DISK = disk.DISK, self
        return self

    def __exit__(self, *exc_info) -> None:
        disk.DISK = self._saved

    def step(self, number: int) -> None:
        self.ops.append(Op("step", (), number))

    def _log(self, kind: str, path, arg=None) -> None:
        self.ops.append(Op(kind, self._parts(path), arg))

    def _parts(self, path) -> Parts:
        return Path(path).relative_to(self.root).parts

    # -- the seam ------------------------------------------------------
    def open(self, path, mode: str):
        if not os.path.exists(path):
            self._log("create", path)
        elif "w" in mode:
            self._log("truncate", path, 0)
        return _RecordedFile(self.ops, self._parts(path),
                             super().open(path, mode))

    def fsync(self, handle) -> None:
        self._log("fsync", handle.name)
        super().fsync(handle)

    def fsync_dir(self, directory) -> None:
        self._log("fsync_dir", directory)
        super().fsync_dir(directory)

    def replace(self, source, target) -> None:
        self._log("replace", source, self._parts(target))
        super().replace(source, target)

    def truncate(self, handle, size: int) -> None:
        self._log("truncate", handle.name, size)
        super().truncate(handle, size)

    def mkdir(self, path) -> None:
        self._log("mkdir", path)
        super().mkdir(path)

    # -- the crash images ----------------------------------------------
    def images(self) -> Iterator[CrashImage]:
        """Every prefix of the log, as the images a crash there leaves."""
        model = _Model(self.initial)
        step = 0
        for cut, op in enumerate(self.ops, 1):
            model.apply(op)
            if op.kind == "step":
                step = op.arg
            dropped = model.tree(model.durable, model.synced)
            yield CrashImage(cut, step, "dropped", dropped)
            if op.kind == "write":
                inode = model.names[op.path]
                torn = dict(model.cache)
                torn[inode] = torn[inode][: len(torn[inode]) - len(op.arg) // 2]
                yield CrashImage(cut, step, "torn", model.tree(model.names, torn))
            else:
                yield CrashImage(cut, step, "kept",
                                 model.tree(model.names, model.cache))
            if op.kind == "fsync" and op.path[-1] == WAL_NAME:
                record = self.ops[cut - 2]
                files = dict(dropped)
                data = bytearray(files.get(op.path, b""))
                if record[:2] != ("write", op.path) or len(data) <= len(record.arg):
                    continue  # no record follows the log's header yet
                data[len(data) - len(record.arg) // 2] ^= 0x40
                files[op.path] = bytes(data)
                yield CrashImage(cut, step, "flip", tuple(sorted(files.items())))


class _Model:
    """A file system's names and bytes, as a process sees them and as
    the disk holds them.  A name maps to :data:`DIR` or to an inode
    number, so a rename moves which bytes a name refers to."""

    def __init__(self, initial: tuple):
        self.cache: Dict[int, bytes] = {}   # what the process reads
        self.synced: Dict[int, bytes] = {}  # as of each file's last fsync
        self.names: Dict[Parts, object] = {
            parts: DIR if data is DIR else self._new(data)
            for parts, data in initial
        }
        # As of each directory's last fsync (what existed at the start
        # is durable).
        self.durable = dict(self.names)

    def _new(self, data: bytes = b"") -> int:
        inode = len(self.cache)
        self.cache[inode] = self.synced[inode] = data
        return inode

    def apply(self, op: Op) -> None:
        kind, path, arg = op
        if kind == "mkdir":
            self.names[path] = DIR
        elif kind == "create":
            self.names[path] = self._new()
        elif kind == "write":
            self.cache[self.names[path]] += arg
        elif kind == "truncate":
            inode = self.names[path]
            self.cache[inode] = self.cache[inode][:arg]
        elif kind == "fsync":
            inode = self.names[path]
            self.synced[inode] = self.cache[inode]
        elif kind == "fsync_dir":
            for name in set(self.names) | set(self.durable):
                if name[:-1] != path:
                    continue
                if name in self.names:
                    self.durable[name] = self.names[name]
                else:
                    del self.durable[name]
        elif kind == "replace":
            self.names[arg] = self.names.pop(path)

    @staticmethod
    def tree(names: dict, content: dict) -> tuple:
        """The files and directories reachable through ``names``, each
        file holding ``content`` of its inode."""
        return tuple(sorted(
            (parts, DIR if entry is DIR else content[entry])
            for parts, entry in names.items()
            if all(parts[:i] in names and names[parts[:i]] is DIR
                   for i in range(1, len(parts)))
        ))


def _read_tree(root: Path) -> tuple:
    """The files and directories under ``root`` (held durable)."""
    entries = []
    for directory, subdirs, files in os.walk(root):
        base = Path(directory).relative_to(root).parts
        entries += [(base + (name,), DIR) for name in subdirs]
        entries += [(base + (name,), (Path(directory) / name).read_bytes())
                    for name in files]
    return tuple(sorted(entries))
