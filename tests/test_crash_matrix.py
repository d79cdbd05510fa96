"""The differential crash matrix.

A scripted mutation workload runs once under
:class:`faults.RecordingDisk`, which logs every durable file operation
from the first byte ``create_store`` writes, with a marker before each
step.  Every prefix of that log is a crash: the recorder builds what the
disk may hold there (writes since a file's last fsync dropped, or kept
with the last one torn, or one bit flipped in the last durable log
record; a new name survives only once its directory is fsynced), and
each image must recover **bit-identical to the state before or after the
step in progress — never anything in between**.  An image taken before
``create_store`` returned may also be no store at all, but not a
refused one: the manifest is written last, so an image that holds it is
a store and must recover.  One taken after may not.  "State" means the
index epoch, every Dewey assignment, the live and deleted rows, and the
answers of all five diversity algorithms (scored and unscored) on fixed
queries.  Each recovered store then runs
the rest of the workload, and every answer on the way must be diverse
(Definition 2).

Each test is one region of the log, named after the crash point a
writer-side hook used to reach there; ``create-store`` is everything
before the store exists.
"""

import ast
import collections
import importlib
import inspect
import pkgutil

import pytest

from faults import RecordingDisk
from repro import DiversityEngine
from repro.core.engine import ALGORITHMS
from repro.core.similarity import is_diverse, is_scored_diverse
from repro.data.paper_example import figure1_ordering, figure1_relation
import repro.durability
from repro.durability import (
    RecoveryError,
    create_sharded_store,
    create_store,
    recover,
)
from repro.durability.store import MANIFEST_NAME, WAL_NAME
from repro.durability.wal import MAGIC
from repro.index.inverted import InvertedIndex
from repro.sharding import ShardedIndex

#: The scripted workload: inserts and removes interleaved so WAL replay
#: exercises both ops, including the removal of a row (rid 15) that only
#: ever existed through the log, followed by a new top-level value (the
#: sibling number rid 15's make held is forgotten by recovery).
STEPS = [
    ("insert", ("Tesla", "ModelS", "Red", 2008, "rare electric clean")),
    ("insert", ("Kia", "Rio", "Green", 2006, "cheap commuter")),
    ("remove", 1),
    ("insert", ("Honda", "Fit", "Orange", 2008, "low miles")),
    ("insert", ("Acura", "TSX", "Silver", 2007, "one owner")),
    ("remove", 15),
    ("insert", ("Volvo", "V70", "Silver", 2006, "safe wagon miles")),
    ("insert", ("Ford", "Focus", "Blue", 2005, "new tires")),
    ("insert", ("Honda", "Prelude", "Black", 2007, "rare manual")),
]

QUERIES = [
    "Make = 'Honda'",
    "Color = 'Green' OR Description CONTAINS 'miles'",
]

#: The algorithms whose answers the rest of the workload checks against
#: Definition 2 (multq, the exhaustive baseline, is in the signature).
DIVERSE = ("onepass", "probe", "naive")

#: The regions of the recorded log, one test each.
POINTS = (
    "create-store",
    "wal-pre-append",
    "wal-torn-append",
    "wal-pre-sync",
    "wal-post-sync",
    "wal-flip-tail",
    "snapshot-mid-write",
    "snapshot-pre-rename",
    "snapshot-post-rename",
    "snapshot-post-truncate",
)


#: The outcome of an image that holds a manifest and still does not
#: recover.  No image may have it: the manifest is written last.
REFUSED = "refused"


def state_signature(index):
    """Everything recovery must reproduce, hashed down to comparables."""
    relation = index.relation
    engine = DiversityEngine(index)
    answers = tuple(
        tuple(engine.search(query, k=4, algorithm=algorithm, scored=scored).deweys)
        for query in QUERIES
        for algorithm in ALGORITHMS
        for scored in (False, True)
    )
    return (
        index.epoch,
        tuple(sorted(
            (rid, index.dewey.dewey_of(rid)) for rid in index.dewey.iter_rids()
        )),
        tuple(tuple(row) for row in relation),
        tuple(relation.deleted_rids()),
        answers,
    )


def answers_are_diverse(index) -> bool:
    """Every diverse algorithm's answer, scored and unscored, satisfies
    Definition 2 over the full match set."""
    engine = DiversityEngine(index)
    everything = len(index.relation)
    for query in QUERIES:
        matches = engine.search(query, k=everything, algorithm="basic")
        scores = engine.search(query, k=everything, algorithm="basic",
                               scored=True)
        scores = dict(zip(scores.deweys, scores.scores))
        for algorithm in DIVERSE:
            unscored = engine.search(query, k=4, algorithm=algorithm)
            scored = engine.search(query, k=4, algorithm=algorithm,
                                   scored=True)
            if not (is_diverse(unscored.deweys, matches.deweys, 4)
                    and is_scored_diverse(scored.deweys, scores, 4)):
                return False
    return True


def apply_step(target, relation, step):
    op, arg = step
    if op == "insert":
        target.insert(relation.insert(arg))
    else:
        relation.delete(arg)
        target.remove(arg)


def close(target):
    for store in getattr(target, "shards", [target]):
        store.close()


def crash_point(ops, image) -> str:
    """The region of the log ``image`` was cut in (see :data:`POINTS`)."""
    if image.step == 0:
        return "create-store"
    if image.damage == "flip":
        return "wal-flip-tail"
    op = ops[image.cut - 1]
    if op.kind == "step":
        return "wal-pre-append"
    if op.path[-1] == WAL_NAME:
        if op.kind == "write":
            return "wal-torn-append" if image.damage == "torn" else "wal-pre-sync"
        if ops[image.cut - 2].kind == "write":
            return "wal-post-sync"
        return "snapshot-post-truncate"
    if op.kind in ("replace", "fsync_dir"):
        return "snapshot-post-rename"
    if op.kind == "write":
        return "snapshot-mid-write"
    return "snapshot-pre-rename"


class Matrix:
    """One recorded run of :data:`STEPS` and the recovery of every image.

    ``outcomes`` maps each distinct image tree to ``(state, diverse)``:
    the index of the reference state it recovered to (``None`` for no
    store, :data:`REFUSED` for a manifest whose store recovery refuses,
    ``-1`` for no reference at all), and whether the rest of the
    workload, run on the recovered store, answered diversely throughout.
    """

    def __init__(self, tmp_path_factory, build):
        root = tmp_path_factory.mktemp("recorded")
        with RecordingDisk(root) as recorder:
            target, relation = build(root / "store")
            self.references = [state_signature(target)]
            for number, step in enumerate(STEPS, 1):
                recorder.step(number)
                apply_step(target, relation, step)
                self.references.append(state_signature(target))
            recorder.step(len(STEPS) + 1)
            close(target)
        self.images = collections.defaultdict(list)
        self.outcomes = {}
        scratch = tmp_path_factory.mktemp("images")
        for image in recorder.images():
            self.images[crash_point(recorder.ops, image)].append(image)
            if image.tree not in self.outcomes:
                directory = scratch / str(len(self.outcomes))
                self.outcomes[image.tree] = self._recover(
                    image.write(directory) / "store")

    def _recover(self, data_dir):
        try:
            recovered = recover(data_dir)
        except RecoveryError:
            # No manifest is no store; a store that claims to be one with
            # its manifest and still does not recover is refused.
            return (REFUSED if (data_dir / MANIFEST_NAME).exists() else None), True
        signature = state_signature(recovered)
        if signature not in self.references:
            close(recovered)
            return -1, True
        state = self.references.index(signature)
        diverse = True
        for step in STEPS[state:]:
            apply_step(recovered, recovered.relation, step)
            diverse = diverse and answers_are_diverse(recovered)
        close(recovered)
        return state, diverse

    def check(self, point):
        images = self.images[point]
        assert images, f"the workload never reaches {point}: a blind spot"
        for image in images:
            state, diverse = self.outcomes[image.tree]
            if image.step == 0:  # create_store has not returned
                allowed = {None, 0}
            else:  # the last marker closes the final step
                allowed = {image.step - 1, image.step} & set(
                    range(len(self.references)))
            where = f"{point} ({image.damage} image after op {image.cut})"
            assert state in allowed, (
                f"{where}: recovered to state {state}, expected one of "
                f"{sorted(allowed, key=str)} (-1: matches no reference; "
                f"None: no store; {REFUSED}: a manifest, yet refused)"
            )
            assert diverse, f"{where}: a later answer is not diverse"


def _build_single(data_dir):
    relation = figure1_relation()
    index = InvertedIndex.build(relation, figure1_ordering())
    return create_store(index, data_dir, snapshot_every=3), relation


def _build_sharded(data_dir):
    relation = figure1_relation()
    index = ShardedIndex.build(relation, figure1_ordering(), shards=2)
    return create_sharded_store(index, data_dir, snapshot_every=2), relation


@pytest.fixture(scope="module")
def single_matrix(tmp_path_factory):
    return Matrix(tmp_path_factory, _build_single)


@pytest.fixture(scope="module")
def sharded_matrix(tmp_path_factory):
    return Matrix(tmp_path_factory, _build_sharded)


@pytest.mark.parametrize("point", POINTS)
def test_single_store_matrix(point, single_matrix):
    single_matrix.check(point)


@pytest.mark.parametrize("point", POINTS)
def test_sharded_matrix(point, sharded_matrix):
    sharded_matrix.check(point)


def test_matrix_reaches_every_damage_kind(single_matrix, sharded_matrix):
    """Both shapes see every kind of damage, and together they recover
    more distinct images than the 66 the nine writer-side hooks reached
    (48 single-store, 18 sharded)."""
    for matrix in (single_matrix, sharded_matrix):
        damages = {image.damage for images in matrix.images.values()
                   for image in images}
        assert damages == {"dropped", "kept", "torn", "flip"}
    assert len(single_matrix.outcomes) + len(sharded_matrix.outcomes) >= 66


def test_a_store_exists_once_its_manifest_does(single_matrix, sharded_matrix):
    """Creation commits with its manifest: a ``create-store`` image
    without one is no store, and none with one is refused."""
    for matrix in (single_matrix, sharded_matrix):
        states = {matrix.outcomes[image.tree][0]
                  for image in matrix.images["create-store"]}
        assert states == {None, 0}, states


# ----------------------------------------------------------------------
# The seam: nothing in durability or snapshots writes past the recorder.
# ----------------------------------------------------------------------
_WRITE_CALLS = {"fsync", "replace", "rename", "truncate", "ftruncate",
                "write_text", "write_bytes"}


def _bypasses_the_seam(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    receiver = ast.unparse(func.value) if isinstance(func, ast.Attribute) else ""
    if receiver.endswith("DISK"):
        return False  # the seam itself
    if name == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg in ("mode", "flags")),
            None)
        if mode is None:
            return False
        if isinstance(mode, ast.Constant):
            return any(flag in str(mode.value) for flag in "wax+")
        return not ast.unparse(mode).endswith("O_RDONLY")
    if name == "replace":
        return receiver == "os"  # str.replace is not a rename
    # ``self._wal.truncate()`` is the log's own truncation, which goes
    # through the seam.
    return name in _WRITE_CALLS and receiver != "self._wal"


def test_durable_writes_go_through_the_seam():
    modules = [repro.durability] + [
        importlib.import_module(f"repro.durability.{info.name}")
        for info in pkgutil.iter_modules(repro.durability.__path__)
    ] + [importlib.import_module("repro.index.snapshot")]
    offenders = [
        f"{module.__name__}:{node.lineno}: {ast.unparse(node)}"
        for module in modules
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Call) and _bypasses_the_seam(node)
    ]
    assert not offenders, "durable I/O outside repro.storage.disk: " + \
        "; ".join(offenders)


def test_the_seam_check_sees_a_bypass():
    bypasses = [
        "open(path, 'wb')", "path.open(mode='a')", "os.fsync(fd)",
        "os.replace(a, b)", "handle.truncate(8)", "path.write_bytes(b'')",
        "os.open(path, os.O_WRONLY)", "open(path, mode)",
    ]
    allowed = ["open(path)", "gzip.open(path, 'rb')", "name.replace('a', 'b')",
               "os.open(path, os.O_RDONLY)", "disk.DISK.truncate(handle, 8)",
               "self._wal.truncate()"]
    for source, expected in [(s, True) for s in bypasses] + [
            (s, False) for s in allowed]:
        call = ast.parse(source, mode="eval").body
        assert _bypasses_the_seam(call) is expected, source


# ----------------------------------------------------------------------
# The fold's documented edge, pinned.
# ----------------------------------------------------------------------
def test_recovery_forgets_sibling_numbers_of_rows_removed_in_the_log_tail(
        tmp_path):
    """Recovery keeps Dewey assignments of live rows only.  A row
    inserted *and* removed inside the log tail leaves no trace, so the
    next new value under the same prefix takes the sibling number it
    held, where the process that never crashed hands out a fresh one.
    No live row's ID changes and every answer stays diverse."""
    steps = [STEPS[0], ("remove", 15), STEPS[6]]  # Tesla in and out, Volvo
    relation = figure1_relation()
    store = create_store(InvertedIndex.build(relation, figure1_ordering()),
                         tmp_path / "store")
    for step in steps[:2]:
        apply_step(store, relation, step)
    store.close()
    live = InvertedIndex.build(figure1_relation(), figure1_ordering())
    for step in steps:
        apply_step(live, live.relation, step)

    recovered = recover(tmp_path / "store")
    apply_step(recovered, recovered.relation, steps[2])
    tesla = live.dewey.peek(15)  # the sibling number Tesla's make held
    assert recovered.dewey.dewey_of(16)[0] == tesla[0]
    assert live.dewey.dewey_of(16)[0] == tesla[0] + 1
    assert all(recovered.dewey.dewey_of(rid) == live.dewey.dewey_of(rid)
               for rid in live.dewey.iter_rids() if rid != 16)
    assert answers_are_diverse(recovered) and answers_are_diverse(live)
    recovered.close()


# ----------------------------------------------------------------------
# Damage that is NOT a crash signature must be refused, loudly.
# ----------------------------------------------------------------------
def test_corruption_before_tail_raises_structured_error(tmp_path):
    store, relation = _build_single(tmp_path / "store")
    for step in STEPS[:2]:  # two durable records, no snapshot cycle yet
        apply_step(store, relation, step)
    store.close()

    wal_path = tmp_path / "store" / WAL_NAME
    data = bytearray(wal_path.read_bytes())
    data[len(MAGIC) + 12] ^= 0x01  # inside record 1 of 2: before the tail
    wal_path.write_bytes(bytes(data))

    with pytest.raises(RecoveryError) as excinfo:
        recover(tmp_path / "store")
    error = excinfo.value
    assert str(wal_path.parent) in str(error.path)
    assert "mid-log" in error.reason
