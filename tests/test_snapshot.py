"""Tests for index snapshot save/load: the checksummed, column-major
version-3 format, and version-2 files (written by the frozen writer in
``tests/reference_snapshot_v2.py``) read through the converter."""

import gzip
import hashlib
import json

import pytest

from repro import DiversityEngine
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.durability import create_store, recover
from repro.durability.store import SNAPSHOT_NAME
from repro.index.inverted import InvertedIndex
from repro.index.snapshot import (
    FORMAT_NAME,
    FORMAT_VERSION,
    SnapshotError,
    build_payload,
    canonical_payload_bytes,
    load_index,
    payload_digest,
    save_index,
)

from . import reference_snapshot_v2 as v2


@pytest.fixture
def built_index(cars):
    return InvertedIndex.build(cars, figure1_ordering())


def read_document(path) -> dict:
    with gzip.open(path, "rb") as handle:
        return json.loads(handle.read())


def write_document(path, document, reseal: bool = True) -> None:
    """Write a (possibly tampered) document back; ``reseal`` recomputes the
    digest so the *semantic* validation under test is reached, not the
    checksum."""
    if reseal and "payload" in document:
        document["digest"] = payload_digest(document["payload"])
    with gzip.open(path, "wb") as handle:
        handle.write(json.dumps(document).encode())


class TestRoundtrip:
    def test_deweys_preserved(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        restored = load_index(path)
        assert len(restored) == len(built_index)
        for rid in range(len(built_index.relation)):
            assert restored.dewey.dewey_of(rid) == built_index.dewey.dewey_of(rid)

    def test_postings_preserved(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        restored = load_index(path)
        assert list(restored.scalar_postings("Make", "Honda")) == list(
            built_index.scalar_postings("Make", "Honda")
        )
        assert list(restored.token_postings("Description", "miles")) == list(
            built_index.token_postings("Description", "miles")
        )
        assert list(restored.all_postings()) == list(built_index.all_postings())

    def test_queries_identical(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        restored = load_index(path)
        original_engine = DiversityEngine(built_index)
        restored_engine = DiversityEngine(restored)
        for text in ["Make = 'Honda'", "Year = 2007 AND Description CONTAINS 'miles'"]:
            assert (
                original_engine.search(text, k=5).deweys
                == restored_engine.search(text, k=5).deweys
            )

    def test_backend_preserved(self, cars, tmp_path):
        index = InvertedIndex.build(cars, figure1_ordering(), backend="compressed")
        path = tmp_path / "cars.idx"
        save_index(index, path)
        assert load_index(path).backend == "compressed"

    def test_incremental_assignment_preserved(self, tmp_path):
        """Incremental (first-come) sibling numbers survive the roundtrip —
        the reason the assignment is persisted at all."""
        relation = figure1_relation()
        index = InvertedIndex(relation, figure1_ordering())
        for rid in reversed(range(len(relation))):  # reverse insertion order
            index.insert(rid)
        path = tmp_path / "cars.idx"
        save_index(index, path)
        restored = load_index(path)
        for rid in range(len(relation)):
            assert restored.dewey.dewey_of(rid) == index.dewey.dewey_of(rid)

    def test_restored_index_accepts_new_inserts(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        restored = load_index(path)
        rid = restored.relation.insert(("Tesla", "ModelS", "Red", 2008, "rare"))
        dewey = restored.insert(rid)
        assert restored.dewey.rid_of(dewey) == rid
        assert len(restored.scalar_postings("Make", "Tesla")) == 1

    def test_autos_scale_roundtrip(self, tmp_path):
        relation = generate_autos(AutosSpec(rows=800, seed=3))
        index = InvertedIndex.build(relation, autos_ordering())
        path = tmp_path / "autos.idx"
        save_index(index, path)
        restored = load_index(path)
        assert restored.dewey.all_deweys() == index.dewey.all_deweys()


class TestValidation:
    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "bogus.idx"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_wrong_format_field(self, tmp_path):
        path = tmp_path / "bogus.idx"
        with gzip.open(path, "wb") as handle:
            handle.write(json.dumps({"format": "something-else"}).encode())
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_wrong_version(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        document["version"] = 99
        write_document(path, document)
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_missing_field(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        del document["payload"]["dewey_levels"]
        write_document(path, document)
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_removed_backend_refused(self, built_index, tmp_path):
        """A snapshot naming the retired ``bptree`` backend is refused as a
        snapshot error, never loaded under another backend."""
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        document["payload"]["backend"] = "bptree"
        write_document(path, document)
        with pytest.raises(SnapshotError, match="bptree"):
            load_index(path)

    def test_corrupt_dewey_depth(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        document["payload"]["dewey_levels"].pop()  # every ID one level short
        write_document(path, document)
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_duplicate_dewey(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        for level in document["payload"]["dewey_levels"]:
            level[1] = level[0]
        write_document(path, document)
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_inconsistent_component_mapping(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        # Two Hondas with different top-level components.
        document["payload"]["dewey_levels"][0][0] = 5
        write_document(path, document)
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_digest_mismatch_rejected(self, built_index, tmp_path):
        """Any payload tampering without resealing fails the checksum."""
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        document["payload"]["columns"][0][0] = "Hacked"
        write_document(path, document, reseal=False)
        with pytest.raises(SnapshotError, match="digest mismatch"):
            load_index(path)

    def test_truncated_row_table_rejected(self, built_index, tmp_path):
        """Regression: a document whose row table was silently truncated
        (declared count disagrees with rows present) must not load short."""
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        columns = document["payload"]["columns"]
        columns[:] = [column[:-3] for column in columns]
        write_document(path, document)  # digest resealed: count check must fire
        with pytest.raises(SnapshotError, match="row count mismatch"):
            load_index(path)

    def test_live_count_mismatch_rejected(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        document["payload"]["live_rows"] -= 2
        write_document(path, document)
        with pytest.raises(SnapshotError, match="live rows"):
            load_index(path)

    def test_malformed_structures_wrapped(self, built_index, tmp_path):
        """Decode failures inside a well-formed envelope surface as
        SnapshotError naming the path, never raw KeyError/TypeError."""
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        document["payload"]["schema"] = [["Make"]]  # missing the kind
        write_document(path, document)
        with pytest.raises(SnapshotError, match=str(path)):
            load_index(path)

    def test_bad_attribute_kind_wrapped(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        document["payload"]["schema"][0][1] = "no-such-kind"
        write_document(path, document)
        with pytest.raises(SnapshotError, match=str(path)):
            load_index(path)


def _unequal_attribute_columns(payload):
    payload["columns"][1].pop()


def _unequal_level_columns(payload):
    payload["dewey_levels"][2].pop()


def _short_dewey_rid_column(payload):
    payload["dewey_rids"].pop()


def _short_row_rid_column(payload):
    payload["rids"].pop()


class TestColumnRefusals:
    """Columns that would zip short are refused, never loaded short."""

    @pytest.mark.parametrize("edit", [
        _unequal_attribute_columns, _unequal_level_columns,
        _short_dewey_rid_column,
    ], ids=lambda edit: edit.__name__.strip("_"))
    def test_unequal_columns_refused(self, built_index, tmp_path, edit):
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        document = read_document(path)
        edit(document["payload"])
        write_document(path, document)
        with pytest.raises(SnapshotError, match="unequal lengths"):
            load_index(path)

    def test_short_rid_column_of_a_subset_refused(self, built_index, tmp_path):
        path = tmp_path / "cars.idx"
        save_index(built_index, path, rids=[1, 4, 9])
        document = read_document(path)
        _short_row_rid_column(document["payload"])
        write_document(path, document)
        with pytest.raises(SnapshotError, match="unequal lengths"):
            load_index(path)

    def test_full_table_stores_no_rid_column(self, built_index):
        payload = build_payload(built_index)
        assert "rids" not in payload and not payload["partial"]
        assert len(payload["columns"]) == len(built_index.relation.schema)
        assert list(zip(*payload["dewey_levels"])) == list(
            built_index.all_postings())
        assert build_payload(built_index, rids=[9, 1, 4])["rids"] == [1, 4, 9]


class TestValidationV2:
    """The shape-dependent refusals of :class:`TestValidation`, on
    version-2 files: the converter keeps every error a ``SnapshotError``."""

    @staticmethod
    def _tampered(index, tmp_path, edit, reseal=True):
        path = tmp_path / "cars.idx"
        v2.save_index(index, path)
        document = read_document(path)
        assert document["version"] == 2
        edit(document["payload"])
        write_document(path, document, reseal=reseal)
        return path

    def test_untampered_file_loads(self, built_index, tmp_path):
        path = self._tampered(built_index, tmp_path, lambda payload: None)
        restored = load_index(path)
        assert list(restored.all_postings()) == list(built_index.all_postings())

    @pytest.mark.parametrize("field", ["rows", "deweys"])
    def test_missing_field(self, built_index, tmp_path, field):
        path = self._tampered(built_index, tmp_path,
                              lambda payload: payload.pop(field))
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_corrupt_dewey_depth(self, built_index, tmp_path):
        def edit(payload):
            payload["deweys"][0][1] = [0, 0]
        with pytest.raises(SnapshotError):
            load_index(self._tampered(built_index, tmp_path, edit))

    def test_duplicate_dewey(self, built_index, tmp_path):
        def edit(payload):
            payload["deweys"][1][1] = payload["deweys"][0][1]
        with pytest.raises(SnapshotError):
            load_index(self._tampered(built_index, tmp_path, edit))

    def test_inconsistent_component_mapping(self, built_index, tmp_path):
        def edit(payload):
            payload["deweys"][0][1][0] = 5
        with pytest.raises(SnapshotError):
            load_index(self._tampered(built_index, tmp_path, edit))

    def test_digest_mismatch_rejected(self, built_index, tmp_path):
        def edit(payload):
            payload["rows"][0][1][0] = "Hacked"
        path = self._tampered(built_index, tmp_path, edit, reseal=False)
        with pytest.raises(SnapshotError, match="digest mismatch"):
            load_index(path)

    def test_truncated_row_table_rejected(self, built_index, tmp_path):
        def edit(payload):
            payload["rows"] = payload["rows"][:-3]
        with pytest.raises(SnapshotError, match="row count mismatch"):
            load_index(self._tampered(built_index, tmp_path, edit))

    def test_bad_rows_nesting_wrapped(self, built_index, tmp_path):
        def edit(payload):
            payload["rows"] = [7] * len(payload["rows"])
        with pytest.raises(SnapshotError, match="malformed"):
            load_index(self._tampered(built_index, tmp_path, edit))

def _figure1_with_a_delete() -> InvertedIndex:
    relation = figure1_relation()
    index = InvertedIndex.build(relation, figure1_ordering())
    relation.delete(3)
    index.remove(3)
    return index


def _level9_envelope(payload: dict) -> bytes:
    """A version-2 snapshot encoded the way the writer did before it
    serialised the payload once: envelope keys in insertion order, gzip
    level 9."""
    document = {
        "format": FORMAT_NAME,
        "version": 2,
        "digest": payload_digest(payload),
        "payload": payload,
    }
    raw = json.dumps(document, separators=(",", ":")).encode("utf-8")
    return gzip.compress(raw, compresslevel=9)


class TestCanonicalBytes:
    """The writer serialises the payload once, as the canonical bytes; the
    version-2 digests below were computed from the list-built payload that
    came before it, so neither the frozen version-2 writer nor the
    canonical serialisation may drift, and the version-3 ones pin the
    column-major payload."""

    PARTIAL_RIDS = (14, 1, 9, 3, 4)

    def test_payload_digest_is_pinned(self):
        index = _figure1_with_a_delete()
        assert payload_digest(v2.build_payload(index)) == (
            "64825ab3231ff899babf7a3c5a99c83b4fd6a45419cdd3e905c10fd0c6536197"
        )
        assert payload_digest(v2.build_payload(index, rids=self.PARTIAL_RIDS)) == (
            "b61270928f4495749d20a11e2f5428396095759c814c5adaa72267001705b58e"
        )
        assert payload_digest(build_payload(index)) == (
            "eada58ec16a289191d7db9a2866997f86f2f1a850f2cf14feab3348f0eb4edc7"
        )
        assert payload_digest(build_payload(index, rids=self.PARTIAL_RIDS)) == (
            "3215178837b36ac8e1f5cd2e0932203ffcc5d2e90b8c58b2f89b1cddc0255772"
        )

    @pytest.mark.parametrize("rids", [None, PARTIAL_RIDS])
    def test_stored_payload_is_the_hashed_bytes(self, tmp_path, rids):
        index = _figure1_with_a_delete()
        path = tmp_path / "cars.idx"
        save_index(index, path, rids=rids)
        canonical = canonical_payload_bytes(build_payload(index, rids=rids))
        raw = gzip.decompress(path.read_bytes())
        assert raw.endswith(b'"payload":' + canonical + b"}")
        document = json.loads(raw)
        assert document["digest"] == hashlib.sha256(canonical).hexdigest()
        assert canonical_payload_bytes(document["payload"]) == canonical

    def test_canonical_file_loads_without_reserialising(self, tmp_path, monkeypatch):
        """The digest is taken over the stored payload bytes: only a file
        whose payload is not canonical (see below) is serialised again."""
        import repro.index.snapshot as snapshot

        index = _figure1_with_a_delete()
        path = tmp_path / "cars.idx"
        save_index(index, path)

        def refuse(payload):
            raise AssertionError("a canonical payload was serialised again")

        monkeypatch.setattr(snapshot, "canonical_payload_bytes", refuse)
        restored = load_index(path)
        assert list(restored.all_postings()) == list(index.all_postings())
        assert restored.epoch == index.epoch

    def test_level9_insertion_order_file_loads(self, tmp_path):
        index = _figure1_with_a_delete()
        path = tmp_path / "cars.idx"
        path.write_bytes(_level9_envelope(v2.build_payload(index)))
        restored = load_index(path)
        assert list(restored.all_postings()) == list(index.all_postings())
        assert list(restored.relation) == list(index.relation)
        assert restored.relation.deleted_rids() == [3]
        assert restored.epoch == index.epoch

    def test_level9_insertion_order_store_recovers(self, tmp_path):
        index = _figure1_with_a_delete()
        payload = v2.build_payload(index)
        store = create_store(index, tmp_path / "store")
        rid = index.relation.insert(("Tesla", "ModelS", "Red", 2008, "rare"))
        store.insert(rid)  # a log tail past the snapshot
        store.close()
        (tmp_path / "store" / SNAPSHOT_NAME).write_bytes(_level9_envelope(payload))
        with recover(tmp_path / "store") as recovered:
            assert list(recovered.all_postings()) == list(index.all_postings())
            assert list(recovered.relation) == list(index.relation)
            assert recovered.epoch == index.epoch


class TestLegacyV1:
    def test_v1_snapshot_is_refused(self, built_index, tmp_path):
        """Version 1 carries no digest, so nothing could vouch for the
        file; its last writer is long gone and the loader refuses it."""
        relation = built_index.relation
        document = {
            "format": FORMAT_NAME,
            "version": 1,
            "name": relation.name,
            "backend": built_index.backend,
            "ordering": list(built_index.ordering.attributes),
            "schema": [[a.name, a.kind.value] for a in relation.schema],
            "rows": [list(row) for row in relation],
            "deleted": relation.deleted_rids(),
            "deweys": [
                [rid, list(built_index.dewey.dewey_of(rid))]
                for rid in sorted(built_index.dewey.iter_rids())
            ],
        }
        path = tmp_path / "legacy.idx"
        with gzip.open(path, "wb") as handle:
            handle.write(json.dumps(document).encode())
        with pytest.raises(SnapshotError, match="unsupported snapshot version 1"):
            load_index(path)


class TestRestoredMutation:
    def test_new_value_never_reuses_forgotten_sibling(self, tmp_path):
        """Regression: restore after a delete leaves a gap in the sibling
        dictionary; a brand-new value must take a fresh component, not the
        forgotten one (which would collide live Dewey IDs)."""
        relation = figure1_relation()
        engine = DiversityEngine.from_relation(relation, figure1_ordering())
        # Tombstone every Honda so the 'Honda' level-1 component is absent
        # from the persisted assignment.
        position = relation.schema.position("Make")
        honda_rids = [
            rid for rid, row in relation.iter_live() if row[position] == "Honda"
        ]
        for rid in honda_rids:
            engine.delete(rid)
        path = tmp_path / "gap.idx"
        save_index(engine.index, path)
        restored = load_index(path)
        rid = restored.relation.insert(("Acura", "TSX", "Silver", 2008, "new"))
        dewey = restored.insert(rid)
        # The new make's component must not equal any other make's.
        components = {
            restored.dewey.dewey_of(other)[0]
            for other in restored.dewey.iter_rids()
            if other != rid
        }
        assert dewey == restored.dewey.dewey_of(rid)
        assert dewey[0] not in components

    def test_epoch_survives_roundtrip(self, built_index, tmp_path):
        relation = built_index.relation
        rid = relation.insert(("Tesla", "ModelS", "Red", 2008, "rare"))
        built_index.insert(rid)
        built_index.remove(rid)
        relation.delete(rid)
        assert built_index.epoch == 2
        path = tmp_path / "cars.idx"
        save_index(built_index, path)
        assert load_index(path).epoch == 2
