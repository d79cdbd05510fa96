"""Tests for the write-ahead log: framing, checksums, torn tails, fsync."""

import struct

import pytest

from repro.durability.errors import WALCorruptionError, WALError
from repro.durability.wal import (
    MAGIC,
    WriteAheadLog,
    encode_frame,
    insert_record,
    read_wal,
    remove_record,
)


def _records(n, start_seq=1):
    return [
        insert_record(start_seq + i, i, ["Make", "Model", 2007 + i], [i, 0])
        for i in range(n)
    ]


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "wal.log"


class TestFraming:
    def test_roundtrip(self, wal_path):
        records = _records(5) + [remove_record(6, 2, [2, 0])]
        with WriteAheadLog.create(wal_path) as wal:
            for record in records:
                wal.append(record)
        scan = read_wal(wal_path)
        assert scan.records == records
        assert not scan.torn
        assert scan.valid_end == scan.file_size

    def test_empty_log(self, wal_path):
        WriteAheadLog.create(wal_path).close()
        scan = read_wal(wal_path)
        assert scan.records == []
        assert scan.valid_end == len(MAGIC)

    def test_magic_written(self, wal_path):
        WriteAheadLog.create(wal_path).close()
        assert wal_path.read_bytes()[: len(MAGIC)] == MAGIC

    def test_bad_magic_rejected(self, wal_path):
        wal_path.write_bytes(b"NOTAWAL!" + encode_frame(_records(1)[0]))
        with pytest.raises(WALError, match="bad magic"):
            read_wal(wal_path)

    def test_missing_file_rejected(self, wal_path):
        with pytest.raises(WALError, match="cannot read"):
            read_wal(wal_path)

    def test_partial_magic_is_empty_torn_log(self, wal_path):
        """A crash between creation and the header fsync leaves a strict
        prefix of the magic — an empty log, not corruption."""
        wal_path.write_bytes(MAGIC[:3])
        scan = read_wal(wal_path)
        assert scan.records == []
        assert scan.torn


class TestTornTail:
    """A damaged *tail* is the signature of a crash and must be dropped;
    damage anywhere earlier must raise."""

    def _write(self, path, n):
        with WriteAheadLog.create(path) as wal:
            for record in _records(n):
                wal.append(record)
        return read_wal(path)

    def test_truncated_mid_frame_header(self, wal_path):
        clean = self._write(wal_path, 3)
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[: clean.valid_end] + b"\x00\x01")
        scan = read_wal(wal_path)
        assert len(scan.records) == 3
        assert scan.torn
        assert scan.dropped_bytes == 2

    def test_truncated_mid_payload(self, wal_path):
        self._write(wal_path, 3)
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-7])  # chop inside the last payload
        scan = read_wal(wal_path)
        assert len(scan.records) == 2
        assert scan.torn

    def test_bitflip_in_final_record_dropped(self, wal_path):
        self._write(wal_path, 3)
        data = bytearray(wal_path.read_bytes())
        data[-4] ^= 0x10  # inside the last record's payload
        wal_path.write_bytes(bytes(data))
        scan = read_wal(wal_path)
        assert len(scan.records) == 2
        assert scan.torn

    def test_bitflip_before_tail_raises(self, wal_path):
        self._write(wal_path, 4)
        frame = encode_frame(_records(1)[0])
        position = len(MAGIC) + len(frame) + 12  # inside record 2 of 4
        data = bytearray(wal_path.read_bytes())
        data[position] ^= 0x10
        wal_path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError, match="mid-log"):
            read_wal(wal_path)

    def test_garbage_length_prefix_is_torn(self, wal_path):
        clean = self._write(wal_path, 2)
        data = wal_path.read_bytes()[: clean.valid_end]
        junk = struct.pack(">II", 0x7FFFFFFF, 0) + b"xx"
        wal_path.write_bytes(data + junk)
        scan = read_wal(wal_path)
        assert len(scan.records) == 2
        assert scan.torn

    def test_checksummed_non_json_is_corruption(self, wal_path):
        import zlib

        clean = self._write(wal_path, 1)
        payload = b"not json at all"
        frame = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        data = wal_path.read_bytes()[: clean.valid_end]
        # Follow with one more good record so the bad one is not the tail.
        wal_path.write_bytes(data + frame + encode_frame(_records(1)[0]))
        with pytest.raises(WALCorruptionError, match="not valid JSON"):
            read_wal(wal_path)


class TestReopen:
    def test_open_for_append_truncates_torn_tail(self, wal_path):
        with WriteAheadLog.create(wal_path) as wal:
            for record in _records(3):
                wal.append(record)
        with open(wal_path, "ab") as handle:
            handle.write(b"\xde\xad")  # torn garbage from a crash
        scan = read_wal(wal_path)
        reopened = WriteAheadLog.open_for_append(wal_path, scan)
        assert len(scan.records) == 3
        assert scan.torn
        reopened.append(remove_record(4, 0, [0, 0]))
        reopened.close()
        final = read_wal(wal_path)
        assert not final.torn
        assert [record["seq"] for record in final.records] == [1, 2, 3, 4]

    def test_open_for_append_refuses_mid_log_corruption(self, wal_path):
        with WriteAheadLog.create(wal_path) as wal:
            for record in _records(3):
                wal.append(record)
        data = bytearray(wal_path.read_bytes())
        data[len(MAGIC) + 10] ^= 0x01
        wal_path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError):
            WriteAheadLog.open_for_append(wal_path, read_wal(wal_path))

    def test_truncate_resets_log(self, wal_path):
        wal = WriteAheadLog.create(wal_path)
        for record in _records(4):
            wal.append(record)
        assert wal.appended_since_truncate == 4
        wal.truncate()
        assert wal.appended_since_truncate == 0
        assert wal_path.stat().st_size == len(MAGIC)
        wal.append(insert_record(9, 9, ["x"], [9, 0]))
        wal.close()
        scan = read_wal(wal_path)
        assert [record["seq"] for record in scan.records] == [9]


class TestFsyncBatching:
    def test_every_append_synced_by_default(self, wal_path):
        wal = WriteAheadLog.create(wal_path)
        for record in _records(3):
            wal.append(record)
        assert wal.syncs == 3
        assert wal.synced_size == wal.size
        wal.close()

    def test_batched_syncs(self, wal_path):
        wal = WriteAheadLog.create(wal_path, fsync_every=3)
        records = _records(7)
        for record in records[:5]:
            wal.append(record)
        assert wal.syncs == 1  # one batch of 3; records 4-5 pending
        assert wal.synced_size < wal.size
        for record in records[5:]:
            wal.append(record)
        assert wal.syncs == 2
        wal.close()  # close syncs the remainder
        assert read_wal(wal_path).records == records

    def test_fsync_disabled_until_explicit(self, wal_path):
        wal = WriteAheadLog.create(wal_path, fsync_every=0)
        for record in _records(5):
            wal.append(record)
        assert wal.syncs == 0
        wal.sync()
        assert wal.syncs == 1
        assert wal.synced_size == wal.size
        wal.close()

    def test_closed_wal_rejects_appends(self, wal_path):
        wal = WriteAheadLog.create(wal_path)
        wal.close()
        with pytest.raises(WALError, match="closed"):
            wal.append(_records(1)[0])
        with pytest.raises(WALError, match="closed"):
            wal.sync()
        wal.close()  # idempotent
