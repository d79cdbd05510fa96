"""Test oracle: the version-2 snapshot writer, kept as it stood before the
format stored its tables column-major (version 3).  Version-2 files are
still read (through one converter to the version-3 shape), so the tests
write them with this code: ``[rid, row]`` lists in rid order for the row
table and ``[rid, components]`` lists in rid order for the Dewey table,
in the same canonical, digest-sealed envelope.

* :func:`build_payload` — the version-2 payload of an index.
* :func:`encode_snapshot` / :func:`save_index` — its envelope bytes, and
  those bytes written to a file.
* :func:`rewrite_store` — every snapshot of a store directory (either
  shape) rewritten as version 2 from its recovered state, so a v2 store
  can be made from a freshly built one.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

from repro.index.snapshot import FORMAT_NAME, canonical_payload_bytes

VERSION = 2
COMPRESS_LEVEL = 6


def build_payload(index, rids=None) -> dict:
    """The version-2 snapshot payload for ``index``."""
    relation = index.relation
    if rids is None:
        scope = range(len(relation))
        partial = False
    else:
        scope = sorted(set(int(rid) for rid in rids))
        partial = True
    rows = list(zip(scope, relation.rows_of(scope)))
    deleted = [rid for rid in scope if relation.is_deleted(rid)]
    postings = list(index.all_postings())
    deweys = sorted(zip(index.dewey.rids_of(postings), postings))
    return {
        "name": relation.name,
        "backend": index.backend,
        "ordering": list(index.ordering.attributes),
        "schema": [
            [attribute.name, attribute.kind.value]
            for attribute in relation.schema
        ],
        "row_slots": len(relation),
        "live_rows": len(rows) - len(deleted),
        "partial": partial,
        "rows": rows,
        "deleted": deleted,
        "deweys": deweys,
        "epoch": index.epoch,
    }


def encode_snapshot(payload: dict) -> bytes:
    """A version-2 envelope around ``payload``, stored canonically."""
    canonical = canonical_payload_bytes(payload)
    head = json.dumps({"format": FORMAT_NAME, "version": VERSION,
                       "digest": hashlib.sha256(canonical).hexdigest()},
                      separators=(",", ":")).encode("utf-8")
    return gzip.compress(head[:-1] + b',"payload":' + canonical + b"}",
                         compresslevel=COMPRESS_LEVEL)


def save_index(index, target, rids=None) -> None:
    Path(target).write_bytes(encode_snapshot(build_payload(index, rids=rids)))


def rewrite_store(data_dir) -> None:
    """Rewrite every snapshot under ``data_dir`` as version 2, at the
    state recovery reaches (so the log's records are all covered)."""
    from repro.durability import recover

    recovered = recover(data_dir)
    for store in getattr(recovered, "shards", [recovered]):
        owned = None if store._owned is None else sorted(store._owned)
        save_index(store.index, store.snapshot_path, rids=owned)
        store.close()
