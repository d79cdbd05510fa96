"""The six ladder workloads: inputs, deployments and why each exists.

Everything the program sees is generated here from ``--seed``: query
strings, ``k``, algorithm names and rows.  The dataset itself is fixed
(``AutosSpec(seed=42)``), so two seeds differ in traffic, not in data.

A workload is a *segment recipe*: an exact count of operations per class
(``("probe", 700), ("insert", 7), ...``) that :class:`OpSource` shuffles
into one segment after another.  Exact counts (instead of drawing the
class per operation) keep every segment's mix identical, so a segment is
a comparable unit of work on every seed and every commit; the run length
is then "whole segments until ``--seconds`` have been measured".
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlencode

from repro.core.engine import DiversityEngine
from repro.data.autos import (
    COLORS,
    MAKES_MODELS,
    YEARS,
    AutosSpec,
    autos_ordering,
    generate_autos,
)
from repro.data.workload import WorkloadGenerator, WorkloadSpec
from repro.query.query import Query
from repro.query.rewrite import to_query_string
from repro.server import ServerThread
from repro.serving import ServingEngine
from repro.storage.relation import Relation

DEFAULT_ROWS = 30_000
DATASET_SEED = 42
SELECTIVITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
ZIPF_POOL = 500
ZIPF_S = 1.0
FRESH_ROWS = 2_000          # distinct new listings cycled by insert ops
DURABLE_HISTORY = 1_000     # writes logged before the timed restart

READ, INSERT, DELETE = "read", "insert", "delete"
FORM_FIELDS = (("Make", tuple(MAKES_MODELS)), ("Year", tuple(YEARS)),
               ("Color", tuple(COLORS)))


# ----------------------------------------------------------------------
# Dataset
# ----------------------------------------------------------------------
def build_dataset(rows: int) -> Relation:
    """The one autos dataset every rung runs on."""
    return generate_autos(AutosSpec(rows=rows, seed=DATASET_SEED))


def clone_relation(relation: Relation) -> Relation:
    """An independent copy (same rids), for a deployment that will mutate."""
    return Relation.from_rows(relation.schema, iter(relation), name=relation.name)


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
class Op:
    """One generated operation; the program is handed only its payload."""

    __slots__ = ("kind", "cls", "text", "query", "k", "algorithm", "scored",
                 "row", "rid", "path")

    def __init__(self, kind, cls, text=None, query=None, k=0, algorithm="",
                 scored=False, row=None, rid=None):
        self.kind = kind
        self.cls = cls
        self.text = text
        self.query = query
        self.k = k
        self.algorithm = algorithm
        self.scored = scored
        self.row = row
        self.rid = rid
        self.path = None
        if kind == READ:
            params = {"q": text, "k": k, "algorithm": algorithm}
            if scored:
                params["scored"] = "1"
            self.path = "/search?" + urlencode(params)

    def fingerprint(self) -> str:
        """Canonical text of the payload (what ``inputs.lock.json`` hashes)."""
        if self.kind == READ:
            return f"R|{self.text}|{self.k}|{self.algorithm}|{int(self.scored)}"
        if self.kind == INSERT:
            return f"I|{self.rid}|{json.dumps(self.row)}"
        return f"D|{self.rid}"


class OpSource:
    """Seeded, endless operation stream for one workload.

    Tracks which rids are live so that every ``delete`` names a row that
    exists and every ``insert`` knows the rid it will be acknowledged with
    (rids are dense and the stream is the relation's only writer).
    """

    def __init__(self, relation: Relation, workload: "Workload", seed: int):
        self.workload = workload
        self.rng = random.Random(f"ladder:{workload.name}:{seed}")
        self._generator = WorkloadGenerator(relation, WorkloadSpec())
        self._live = [rid for rid, _ in relation.iter_live()]
        self._next_rid = len(relation)
        self._fresh = [
            tuple(row) for row in generate_autos(
                AutosSpec(rows=FRESH_ROWS, seed=self.rng.randrange(2 ** 31)))
        ]
        self._inserted = 0
        self._seen: set = set()
        self._pool: Optional[List[Op]] = None
        self._pool_cdf: List[float] = []
        self._makers: Dict[str, Callable[[], Op]] = {
            "probe": self._probe,
            "probe-k10": lambda: self._scan("probe-k10", "probe", 10),
            "onepass-k10": lambda: self._scan("onepass-k10", "onepass", 10),
            "onepass-k50": lambda: self._scan("onepass-k50", "onepass", 50),
            "onepass-scored": self._scored_scan,
            "naive-2pred": self._naive,
            "zipf-read": self._zipf_read,
            "fresh-probe": lambda: self._fresh_read("fresh-probe", "probe"),
            "fresh-naive": lambda: self._fresh_read("fresh-naive", "naive"),
            "insert": self._insert,
            "delete": self._delete,
        }

    # -- stream ---------------------------------------------------------
    def segment(self, scale: float = 1.0) -> List[Op]:
        """The next segment: the recipe's exact class counts, shuffled."""
        classes: List[str] = []
        for cls, count in self.workload.segment:
            classes.extend([cls] * max(1, round(count * scale)))
        self.rng.shuffle(classes)
        return [self._makers[cls]() for cls in classes]

    def writes(self, count: int) -> List[Op]:
        """``count`` alternating insert/delete operations."""
        return [self._insert() if i % 2 == 0 else self._delete()
                for i in range(count)]

    # -- Figure 4 queries -------------------------------------------------
    def _fig4(self, predicates: int, selectivity: float, weighted: bool = False,
              disjunctive: bool = False) -> Query:
        # One generator (one pass over the relation for value statistics)
        # serves every parameter cell: the spec is swapped per draw.
        self._generator.spec = WorkloadSpec(
            predicates=predicates, selectivity=selectivity,
            weighted=weighted, disjunctive=disjunctive)
        return self._generator.one_query(self.rng)

    def _read(self, cls: str, query: Query, k: int, algorithm: str,
              scored: bool = False) -> Op:
        return Op(READ, cls, text=to_query_string(query), query=query, k=k,
                  algorithm=algorithm, scored=scored)

    def _random_fig4(self) -> Query:
        return self._fig4(self.rng.randrange(3), self.rng.choice(SELECTIVITIES))

    def _probe(self) -> Op:
        # Two k=10 for every k=25: with equal shares the median would sit
        # in the gap between the two latency clusters and flip between them.
        return self._read("probe", self._random_fig4(),
                          self.rng.choice((10, 10, 25)), "probe")

    def _scan(self, cls: str, algorithm: str, k: int) -> Op:
        return self._read(cls, self._random_fig4(), k, algorithm)

    # The scored and naive classes draw *narrow* predicates (the 0.1 cell is
    # the only one whose candidates are all ~10 % lists): their cost stays
    # below one-pass k=50, so the slowest 1 % of scan-direct is the upper end
    # of one homogeneous class and p99 does not depend on how many
    # 25 000-row result sets a seed happens to draw.
    def _scored_scan(self) -> Op:
        # Two values of one attribute ("Year = 2004 OR Year = 2008") take
        # 60-90 ms scored on the compressed backend against 2-4 ms for any
        # two different attributes (WAND pivoting over disjoint lists).  A
        # third of the draws would be such pairs and would be 60 % of this
        # workload's time, so they are left out here and recorded in the
        # README as a finding for an issue of their own.
        while True:
            query = self._fig4(2, 0.1, weighted=True, disjunctive=True)
            if len(query.attributes()) == 2:
                return self._read("onepass-scored", query, 10, "onepass",
                                  scored=True)

    def _naive(self) -> Op:
        return self._read("naive-2pred", self._fig4(2, 0.1), 10, "naive")

    # -- Zipf pool (serving-zipf-mutating, http-stack) --------------------
    def pool(self) -> List[Op]:
        """The Zipf pool, most popular first (built on first use)."""
        if self._pool is not None:
            return self._pool
        # Rank 1 is the landing page (match-all); the other ranks alternate
        # the two remaining WORKLOAD_MIX autos regimes, so every seed puts
        # the same Zipf mass on every regime and only the literals differ.
        pool = [self._read("zipf-read", Query.match_all(), 5, "auto")]
        for rank in range(2, ZIPF_POOL + 1):
            if rank % 2 == 0:
                pool.append(self._read("zipf-read", self._fig4(2, 0.1), 40,
                                       "auto"))
            else:
                pool.append(self._read(
                    "zipf-read", self._fig4(1, 0.5, weighted=True), 10,
                    "auto", scored=True))
        weights = [1.0 / rank ** ZIPF_S for rank in range(1, ZIPF_POOL + 1)]
        self._pool = pool
        self._pool_cdf = list(itertools.accumulate(weights))
        return pool

    def _zipf_read(self) -> Op:
        pool = self.pool()
        point = self.rng.random() * self._pool_cdf[-1]
        return pool[bisect.bisect_left(self._pool_cdf, point)]

    # -- never-repeating reads (sharded-replicated) -----------------------
    def _fresh_read(self, cls: str, algorithm: str) -> Op:
        # The Figure 4 generator only ever picks among ~30 frequent
        # predicates, far too few pairs to outrun a 4 096-entry cache, so
        # each form field below is added with probability 1/2 (~10^6
        # distinct searches).  Rows are routed on Make: that conjunct makes
        # the query answerable from one shard.
        while True:
            if algorithm == "naive":
                query = self._fig4(2, 0.2)
            else:
                query = self._fig4(2, self.rng.choice(SELECTIVITIES))
            for attribute, values in FORM_FIELDS:
                if self.rng.random() < 0.5:
                    query = Query.conjunction(
                        Query.scalar(attribute, self.rng.choice(values)), query)
            op = self._read(cls, query, 10, algorithm)
            if op.text not in self._seen:
                self._seen.add(op.text)
                return op

    # -- writes -----------------------------------------------------------
    def _insert(self) -> Op:
        row = self._fresh[self._inserted % len(self._fresh)]
        self._inserted += 1
        rid = self._next_rid
        self._next_rid += 1
        self._live.append(rid)
        return Op(INSERT, "insert", row=row, rid=rid)

    def _delete(self) -> Op:
        slot = self.rng.randrange(len(self._live))
        rid = self._live[slot]
        self._live[slot] = self._live[-1]
        self._live.pop()
        return Op(DELETE, "delete", rid=rid)


# ----------------------------------------------------------------------
# Deployments
# ----------------------------------------------------------------------
class Answer:
    """One reply, reduced to what the checks compare."""

    __slots__ = ("ok", "rids", "deweys", "scores", "degraded",
                 "probe_violation", "scan_violation", "algorithm")

    def __init__(self, ok, rids=(), deweys=(), scores=(), degraded=False,
                 probe_violation=False, scan_violation=False, algorithm=""):
        self.ok = ok
        self.rids = list(rids)
        self.deweys = [tuple(dewey) for dewey in deweys]
        self.scores = list(scores)
        self.degraded = degraded
        self.probe_violation = probe_violation  # Theorem 2: > 2k+1 probes
        self.scan_violation = scan_violation    # one-pass scan restarted
        self.algorithm = algorithm


class EngineDeployment:
    """A ``DiversityEngine`` or ``ServingEngine`` called in-process."""

    def __init__(self, engine):
        self.engine = engine

    def search(self, op: Op):
        return self.engine.search(op.text, op.k, algorithm=op.algorithm,
                                  scored=op.scored)

    def insert(self, op: Op) -> int:
        return self.engine.insert(op.row)

    def delete(self, op: Op) -> bool:
        return self.engine.delete(op.rid)

    def answer(self, raw) -> Answer:
        stats = raw.stats
        return Answer(
            ok=True, rids=raw.rids, deweys=raw.deweys, scores=raw.scores,
            degraded=bool(stats.get("degraded")),
            probe_violation=bool(stats.get("probe_bound_exceeded")),
            scan_violation=stats.get("scan_passes", 1) > 1,
            algorithm=stats.get("algorithm_selected", raw.algorithm),
        )

    @property
    def index(self):
        inner = self.engine
        while hasattr(inner, "engine"):
            inner = inner.engine
        return inner.index

    @property
    def serving(self) -> Optional[ServingEngine]:
        return self.engine if isinstance(self.engine, ServingEngine) else None

    def close(self) -> None:
        self.engine.close()


class HttpDeployment(EngineDeployment):
    """The same engine behind ``ServerThread``, read over one keep-alive
    ``http.client`` connection; writes (the server has no write route) go
    to the engine in-process, as an ingest job beside the server would."""

    def __init__(self, engine: ServingEngine):
        import http.client

        super().__init__(engine)
        self.server = ServerThread(engine).start()
        host, port = self.server.address
        self.connection = http.client.HTTPConnection(host, port, timeout=30)
        self.connection.connect()

    def search(self, op: Op):
        return self.get(op.path)

    def get(self, path: str):
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return response.status, response.read()

    def answer(self, raw) -> Answer:
        status, body = raw
        if status != 200:
            return Answer(ok=False)
        payload = json.loads(body)
        items = payload["items"]
        return Answer(
            ok=True,
            rids=[item["rid"] for item in items],
            deweys=[item["dewey"] for item in items],
            scores=[item["score"] for item in items],
            degraded=bool(payload.get("degraded")),
            algorithm=payload.get("algorithm", ""),
        )

    def close(self) -> None:
        self.connection.close()
        self.server.stop()
        super().close()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: exact operations per class in one segment (see module docstring)
    segment: Tuple[Tuple[str, int], ...]
    #: ``build(relation, data_dir) -> deployment``; everything inside is
    #: the program's own set-up work and is what ``setup_s`` times.
    build: Callable[[Relation, Optional[str]], EngineDeployment]
    mutates: bool = False
    durable: bool = False
    backend: str = "array"
    #: reads the traced run replays up the ladder
    ladder_reads: int = 300
    #: request the whole Zipf pool once before the warm-up
    prefill: bool = False


def _direct(backend: str):
    def build(relation, data_dir):
        return EngineDeployment(
            DiversityEngine.from_relation(relation, autos_ordering(),
                                          backend=backend))
    return build


def _serving(**options):
    def build(relation, data_dir):
        return EngineDeployment(
            ServingEngine.from_relation(relation, autos_ordering(), **options))
    return build


def _http(relation, data_dir):
    return HttpDeployment(
        ServingEngine.from_relation(relation, autos_ordering()))


def _recover(relation, data_dir):
    # A durable deployment comes up by recovery on every start but its
    # first, so the restart path is this workload's set-up.
    return EngineDeployment(ServingEngine.recover(data_dir))


def create_durable(relation: Relation, data_dir: str,
                   backend: str = "array") -> ServingEngine:
    """First start of the durable deployment (flush policy fixed here)."""
    return ServingEngine.from_relation(
        relation, autos_ordering(), backend=backend, data_dir=data_dir,
        fsync_every=1, snapshot_every=2500)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "probe-direct",
        "Unsharded array index, no cache, fresh UProbe queries: all index "
        "seeks and core.probing, so a posting or merged-cursor gain shows "
        "here and a change to the stack above must not.",
        (("probe", 2000),),
        _direct("array"),
    ),
    Workload(
        "scan-direct",
        "Compressed index, one-pass (k=10, k=50, scored) and naive scans: "
        "sequential block decode and OnePassTree upkeep dominate and seeks "
        "are few, the opposite use of the index from probe-direct.",
        (("onepass-k10", 60), ("onepass-k50", 12), ("onepass-scored", 20),
         ("naive-2pred", 8)),
        _direct("compressed"),
        backend="compressed",
        ladder_reads=100,
    ),
    Workload(
        "serving-zipf-mutating",
        "ServingEngine, Zipf reads from a 500-query pool that fits the cache, "
        "0.5% writes that each bump the epoch: hit path, plan cache, planner "
        "and invalidation measured together.",
        (("zipf-read", 1990), ("insert", 5), ("delete", 5)),
        _serving(),
        mutates=True,
    ),
    Workload(
        "sharded-replicated",
        "4 shards x 2 replicas, never-repeating reads (every read misses, "
        "the result cache overflows): what sharding and replication cost "
        "on the healthy scan (probe) and gather (naive) paths.",
        (("fresh-probe", 450), ("fresh-naive", 50)),
        _serving(shards=4, replicas=2, workers=0),
    ),
    Workload(
        "durable-writes",
        "WAL with fsync_every=1 and a checkpoint every 2500 writes, 70% "
        "writes: the only workload where durability does most of the work; "
        "set-up is recovery from snapshot plus log tail.",
        (("insert", 1250), ("delete", 1250), ("probe-k10", 1071)),
        _recover,
        mutates=True,
        durable=True,
    ),
    Workload(
        "http-stack",
        "The serving-zipf-mutating read pool over ServerThread and one "
        "keep-alive connection, reads only: this minus the in-process reads "
        "is the server layer (parse, admission, executor hop, JSON).",
        (("zipf-read", 2000),),
        _http,
        # Without writes the steady state is "everything cached"; a window
        # that still meets ~1 % first-time queries has its p99 flip between
        # the hit tail and a miss.
        prefill=True,
    ),
)}
