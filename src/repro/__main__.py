"""Command-line interface: build indexes, run diverse queries, explore.

Examples::

    # Build an index from a typed CSV (see repro.storage.csvio) and save it.
    python -m repro build cars.csv --ordering Make,Model,Color,Year \
        --out cars.idx

    # One-shot diverse query against a saved index.
    python -m repro query cars.idx "Make = 'Honda'" -k 5

    # Scored search with a different algorithm.
    python -m repro query cars.idx \
        "Make = 'Honda' [2] OR Description CONTAINS 'low miles'" \
        -k 5 --algorithm onepass --scored

    # Interactive shell (reads one query per line).
    python -m repro shell cars.idx

    # No data handy? Explore the paper's Figure 1 example.
    python -m repro demo

    # Drive a generated workload and export the metrics registry
    # (add --check to fail when a paper access-bound was violated).
    python -m repro metrics cars.idx --shards 3 --check --out metrics.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .core.engine import ALGORITHMS, AUTO, DiversityEngine
from .data.paper_example import figure1_ordering, figure1_relation
from .durability import RecoveryError
from .index.inverted import InvertedIndex
from .index.postings import BACKENDS
from .index.snapshot import load_index, save_index
from .core.ordering import DiversityOrdering
from .observability import get_registry, register_postings_collector
from .parallel import WORKER_MODES
from .query.parser import QueryParseError
from .resilience import ResilienceError, ResiliencePolicy
from .serving.engine import (
    CACHE_TOTALS,
    ServingEngine,
    build_index,
    check_shape,
    durable_stores,
)
from .storage.csvio import read_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Diverse top-k query answering (ICDE 2008 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="index a CSV and save a snapshot")
    build.add_argument("csv", type=Path, help="typed CSV file (name:kind header)")
    build.add_argument(
        "--ordering",
        required=True,
        help="comma-separated diversity ordering, highest priority first",
    )
    build.add_argument("--out", type=Path, default=None, help="snapshot path")
    build.add_argument(
        "--backend", choices=BACKENDS, default="array"
    )
    durability = build.add_argument_group(
        "durability",
        "initialise a crash-safe data directory instead of (or alongside) a "
        "bare snapshot file; mutations against it are write-ahead-logged",
    )
    durability.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="create a durable store (snapshot + write-ahead log) here",
    )
    durability.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="re-snapshot and truncate a store's log whenever it reaches "
        "N records (0 = only on demand)",
    )
    durability.add_argument(
        "--fsync-every",
        type=int,
        default=1,
        metavar="N",
        help="fsync the WAL every N records (1 = every record, full "
        "durability; larger batches trade the tail of a crash for speed)",
    )
    durability.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition the durable store across N shards (one WAL + "
        "snapshot per shard); only meaningful with --data-dir",
    )
    durability.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help="record a replication factor of R in the manifest: recover/"
        "serve grow each shard to R bit-identical copies with automatic "
        "failover (only replica 0 is persisted; the rest bootstrap from "
        "its snapshot + WAL)",
    )

    query = commands.add_parser("query", help="run one diverse query")
    query.add_argument(
        "index", type=Path,
        help="snapshot from 'build', or a --data-dir to recover and query",
    )
    query.add_argument("text", help="query text, e.g. \"Make = 'Honda'\"")
    _query_options(query)

    shell = commands.add_parser("shell", help="interactive query shell")
    shell.add_argument(
        "index", type=Path,
        help="snapshot from 'build', or a --data-dir to recover and query",
    )
    _query_options(shell)

    demo = commands.add_parser("demo", help="explore the paper's Figure 1 data")
    _query_options(demo)
    demo.add_argument("text", nargs="?", default="Make = 'Honda'")

    recover_cmd = commands.add_parser(
        "recover",
        help="recover a durable data directory and report what replay did",
    )
    recover_cmd.add_argument("data_dir", type=Path, help="durable store root")
    recover_cmd.add_argument(
        "--query",
        default=None,
        metavar="TEXT",
        help="optionally run one query against the recovered index",
    )
    _query_options(recover_cmd)

    plan_cmd = commands.add_parser(
        "plan",
        help="inspect the auto planner: features + probe/naive prices",
    )
    plan_cmd.add_argument(
        "action", choices=["explain"],
        help="'explain' prints auto's candidates' prices for one query, "
        "and --algorithm's price when it is not one of them",
    )
    plan_cmd.add_argument(
        "index", type=Path, nargs="?", default=None,
        help="snapshot or durable data directory; omitted = Figure 1 demo",
    )
    plan_cmd.add_argument(
        "text", nargs="?", default=None,
        help="query text (default: \"Make = 'Honda'\")",
    )
    _query_options(plan_cmd)

    serve_cmd = commands.add_parser(
        "serve",
        help="serve diverse queries over HTTP (stdlib asyncio front-end)",
    )
    serve_cmd.add_argument(
        "index", type=Path, nargs="?", default=None,
        help="snapshot or durable data directory; omitted = Figure 1 demo",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8080,
        help="TCP port to bind (0 = pick a free port)",
    )
    serve_cmd.add_argument(
        "--server-workers", type=int, default=1, metavar="N",
        help="engine executor threads behind the admission queue",
    )
    serve_cmd.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="admission queue bound (requests beyond it are shed)",
    )
    serve_cmd.add_argument(
        "--default-deadline-ms", type=float, default=1000.0, metavar="MS",
        help="deadline for requests that do not set one "
        "(param deadline_ms or header X-Repro-Deadline-Ms)",
    )
    serve_cmd.add_argument(
        "--quota-rate", type=float, default=0.0, metavar="QPS",
        help="per-tenant token refill rate (X-Repro-Tenant header; "
        "0 disables quotas)",
    )
    serve_cmd.add_argument(
        "--quota-burst", type=float, default=10.0, metavar="N",
        help="per-tenant token bucket capacity",
    )
    _query_options(serve_cmd)

    metrics_cmd = commands.add_parser(
        "metrics",
        help="drive a generated workload and export the metrics registry",
    )
    metrics_cmd.add_argument(
        "index", type=Path, nargs="?", default=None,
        help="snapshot or durable data directory; omitted = Figure 1 demo",
    )
    metrics_cmd.add_argument(
        "--algorithms",
        default="probe,onepass",
        help="comma-separated algorithms the workload drives "
        "(default: probe,onepass — the two paper access-bound paths)",
    )
    metrics_cmd.add_argument(
        "--repeat", type=int, default=2, metavar="N",
        help="workload passes (repeats exercise the serving caches)",
    )
    metrics_cmd.add_argument(
        "--limit", type=int, default=8, metavar="N",
        help="values per attribute in the generated workload",
    )
    metrics_cmd.add_argument(
        "--format", choices=["json", "prometheus"], default="json",
        help="export format: the repro-metrics JSON snapshot, or the "
        "Prometheus text exposition",
    )
    metrics_cmd.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write the export here instead of stdout",
    )
    metrics_cmd.add_argument(
        "--check", action="store_true",
        help="exit 5 when a paper access-bound violation counter is nonzero "
        "(probe 2k bound, one-pass single-scan property)",
    )
    _query_options(metrics_cmd)

    args = parser.parse_args(argv)
    command = {
        "build": _cmd_build, "query": _cmd_query, "shell": _cmd_shell,
        "recover": _cmd_recover, "metrics": _cmd_metrics, "plan": _cmd_plan,
        "serve": _cmd_serve, "demo": _cmd_demo,
    }[args.command]
    try:
        return command(args)
    except ValueError as error:
        # A value the stack refuses (a negative deadline or retry count, a
        # zero queue depth, a deployment shape it cannot run): one line
        # and exit 2, as for a flag argparse itself rejects.
        print(str(error), file=sys.stderr)
        raise SystemExit(2) from None


def _query_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-k", type=int, default=10, help="results to return")
    parser.add_argument(
        "--algorithm", choices=list(ALGORITHMS) + [AUTO], default="probe",
        help="fixed algorithm, or 'auto' to let the cost model pick "
        "(see 'python -m repro plan explain')",
    )
    parser.add_argument("--scored", action="store_true", help="scored search")
    parser.add_argument(
        "--stats", action="store_true", help="print probe statistics"
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve repeated queries from the plan/result caches",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="after running, write the process metrics registry snapshot "
        "(repro-metrics JSON) here",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition the index across N shards and answer by fan-out + "
        "diverse-merge (answers are identical to --shards 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the sharded gather fan-out (0 or 1 = "
        "shard after shard on the calling thread)",
    )
    parser.add_argument(
        "--worker-mode",
        choices=WORKER_MODES,
        default="process",
        help="how --workers starts its processes: 'process' picks fork "
        "where the platform has it, else spawn; or an explicit "
        "'fork'/'spawn'",
    )
    resilience = parser.add_argument_group(
        "resilience (sharded deployments)",
        "per-query failure budgets; gather algorithms degrade to the "
        "surviving shards, scan algorithms fail fast with a structured error",
    )
    resilience.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-query deadline budget (default: unbounded)",
    )
    resilience.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="bounded retries per shard call on transient faults (default 2)",
    )
    replication = parser.add_argument_group(
        "replication (sharded deployments)",
        "R bit-identical copies per shard behind automatic failover: "
        "answers stay exact (never degraded) while at least one replica "
        "of every shard survives",
    )
    replication.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="R",
        help="replicas per shard (default: 1, or a durable store's "
        "manifest value when recovering)",
    )


def _open_serving(path: Path | None, args) -> ServingEngine:
    """The deployment the flags describe — the one engine a command opens,
    and closes by leaving its ``with`` block.

    ``path`` is a bare snapshot file, a durable data directory to recover,
    or ``None`` for the paper's Figure 1 example.  Exits 4 when recovery
    fails; a flag value or combination the stack refuses raises the
    ``ValueError`` :func:`main` turns into exit 2.
    """
    options = dict(
        workers=args.workers,
        worker_mode=args.worker_mode,
        policy=ResiliencePolicy(
            deadline_ms=args.deadline_ms, max_retries=args.retries,
        ),
    )
    if path is None:
        index = InvertedIndex.build(figure1_relation(), figure1_ordering())
    else:
        index = load_index(path) if path.is_file() else None
    try:
        if index is None:
            # The build-time --replicas choice lives in the manifest;
            # recovery re-grows to that factor unless overridden.
            serving = ServingEngine.recover(path, replicas=args.replicas, **options)
        elif (args.shards, args.replicas or 1) == (1, 1):
            serving = ServingEngine(DiversityEngine(index))
        else:
            # Snapshots store one index; sharding is a deployment decision
            # made at serve time, so its rows are re-partitioned.
            serving = ServingEngine.from_relation(
                index.relation, index.ordering, backend=index.backend,
                shards=args.shards, replicas=args.replicas or 1, **options,
            )
    except RecoveryError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        raise SystemExit(4) from None
    register_postings_collector(get_registry(), serving.engine.index)
    return serving


def _search(serving: ServingEngine, args):
    """The search callable ``--cache``/``--no-cache`` selects: through the
    serving caches, or past them straight to the engine."""
    return serving.search if args.cache else serving.engine.search


def _cmd_build(args) -> int:
    if args.out is None and args.data_dir is None:
        print("build needs --out and/or --data-dir", file=sys.stderr)
        return 2
    check_shape(args.shards, args.replicas)
    started = time.perf_counter()
    relation = read_csv(args.csv, name=args.csv.stem)
    ordering = DiversityOrdering(
        [name.strip() for name in args.ordering.split(",") if name.strip()]
    )
    destinations = []
    if args.data_dir is not None:
        index = build_index(
            relation, ordering, backend=args.backend, shards=args.shards,
            replicas=args.replicas, data_dir=args.data_dir,
            snapshot_every=args.snapshot_every, fsync_every=args.fsync_every,
        )
        for store in durable_stores(index):
            store.close()
        if args.shards > 1:
            suffix = (f", x{args.replicas} replicas on recovery"
                      if args.replicas > 1 else "")
            destinations.append(
                f"{args.data_dir} ({args.shards} durable shards{suffix})"
            )
        else:
            destinations.append(f"{args.data_dir} (durable store)")
    if args.out is not None:
        index = InvertedIndex.build(relation, ordering, backend=args.backend)
        save_index(index, args.out)
        destinations.append(str(args.out))
    elapsed = time.perf_counter() - started
    print(
        f"indexed {len(relation)} rows "
        f"({len(ordering)} diversity levels, backend={args.backend}) "
        f"in {elapsed:.2f}s -> {', '.join(destinations)}"
    )
    return 0


def _cmd_recover(args) -> int:
    with _open_serving(args.data_dir, args) as serving:
        stores = durable_stores(serving.engine.index)
        for store in stores:
            label = store.wal.path.parent
            print(f"{label}: {store.recovery.describe()}")
        relation = serving.engine.relation
        print(
            f"recovered {relation.live_count} live rows "
            f"({len(relation)} slots) at epoch {serving.epoch} "
            f"across {len(stores)} store(s)"
        )
        if args.query is not None:
            return _run_query(serving, args, args.query)
    return 0


def _run_query(serving: ServingEngine, args, text: str) -> int:
    started = time.perf_counter()
    try:
        result = _search(serving, args)(
            text, k=args.k, algorithm=args.algorithm, scored=args.scored
        )
    except QueryParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    except ResilienceError as error:
        # Structured failure from the sharded fan-out: deadline exhausted,
        # or shards lost that the scan algorithms cannot answer without.
        print(f"unavailable: {error}", file=sys.stderr)
        _write_metrics_snapshot(args)
        return 3
    elapsed = (time.perf_counter() - started) * 1000
    print(result.to_table())
    degraded = ""
    if result.stats.get("degraded"):
        degraded = (
            f" DEGRADED {result.stats['shards_failed']}/"
            f"{result.stats['shards_total']} shards lost;"
        )
    label = args.algorithm
    if args.algorithm == AUTO and result.stats.get("algorithm_selected"):
        label = f"auto->{result.stats['algorithm_selected']}"
    print(
        f"[{len(result)} results, {label}"
        f"{' scored' if args.scored else ''},{degraded} {elapsed:.2f} ms]"
    )
    if args.stats:
        stats = dict(result.stats)
        if args.cache:  # the cache's running totals, beside the answer's own
            stats.update((f"cache_{name}", getattr(serving.stats, name))
                         for name, _ in CACHE_TOTALS)
        for key, value in sorted(stats.items()):
            print(f"  {key}: {value}")
    _write_metrics_snapshot(args)
    return 0


def _cmd_serve(args) -> int:
    """Run the HTTP front-end until SIGTERM/SIGINT, then drain."""
    from .server import ServerConfig, run_server

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=max(1, args.server_workers),
        queue_depth=args.queue_depth,
        default_deadline_ms=args.default_deadline_ms,
        default_k=args.k,
        default_algorithm=args.algorithm,
        quota_rate_per_s=args.quota_rate,
        quota_burst=args.quota_burst,
    )
    try:
        # Drain has finished every admitted request by the time run_server
        # returns, so closing then never cuts an answer off mid-execution.
        with _open_serving(args.index, args) as serving:
            return run_server(serving, config)
    finally:
        _write_metrics_snapshot(args)


def _write_metrics_snapshot(args) -> None:
    """Honour ``--metrics-out`` (a no-op when the flag is absent)."""
    path = getattr(args, "metrics_out", None)
    if path is None:
        return
    import json

    document = get_registry().snapshot()
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True, default=str) + "\n"
    )


def _workload_queries(engine: DiversityEngine, limit: int) -> list:
    """A scalar-predicate workload generated from the index vocabulary.

    One equality query per (attribute, value) up to ``limit`` values per
    attribute, plus one OR and one AND combination per attribute pair —
    enough shape diversity to exercise union and leapfrog cursors.
    """
    from .query.query import Query

    scalars = []
    for attribute in engine.ordering.attributes:
        values = engine.index.vocabulary(attribute)[: max(0, limit)]
        scalars.extend(Query.scalar(attribute, value) for value in values)
    combos = []
    for first, second in zip(scalars, scalars[1:]):
        combos.append(first | second)
    if len(scalars) >= 2:
        combos.append(scalars[0] & scalars[1])
    return scalars + combos


def _bound_violations(snapshot: dict) -> float:
    """Sum of the paper access-bound violation counters in a snapshot."""
    return sum(
        counter["value"]
        for counter in snapshot.get("counters", ())
        if counter["name"] in (
            "repro_probe_bound_violations_total",
            "repro_onepass_scan_violations_total",
            "repro_plan_bound_violations_total",
        )
    )


def _cmd_plan(args) -> int:
    """``plan explain``: print the auto planner's verdict for one query."""
    from .planner import render_explain

    index_arg, text = args.index, args.text
    if text is None:
        # Two optional positionals: a single argument that is not an
        # existing index path is the query text (demo data).
        if index_arg is not None and not index_arg.exists():
            index_arg, text = None, str(index_arg)
        else:
            text = "Make = 'Honda'"
    with _open_serving(index_arg, args) as serving:
        engine = serving.engine
        try:
            prepared = engine.prepare(text, args.scored)
            decision = engine.plan(prepared, args.k, args.scored)
        except QueryParseError as error:
            print(f"parse error: {error}", file=sys.stderr)
            return 2
        except ResilienceError as error:
            print(f"unavailable: {error}", file=sys.stderr)
            return 3
    print(f"query: {prepared.describe()}")
    named = None if args.algorithm == AUTO else args.algorithm
    print(render_explain(decision, named))
    _write_metrics_snapshot(args)
    return 0


def _cmd_metrics(args) -> int:
    import json

    algorithms = [
        name.strip() for name in args.algorithms.split(",") if name.strip()
    ]
    valid = ALGORITHMS + (AUTO,)
    unknown = [name for name in algorithms if name not in valid]
    if not algorithms or unknown:
        print(
            f"--algorithms must name algorithms from {valid}, "
            f"got {args.algorithms!r}",
            file=sys.stderr,
        )
        return 2
    with _open_serving(args.index, args) as serving:
        queries = _workload_queries(serving.engine, args.limit)
        search = _search(serving, args)
        failures = 0
        for _ in range(max(1, args.repeat)):
            for query in queries:
                for algorithm in algorithms:
                    try:
                        search(query, k=args.k, algorithm=algorithm,
                               scored=args.scored)
                    except ResilienceError:
                        # Degradation is part of the point: the workload
                        # keeps going and the failure lands in the
                        # metrics.
                        failures += 1
        registry = get_registry()
        snapshot = registry.snapshot()
        if args.format == "prometheus":
            text = registry.render_prometheus()
        else:
            text = json.dumps(snapshot, indent=2, sort_keys=True, default=str) + "\n"
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out} ({args.format}, "
              f"{len(queries) * len(algorithms) * max(1, args.repeat)} "
              f"workload queries, {failures} unavailable)")
    else:
        sys.stdout.write(text)
    if args.check:
        violations = _bound_violations(snapshot)
        if violations:
            print(
                f"BOUND VIOLATIONS: {violations:g} "
                "(probe 2k bound / one-pass single-scan)",
                file=sys.stderr,
            )
            return 5
        print("bounds ok: probe <= 2k+1, one-pass single scan",
              file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    with _open_serving(args.index, args) as serving:
        return _run_query(serving, args, args.text)


def _cmd_shell(args) -> int:
    with _open_serving(args.index, args) as serving:
        print(
            f"repro shell — {serving.engine.index!r}\n"
            f"ordering: {serving.engine.ordering!r}\n"
            "enter a query per line (blank or 'exit' quits):"
        )
        for line in sys.stdin:
            text = line.strip()
            if not text or text.lower() in ("exit", "quit", r"\q"):
                break
            _run_query(serving, args, text)
            print()
    return 0


def _cmd_demo(args) -> int:
    print("Figure 1(a) Cars relation (15 rows), "
          "ordering Make < Model < Color < Year < Description\n")
    with _open_serving(None, args) as serving:
        return _run_query(serving, args, args.text)


if __name__ == "__main__":
    sys.exit(main())
