#!/usr/bin/env python3
"""A live auction marketplace: streaming ingest, pagination, persistence.

Shows the operational features around the core algorithms:

* a third vertical (auction listings) with its own diversity ordering;
* a :class:`DiverseView` that keeps a front-page diverse top-k current as
  listings stream in;
* diverse pagination (page 2 never repeats page 1);
* index snapshots (build once offline, reload instantly);
* the diversity report card comparing algorithms.

Run:  PYTHONPATH=src:benchmarks python examples/marketplace_live.py
"""

import tempfile
import time
from pathlib import Path

from repro import DiversityEngine, load_index, save_index
from repro.core.baselines import collect_all
from paper.diagnostics import compare_reports, diversity_report
from paper.extensions.incremental import DiverseView
from repro.core.pagination import DiversePaginator
from repro.data.auctions import auctions_ordering, auctions_schema, generate_auctions
from repro.index.merged import MergedList
from repro.storage.relation import Relation


def main() -> None:
    # --- Streaming ingest with a live front page -------------------------
    print("=== live ingest ===")
    stream = generate_auctions(rows=3000, seed=21)
    empty = Relation(auctions_schema(), name="Auctions")
    engine = DiversityEngine.from_relation(empty, auctions_ordering())
    front_page = DiverseView(engine, "Title CONTAINS 'rare'", k=6)
    for rid in range(len(stream)):
        front_page.offer_row(stream[rid])
    print(f"ingested {len(engine.relation)} listings; "
          f"{front_page.offered} matched 'rare'")
    for item in front_page.items():
        print(f"  {item['Category']:12s} {item['Subcategory']:10s} "
              f"{item['Condition']:11s} {item['Title']}")
    categories = {item["Category"] for item in front_page.items()}
    print(f"-> {len(categories)} categories on the front page\n")

    # --- Pagination -------------------------------------------------------
    print("=== pagination: 'buy it now' electronics, 4 per page ===")
    paginator = DiversePaginator(
        engine, "Category = 'Electronics' AND BuyFormat = 'buy it now'",
        page_size=4,
    )
    for number, page in enumerate(paginator.pages(limit=3), start=1):
        subs = [item["Subcategory"] for item in page]
        print(f"  page {number}: {subs}")
    print()

    # --- Persistence --------------------------------------------------------
    print("=== snapshot round trip ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "auctions.idx"
        started = time.perf_counter()
        save_index(engine.index, path)
        saved = time.perf_counter() - started
        started = time.perf_counter()
        restored = DiversityEngine(load_index(path))
        loaded = time.perf_counter() - started
        size_kb = path.stat().st_size / 1024
        print(f"saved {size_kb:.0f} KiB in {saved:.2f}s, reloaded in {loaded:.2f}s")
        same = restored.search("Category = 'Collectibles'", k=5).deweys == \
            engine.search("Category = 'Collectibles'", k=5).deweys
        print(f"restored engine answers identically: {same}\n")

    # --- Report card ---------------------------------------------------------
    print("=== diversity report card: probe vs basic, k=8, 'vintage' ===")
    query_text = "Title CONTAINS 'vintage'"
    merged = MergedList(engine.compile(query_text).query, engine.index)
    full = collect_all(merged)
    reports = {}
    for algorithm in ("probe", "basic"):
        result = engine.search(query_text, k=8, algorithm=algorithm)
        reports[algorithm] = diversity_report(
            result.deweys, full, engine.index.dewey
        )
    print(compare_reports(reports))
    print()
    print("probe in detail:")
    print(reports["probe"].render())


if __name__ == "__main__":
    main()
