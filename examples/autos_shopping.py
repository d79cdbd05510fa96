#!/usr/bin/env python3
"""Online car shopping at scale: the paper's motivating scenario.

Generates a Yahoo!-Autos-like inventory (Section V's setup, synthetic), then
walks through the searches from the paper's introduction: browsing Hondas,
drilling into 2007 Civics, hunting rare models, and relaxing an over-
constrained query.

Run:  PYTHONPATH=src:benchmarks python examples/autos_shopping.py [rows]
"""

import sys
import time

from repro import DiversityEngine
from paper.extensions.relaxation import relaxed_search
from repro.data.autos import autos_ordering, generate_autos, rare_models


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    print(f"Generating {rows} synthetic car listings...")
    inventory = generate_autos(rows=rows, seed=42)

    started = time.perf_counter()
    engine = DiversityEngine.from_relation(inventory, autos_ordering())
    print(f"Index built in {time.perf_counter() - started:.2f}s "
          f"({engine.index!r})\n")

    # --- Scenario 1: browse a make, expect model variety -----------------
    print("User searches: Make = 'Honda' (5 results shown)")
    result = engine.search("Make = 'Honda'", k=5)
    print(result.to_table(["Make", "Model", "Color", "Year"]))
    models = {item["Model"] for item in result}
    print(f"-> {len(models)} distinct models on one page\n")

    # --- Scenario 2: drill into a model, expect color/year variety -------
    print("User refines: Make = 'Honda' AND Model = 'Civic'")
    result = engine.search("Make = 'Honda' AND Model = 'Civic'", k=5)
    print(result.to_table(["Model", "Color", "Year", "Description"]))
    colors = {item["Color"] for item in result}
    print(f"-> {len(colors)} distinct colors\n")

    # --- Scenario 3: rare listings still surface --------------------------
    rare = rare_models(inventory)
    print(f"Rare models in this inventory (the 'S2000 problem'): {rare}")
    result = engine.search("Make = 'Honda'", k=len(
        {row[1] for row in inventory if row[0] == 'Honda'}
    ))
    shown = {item["Model"] for item in result}
    surfaced = [model for model in rare if model in shown]
    print(f"-> rare models surfaced by a full diverse page: {surfaced}\n")

    # --- Scenario 4: keyword search with scoring -------------------------
    print("User searches: 'low miles' one-owner cars, Hondas preferred")
    result = engine.search(
        "Make = 'Honda' [2] OR Description CONTAINS 'low miles' [1] "
        "OR Description CONTAINS 'one owner' [1]",
        k=6,
        scored=True,
    )
    print(result.to_table(["Make", "Model", "Description"]))
    print()

    # --- Scenario 5: over-constrained query, automatic relaxation --------
    query = ("Make = 'Tesla' AND Color = 'Orange' AND "
             "Description CONTAINS 'tow package'")
    print(f"User over-constrains: {query}")
    outcome = relaxed_search(engine, query, k=5)
    print(f"strict matches: {outcome.strict_matches}; "
          f"relaxed: {outcome.relaxed}")
    print(outcome.result.to_table(["Make", "Model", "Color", "Description"]))
    print()

    # --- Timing: diverse vs naive ----------------------------------------
    for algorithm in ("naive", "onepass", "probe", "basic"):
        started = time.perf_counter()
        engine.search("Description CONTAINS 'low'", k=10, algorithm=algorithm)
        elapsed = (time.perf_counter() - started) * 1000
        print(f"{algorithm:>8}: {elapsed:7.2f} ms for k=10 over {rows} rows")


if __name__ == "__main__":
    main()
