#!/usr/bin/env python3
"""Quickstart: diverse top-k search over the paper's Figure 1 database.

Run:  PYTHONPATH=src:benchmarks python examples/quickstart.py
"""

from repro import DiversityEngine
from repro.data.paper_example import figure1_ordering, figure1_relation


def main() -> None:
    # 1. Load the relation from Figure 1(a) of the paper.
    cars = figure1_relation()
    print(f"Loaded {len(cars)} car listings.\n")

    # 2. Build the Dewey-encoded inverted index.  The diversity ordering is
    #    the domain expert's priority: vary Make first, then Model, then
    #    Color, then Year, then Description.
    engine = DiversityEngine.from_relation(cars, figure1_ordering())
    print(engine.explain("Make = 'Honda'"), "\n")

    # 3. The headline example: show 4 Hondas -> 4 *different models*,
    #    instead of four nearly identical Civics.
    print("Diverse top-4 for Make = 'Honda' (probing algorithm):")
    diverse = engine.search("Make = 'Honda'", k=4, algorithm="probe")
    print(diverse.to_table(["Make", "Model", "Color", "Year"]), "\n")

    print("Compare: the non-diverse Basic baseline returns the first four:")
    basic = engine.search("Make = 'Honda'", k=4, algorithm="basic")
    print(basic.to_table(["Make", "Model", "Color", "Year"]), "\n")

    # 4. Keyword predicates compose with scalar ones.
    print("Diverse top-3 for Description CONTAINS 'Low miles':")
    result = engine.search("Description CONTAINS 'Low miles'", k=3)
    print(result.to_table(["Make", "Model", "Color"]), "\n")

    # 5. Scored search: weighted disjunctions rank first, diversity breaks
    #    score ties.
    print("Scored top-5: Toyota [2] OR 'miles' [1] (one-pass algorithm):")
    scored = engine.search(
        "Make = 'Toyota' [2] OR Description CONTAINS 'miles' [1]",
        k=5,
        algorithm="onepass",
        scored=True,
    )
    print(scored.to_table(["Make", "Model", "Description"]), "\n")

    # 6. Execution statistics: the probing algorithm touched the index at
    #    most 2k times (Theorem 2).
    probe = engine.search("Year = 2007", k=5, algorithm="probe")
    print(
        f"Probing stats for Year = 2007, k=5: "
        f"{probe.stats['next_calls']} next() calls (bound: 10)."
    )


if __name__ == "__main__":
    main()
