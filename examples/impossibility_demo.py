#!/usr/bin/env python3
"""Theorem 1, executable: off-the-shelf IR scoring cannot deliver diversity.

Builds the exact Inverted-List Based IR System class the paper formalises
(per-list value-dependent scores, per-query weights, monotone aggregation),
then sweeps hand-tuned and random score assignments over the Figure 1
database.  Every single assignment fails to return a diverse result set for
at least one of the proof's three queries — and the assignments engineered
to pass the two single-list queries fail precisely on the conjunctive one,
exactly as the proof's counting argument predicts.

Run:  PYTHONPATH=src:benchmarks python examples/impossibility_demo.py
"""

from repro.data.paper_example import figure1_relation
from paper.ir.impossibility import (
    THEOREM_QUERIES,
    adversarial_assignments,
    demonstrate,
    find_violation,
)


def main() -> None:
    relation = figure1_relation()
    print("Database: Figure 1(a) —", len(relation), "car listings\n")

    print("Theorem 1's three queries:")
    for text, k, keys in THEOREM_QUERIES:
        print(f"  top-{k}: {text}   (lists: {[key[2] for key in keys]})")
    print()

    print("Checking 16 adversarial assignments (each places all four")
    print("Toyotas plus one chosen Civic at the top of both lists — the")
    print("best any assignment can do for the single-list queries):\n")
    for index, scores in enumerate(adversarial_assignments()):
        violation = find_violation(scores)
        print(
            f"  assignment {index:2d}: violates {violation.query_text!r} "
            f"({violation.reason})"
        )
    print()

    report = demonstrate(random_trials=300, seed=2026)
    print(f"Swept {report['assignments_checked']} assignments "
          f"(16 adversarial + 300 random):")
    print(f"  survivors (diverse on all three queries): {report['survivors']}")
    print("  violations per query:")
    for query, count in report["violations_per_query"].items():
        print(f"    {query:55s} {count}")
    print()
    if report["survivors"] == 0:
        print("No score assignment produced diverse results for all three")
        print("queries — the executable face of Theorem 1.")
    else:  # pragma: no cover - would contradict the theorem
        print("UNEXPECTED: some assignment survived; the theorem says this")
        print("cannot happen for exact diversity. Please file a bug!")


if __name__ == "__main__":
    main()
