#!/usr/bin/env python3
"""Mini tour of the experiment harness: regenerate a paper figure from code.

The full reproduction runs via ``python -m paper`` (see EXPERIMENTS.md);
this example shows the programmatic API of that harness at a small scale —
generate a figure, print its table, draw it in the terminal, and check the
paper's claims mechanically.

Run:  PYTHONPATH=src:benchmarks python examples/experiments_tour.py
"""

from paper.figures import ablation_probe_counts, figure5
from paper.plots import render_ascii_chart
from paper.report import render_text, to_csv_string


def main() -> None:
    # Figure 5 at toy scale: response time vs number of listings.
    print("Generating Figure 5 (toy scale: up to 4000 listings)...\n")
    result = figure5(rows_grid=[1000, 2000, 4000], queries=15, k=10)
    print(render_text(result))
    print()
    print(render_ascii_chart(result))
    print()

    # Check the paper's claims on the fresh numbers.
    naive = result.series["UNaive"]
    probe = result.series["UProbe"]
    onepass = result.series["UOnePass"]
    growth = naive[-1] / naive[0]
    print(f"UNaive grew {growth:.1f}x from {result.x_values[0]} to "
          f"{result.x_values[-1]} listings.")
    print(f"UProbe stayed within "
          f"{max(probe) / max(min(probe), 1e-9):.1f}x of itself "
          f"(paper: insensitive to data size).")
    print(f"UOnePass stayed within "
          f"{max(onepass) / max(min(onepass), 1e-9):.1f}x of itself.")
    print()

    # Theorem 2, measured.
    print("Measuring probe counts against the 2k bound (Theorem 2)...\n")
    probes = ablation_probe_counts(k_grid=[1, 5, 10, 25], rows=3000, queries=20)
    print(render_text(probes))
    measured = probes.series["measured next() calls"]
    bound = probes.series["2k bound"]
    assert all(m <= b for m, b in zip(measured, bound))
    print("\nEvery measurement is within the bound.")
    print("\nCSV export of the probe ablation:\n")
    print(to_csv_string(probes))


if __name__ == "__main__":
    main()
