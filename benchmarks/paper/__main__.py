"""Command-line driver: regenerate the paper's figures.

Usage, from the repository root::

    export PYTHONPATH=src:benchmarks
    python -m paper                       # every figure, laptop scale
    python -m paper fig5 fig6             # selected figures
    python -m paper --list
    REPRO_BENCH_ROWS=100000 REPRO_BENCH_QUERIES=5000 \
        python -m paper fig5              # paper scale

Writes one CSV per figure next to the text report when ``--out`` is given.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .figures import ALL_FIGURES
from .report import render_text, write_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m paper",
        description="Regenerate the figures of the ICDE 2008 diversity paper.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        help=f"figures to run (default: all of {', '.join(ALL_FIGURES)})",
    )
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for CSV outputs"
    )
    parser.add_argument(
        "--plot", action="store_true", help="also render ASCII charts"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in ALL_FIGURES:
            print(name)
        return 0
    selected = args.figures or list(ALL_FIGURES)
    unknown = [name for name in selected if name not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figures: {unknown}; use --list")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in selected:
        started = time.perf_counter()
        result = ALL_FIGURES[name]()
        elapsed = time.perf_counter() - started
        print(render_text(result))
        print(f"   [generated in {elapsed:.1f}s]")
        print()
        if args.plot:
            from .plots import render_ascii_chart

            print(render_ascii_chart(result))
            print()
        if args.out is not None:
            path = args.out / f"{name}.csv"
            write_csv(result, path)
            print(f"   wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
