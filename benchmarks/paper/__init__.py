"""The paper's Section V experiments, run on the served ``repro`` package.

One driver per figure (:mod:`paper.figures`), its timing harness, text,
CSV and ASCII-chart output, the auto-selection regret races, and the
diversity report card (:mod:`paper.diagnostics`).  Run it
with ``PYTHONPATH=src:benchmarks python -m paper --list``.

Beside them: the Section VII extensions (:mod:`paper.extensions`) and
Theorem 1's model IR system (:mod:`paper.ir`), which no served path runs.
"""
