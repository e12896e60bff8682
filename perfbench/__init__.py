"""End-to-end benchmark of the GRECA reproduction (``python3 perfbench/run.py``).

The package is self-contained: it drives the program under ``src/`` only
through its public API, generates every input from the ``--seed`` argument
and checks every output.  See ``BENCHMARK.json`` at the repository root for
the declared workloads and metrics.
"""
