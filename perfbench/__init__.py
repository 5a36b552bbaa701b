"""Benchmark harness for enlab: workloads, traced runs and baselines.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/run.py`` for the arguments and ``perfbench/BASELINE.json``
for the recorded baseline.
"""
