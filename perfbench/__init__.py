"""The repository benchmark: seeded workloads over the public entry points.

Run one workload with::

    python3 perfbench/run.py --workload run_closed_form --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the same op sequence untraced and then traced, and
reports the per-layer metrics (self times, counters, the unattributed
remainder per op and the tracing overhead).  See ``perfbench/README.md``.
"""
