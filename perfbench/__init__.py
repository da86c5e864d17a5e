"""Closed-loop benchmark of the gyro co-simulation platform.

Run one workload with::

    python3 perfbench/run.py --workload fig5-locking --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
bounds in ``BENCHMARK.json`` were set.
"""
