"""Benchmark for orekf: three workloads driven through the public API.

Run it from the repository root with
``python3 perfbench/run.py --workload <campaign|crowded|replay> --seed N
--seconds S --trace <0|1>``. ``BENCHMARK.json`` at the root lists the
workloads and every metric with its unit and direction.
"""
