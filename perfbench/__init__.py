"""Benchmark harness for the rosdos denoiser: workloads, output checks and an
outside-in span tracer. Run it with ``python3 perfbench/run.py``."""
