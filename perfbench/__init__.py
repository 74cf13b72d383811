"""Benchmark harness for the sepack command line (run with ``python3 -m perfbench.run``)."""
