"""Benchmark of the attribution pipeline: see README.md."""
