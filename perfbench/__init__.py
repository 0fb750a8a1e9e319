"""Seeded performance benchmark for fbeq; run it with ``python3 perfbench/run.py``."""
