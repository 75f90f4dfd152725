"""Repository benchmark: workloads, tracing and statistics (see run.py)."""
