"""Benchmark harness for fnlslab; see run.py for the command line."""
