"""Benchmark harness for tanglejones; see run.py and NOTES.md."""
