"""Benchmark harness: paper-figure regenerators."""
