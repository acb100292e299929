"""Benchmark harness for the tofu token-reduction engine (see README.md)."""
