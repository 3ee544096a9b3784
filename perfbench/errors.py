"""Errors of the benchmark itself (not of the library it measures)."""


class BenchmarkError(Exception):
    """The benchmark cannot run here: missing library, bad arguments, no result."""
