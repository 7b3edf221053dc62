"""Keeps the benchmark from rotting: runs its self-check, which drives every
workload, correctness check, traced span and kernel timing at a tiny size
and compares the reported metrics with ``BENCHMARK.json``."""

import run


def test_benchmark_selfcheck():
    assert run.selfcheck(*run.load_modules()) == []
