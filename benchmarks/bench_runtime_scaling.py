"""Threaded-runtime scaling gate: 2 PEs must beat 1 PE.

Runs one seeded batch search (8 queries x 200 subjects) through
:class:`~repro.core.HybridRuntime` with one and then two exact-path
:class:`~repro.core.InterSequenceEngine` PEs.  Each PE's engine runs
in a process of its own, so on a machine with at least two CPUs the
second PE must cut the makespan; the hits of both runs must be
byte-identical::

    pytest benchmarks/bench_runtime_scaling.py --benchmark-only

The gate is >= 1.5x (min of 3 makespans each); two PEs on two CPUs
measure about 1.8x.  With fewer than two usable CPUs there is nothing
to scale onto and the gate is skipped.
"""

import os

import numpy as np
import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.core import HybridRuntime, InterSequenceEngine
from repro.sequences import query_set, random_database

from conftest import emit

_QUERIES = 8
_SUBJECTS = 200
_AVG_SUBJECT = 200.0
_ROUNDS = 3
_FLOOR = 1.5


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workload():
    rng = np.random.default_rng(13)
    queries = query_set(_QUERIES, rng, min_length=100, max_length=200)
    database = random_database(_SUBJECTS, _AVG_SUBJECT, rng, name="scale")
    return queries, database


def _runtime(pes: int) -> HybridRuntime:
    return HybridRuntime({
        f"gpu{i}": InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=10)
        for i in range(pes)
    })


def _best(runtime, queries, database):
    reports = [runtime.run(queries, database) for _ in range(_ROUNDS)]
    return min(r.makespan for r in reports), reports[0]


def test_two_pes_scale(benchmark):
    if _usable_cpus() < 2:
        pytest.skip("needs at least two CPUs to scale onto")
    queries, database = _workload()
    cells = sum(len(q) for q in queries) * database.total_residues

    one_s, one = _best(_runtime(1), queries, database)
    two = _runtime(2)
    reports = []
    benchmark.pedantic(
        lambda: reports.append(two.run(queries, database)),
        rounds=_ROUNDS, iterations=1,
    )
    two_s = min(r.makespan for r in reports)
    for report in reports:
        assert report.results == one.results  # byte-identical hits
    speedup = one_s / two_s

    emit(
        "Threaded runtime scaling: exact search "
        f"({_QUERIES} queries x {_SUBJECTS} subjects)",
        "\n".join([
            f"{'PEs':<8}{'makespan s':>12}{'MCUPS':>10}",
            f"{1:<8}{one_s:>12.3f}{cells / one_s / 1e6:>10.1f}",
            f"{2:<8}{two_s:>12.3f}{cells / two_s / 1e6:>10.1f}",
            f"{'speedup':<8}{speedup:>12.2f}x",
        ]),
    )
    assert speedup >= _FLOOR, (
        f"2 PEs only {speedup:.2f}x faster than 1 (floor {_FLOOR}x)"
    )
