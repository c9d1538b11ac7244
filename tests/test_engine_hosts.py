"""Process-backed PEs: each PE's engine runs in a forked child.

Covers the parts the conformance, fault and service suites do not
already pin: the PSS estimator's input at chunk granularity, the
child's screen/cache accounting folded back into the parent, and that
no path — normal end, master crash, injected PE crash, engine error,
a child killed mid-task, service close — hangs or leaves a child
process behind.
"""

import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.align import BLOSUM62, DEFAULT_GAPS
from repro.core import (
    HybridRuntime,
    InterSequenceEngine,
    PackCache,
    ProfileCache,
    ScanEngine,
)
from repro.core.enginehost import EngineProcessDied
from repro.faults import (
    CrashFault,
    FaultPlan,
    MasterCrashed,
    MasterCrashFault,
)
from repro.observability import MetricsRegistry
from repro.sequences import query_set, random_database
from repro.service import ThreadedSearchService


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(5)
    queries = query_set(6, rng, min_length=60, max_length=90)
    database = random_database(96, 80.0, rng, name="hosts")
    return queries, database


def _family(snapshot, name):
    family = MetricsRegistry.from_snapshot(snapshot).get(name)
    if family is None:
        return {}
    return {
        tuple(sorted(labels.items())): child.value
        for labels, child in family.series()
    }


def _no_children():
    assert multiprocessing.active_children() == []


class TestProgressGranularity:
    def test_estimated_rate_tracks_realized_rate(self, workload):
        queries, database = workload
        engines = {
            f"gpu{i}": InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=5)
            for i in range(2)
        }
        report = HybridRuntime(engines, adjustment=False).run(
            queries, database, top=5
        )
        packs = math.ceil(len(database) / engines["gpu0"].lanes)
        progress = [e for e in report.trace if e.kind == "progress"]
        assert 0 < len(progress) <= len(queries) * packs
        estimated = _family(
            report.metrics, "pe_estimated_rate_cells_per_second"
        )
        realized = _family(
            report.metrics, "pe_realized_rate_cells_per_second"
        )
        assert set(estimated) == set(realized) and len(estimated) == 2
        for pe, rate in estimated.items():
            assert realized[pe] / 2 <= rate <= realized[pe] * 2, pe
        _no_children()


    def test_cluster_worker_sends_one_sample_per_chunk(self, workload):
        from repro.cluster import run_cluster

        queries, database = workload
        report = run_cluster(
            queries, database, {"gpu0": "gpu", "gpu1": "gpu"},
            adjustment=False, use_processes=False, timeout=120,
        )
        lanes = InterSequenceEngine(BLOSUM62, DEFAULT_GAPS).lanes
        packs = math.ceil(len(database) / lanes)
        progress = [e for e in report.trace if e.kind == "progress"]
        assert 0 < len(progress) <= len(queries) * packs
        assert all(e.value > 0 for e in progress)


class TestChildAccounting:
    """Counters that move in the child read as an in-process run's."""

    COUNTERS = (
        "screen_pass_total",
        "screen_rescore_total",
        "screen_saturated_total",
        "cache_hits_total",
        "cache_misses_total",
        "cache_evictions_total",
    )

    def _engines(self, count):
        # Each child evicts from its own copy of the profile cache, so
        # evictions match an in-process run only with one PE; with two
        # the capacity leaves room for every query.
        pack = PackCache(capacity=4, name="host-pack")
        profile = ProfileCache(
            capacity=2 if count == 1 else 16, name="host-prof"
        )
        engines = {}
        for i in range(count):
            engine = InterSequenceEngine(
                BLOSUM62, DEFAULT_GAPS, top=5, screen=True
            )
            engine.pack_cache = pack
            engine.profile_cache = profile
            engines[f"gpu{i}"] = engine
        return engines

    def _in_process(self, count, queries, database):
        """What the runtime's PEs do, all on this thread."""
        registry = MetricsRegistry()
        engines = self._engines(count)
        for engine in engines.values():
            engine.bind_caches(registry)
            engine.prepare(database)
        first = next(iter(engines.values()))
        for query in queries:
            first.search(query, database)
        return registry.snapshot(), engines

    @pytest.mark.parametrize("count", [1, 2])
    def test_counters_match_in_process_run(self, workload, count):
        queries, database = workload
        expected, reference = self._in_process(count, queries, database)
        engines = self._engines(count)
        report = HybridRuntime(engines, adjustment=False).run(
            queries, database, top=5
        )
        for name in self.COUNTERS:
            assert _family(report.metrics, name) == \
                _family(expected, name), name
        if count == 1:  # evictions in the child are folded back too
            assert _family(report.metrics, "cache_evictions_total")

        def stats(group):
            return [
                sum(getattr(e.screen_stats, field) for e in group.values())
                for field in ("screened", "rescored", "saturated")
            ]

        assert stats(engines) == stats(reference)
        assert stats(engines)[0] == len(queries) * len(database)

    def test_packs_are_built_before_the_fork(self, workload):
        queries, database = workload
        engines = self._engines(2)
        HybridRuntime(engines, adjustment=False).run(queries, database)
        pack = engines["gpu0"].pack_cache.lru
        # One build in the parent; every child lookup hit it.
        assert pack.misses == 1
        assert pack.hits == 1 + len(queries)


class _Boom(RuntimeError):
    pass


class _FailingScan(ScanEngine):
    """Raises inside the child on the query named *fail_on*."""

    def __init__(self, fail_on, **kw):
        super().__init__(BLOSUM62, DEFAULT_GAPS, chunk_size=8, **kw)
        self.fail_on = fail_on

    def search(self, query, database, progress=None):
        if query.id == self.fail_on:
            raise _Boom(f"engine failed on {query.id}")
        return super().search(query, database, progress=progress)


class _SelfKillingScan(ScanEngine):
    """SIGKILLs its own process midway through the query *kill_on*."""

    def __init__(self, kill_on, **kw):
        super().__init__(BLOSUM62, DEFAULT_GAPS, chunk_size=8, **kw)
        self.kill_on = kill_on

    def search(self, query, database, progress=None):
        if query.id != self.kill_on:
            return super().search(query, database, progress=progress)
        calls = []

        def dying(chunk):
            calls.append(chunk)
            if len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return progress(chunk)

        return super().search(query, database, progress=dying)


class TestNoHangsNoOrphans:
    def _scan(self, count=2):
        return {
            f"pe{i}": ScanEngine(BLOSUM62, DEFAULT_GAPS, chunk_size=8)
            for i in range(count)
        }

    def test_normal_run(self, workload):
        queries, database = workload
        report = HybridRuntime(self._scan()).run(queries, database)
        assert len(report.results) == len(queries)
        _no_children()

    def test_master_crash(self, workload):
        queries, database = workload
        plan = FaultPlan(master_crash=MasterCrashFault(at_time=0.05))
        with pytest.raises(MasterCrashed):
            HybridRuntime(self._scan(), faults=plan).run(queries, database)
        _no_children()

    def test_injected_pe_crash(self, workload):
        queries, database = workload
        plan = FaultPlan(
            seed=1, crashes=(CrashFault(pe_id="pe0", after_tasks=1),)
        )
        report = HybridRuntime(
            self._scan(), faults=plan, heartbeat_timeout=0.5
        ).run(queries, database)
        assert len(report.results) == len(queries)
        assert "fault_crash" in [e["kind"] for e in report.events]
        _no_children()

    def test_engine_exception_surfaces(self, workload):
        queries, database = workload
        engines = {
            f"pe{i}": _FailingScan(queries[2].id) for i in range(2)
        }
        with pytest.raises(_Boom):
            HybridRuntime(engines, adjustment=False).run(queries, database)
        _no_children()

    def test_child_killed_mid_task(self, workload):
        queries, database = workload
        engines = {
            f"pe{i}": _SelfKillingScan(queries[1].id) for i in range(2)
        }
        with pytest.raises(EngineProcessDied) as info:
            HybridRuntime(engines, adjustment=False).run(queries, database)
        assert info.value.pe_id in engines
        assert info.value.exitcode == -signal.SIGKILL
        assert info.value.pe_id in str(info.value)
        assert str(-signal.SIGKILL) in str(info.value)
        _no_children()

    def test_service_close(self, workload):
        queries, database = workload
        with ThreadedSearchService(self._scan(), database, top=5) as svc:
            assert len(multiprocessing.active_children()) == 2
            outcome = svc.submit("t", queries[0])
            assert svc.wait(outcome.request_id).state == "done"
        _no_children()

    def test_service_crash(self, workload):
        queries, database = workload
        service = ThreadedSearchService(self._scan(), database).start()
        service.submit("t", queries[0])
        service.crash()
        _no_children()

