"""The two offline search workloads: ``search-exact`` and
``search-screen-skewed``.

Both drive ``HybridRuntime`` over ``InterSequenceEngine`` PEs, the way
``repro search`` does, on FASTA files the benchmark generated from the
seed.  One operation is one whole batch search (every query against the
whole database); a run repeats it for the time budget.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from . import common, inputs
from .oracle import Oracle, digest
from .tracing import Tracer, engine_layer, write_spans

TOP = 5

#: workload -> (input generator, PE count, screening on).
WORKLOADS = {
    "search-exact": (inputs.exact_inputs, 2, False),
    "search-screen-skewed": (inputs.skewed_inputs, 1, True),
}


def _setup(query_path, database_path, pes, screen, parse_times):
    """What ``repro search`` does before its first task: parse, build."""
    from repro.align import affine_gap, get_matrix
    from repro.core.engines import InterSequenceEngine
    from repro.core.runtime import HybridRuntime
    from repro.sequences import SequenceDatabase, read_fasta

    matrix = get_matrix("blosum62")
    gaps = affine_gap(10, 2)
    start = time.perf_counter()
    queries = read_fasta(query_path, alphabet=matrix.alphabet)
    database = SequenceDatabase.from_fasta(
        database_path, alphabet=matrix.alphabet
    )
    parse_times.append(time.perf_counter() - start)
    engines = {
        f"gpu{i}": InterSequenceEngine(matrix, gaps, top=TOP, screen=screen)
        for i in range(pes)
    }
    runtime = HybridRuntime(engines)
    return {
        "matrix": matrix, "gaps": gaps, "queries": queries,
        "database": database, "runtime": runtime,
    }


def _probe_setup(workload: str, query_path: str, database_path: str):
    """Seconds from a fresh interpreter's start to a ready runtime.

    This is what a user of ``repro search`` waits before the first task
    runs: interpreter start, imports, FASTA parsing, engine and runtime
    construction.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "perfbench.searches", workload,
         query_path, database_path],
        cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def _solo(state, screen: bool) -> tuple[float, int]:
    """Every task's ``Engine.search`` alone on one thread, untraced."""
    from repro.core.engines import InterSequenceEngine

    engine = InterSequenceEngine(
        state["matrix"], state["gaps"], top=TOP, screen=screen
    )
    wall = 0.0
    cells = 0
    for query in state["queries"]:
        start = time.perf_counter()
        engine.search(query, state["database"])
        wall += time.perf_counter() - start
        cells += len(query) * state["database"].total_residues
    return wall, cells


def _runtime_layer(spans_by_op, reports, traced_walls) -> dict:
    """Runtime metrics of the traced operations: overhead and replicas."""
    overheads, wastes = [], []
    for op, makespan in zip(spans_by_op, traced_walls):
        op_spans = [s for s in op if s["name"] == "engine.search"]
        by_thread: dict[int, float] = {}
        winners: dict[str, dict] = {}
        for span in op_spans:
            by_thread[span["thread"]] = (
                by_thread.get(span["thread"], 0.0)
                + span["end"] - span["start"]
            )
            if not span.get("aborted"):
                best = winners.get(span["query"])
                if best is None or span["end"] < best["end"]:
                    winners[span["query"]] = span
        op_wall = sum(s["end"] - s["start"] for s in op_spans)
        useful = sum(s["end"] - s["start"] for s in winners.values())
        wastes.append(op_wall - useful)
        overheads.append(makespan - max(by_thread.values(), default=0.0))
    return {
        "runtime.overhead_s": common.median(overheads),
        "runtime.replica_waste_s": common.median(wastes),
        "runtime.replicas": common.median([
            common.metric_sum(r.metrics, "replicas_assigned_total")
            for r in reports
        ]),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    make, pes, screen = WORKLOADS[workload]
    spec = make(seed)
    run_dir = os.path.join(common.OUT, f"{workload}-{seed}")
    query_path = inputs.write_fasta(
        os.path.join(run_dir, "queries.fasta"), spec.queries
    )
    database_path = inputs.write_fasta(
        os.path.join(run_dir, "database.fasta"), spec.subjects
    )

    setup_rounds = [
        _probe_setup(workload, query_path, database_path) for _ in range(5)
    ]
    setup_s = common.median(setup_rounds)
    parse_times: list[float] = []
    state = _setup(query_path, database_path, pes, screen, parse_times)
    runtime, queries = state["runtime"], state["queries"]
    database = state["database"]
    cells = sum(len(q) for q in queries) * database.total_residues

    def operation():
        start = time.perf_counter()
        report = runtime.run(queries, database, top=TOP)
        return time.perf_counter() - start, report

    budget = seconds / 2 if trace else seconds
    _, plain = common.timed_loop(operation, budget)
    walls = [wall for wall, _ in plain]
    reports = [report for _, report in plain]

    layer: dict = {}
    detail: dict = {}
    if trace:
        tracer = Tracer().install()
        spans_by_op, traced_walls, traced_reports = [], [], []

        def traced_operation():
            first = len(tracer.spans)
            wall, report = operation()
            spans_by_op.append(
                [s for s in tracer.spans[first:] if "end" in s]
            )
            traced_walls.append(wall)
            traced_reports.append(report)
            return wall, report

        try:
            common.timed_loop(traced_operation, seconds - sum(walls))
        finally:
            tracer.uninstall()
        layer, rows = engine_layer(
            [s for op in spans_by_op for s in op], len(spans_by_op)
        )
        layer.update(
            _runtime_layer(spans_by_op, traced_reports, traced_walls)
        )
        reports += traced_reports
        solo_wall, solo_cells = _solo(state, screen)
        stats = [
            e.screen_stats for e in runtime.engines.values()
        ]
        screened = sum(s.screened for s in stats)
        untraced = common.median(walls)
        layer.update({
            "align.solo_mcups": solo_cells / solo_wall / 1e6,
            "align.rescored_share": (
                sum(s.rescored for s in stats) / screened
                if screened else 0.0
            ),
            "runtime.scaling": solo_wall / common.median(
                [r.makespan for _, r in plain]
            ),
            "sequences.fasta_load_s": common.median(parse_times),
            "trace.overhead_s": common.median(traced_walls) - untraced,
            "trace.overhead_share": (
                common.median(traced_walls) / untraced - 1.0
            ),
        })
        path = os.path.join(run_dir, f"spans-{seed}.jsonl")
        write_spans(path, tracer.closed())
        detail = {
            "span_totals": rows,
            "spans_file": os.path.relpath(path, common.ROOT),
            "missing_entry_points": tracer.missing,
            "solo_wall_s": solo_wall,
            "screen_counters": {
                "screened": screened,
                "rescored": sum(s.rescored for s in stats),
                "saturated": sum(s.saturated for s in stats),
            },
        }

    # Correctness: full oracle check of the first report, digests of
    # every later one against it.
    oracle = Oracle(
        spec.subjects, state["matrix"], state["gaps"], TOP,
        np.random.default_rng([seed, 99]),
    )
    texts = dict(spec.queries)
    first = reports[0].results
    reference = {}
    failed = 0
    for query in queries:
        hits = first.get(query.id, ())
        ok = oracle.check(
            query.id, texts[query.id], hits, spec.planted.get(query.id, ())
        )
        reference[query.id] = digest(hits) if ok else None
        failed += not ok
    for number, report in enumerate(reports[1:], start=1):
        for query in queries:
            got = digest(report.results.get(query.id, ()))
            if got != reference[query.id]:
                failed += 1
                if reference[query.id] is not None:
                    oracle.problems.append(
                        f"repeat {number} {query.id}: digest {got} "
                        f"!= {reference[query.id]}"
                    )
    attempted = len(queries) * len(reports)

    end_to_end = {
        "setup_s": setup_s,
        "mcups": common.median([cells / w / 1e6 for w in walls]),
        "p50_s": common.median(walls),
        "p90_s": common.quantile(walls, 0.9),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "layer": layer,
        "bypassed": [
            "store", "cluster", "service", "loadgen", "cache",
        ],
        "detail": {
            **detail,
            "pes": pes,
            "screen": screen,
            "queries": len(queries),
            "subjects": len(database),
            "cells_per_search": cells,
            "search_walls_s": walls,
            "setup_rounds_s": setup_rounds,
            "oracle_problems": oracle.problems[:20],
            "oracle_checked": oracle.checked,
        },
    }


if __name__ == "__main__":
    # Set-up probe: build what ``repro search`` builds, then report.
    _, pes, screen = WORKLOADS[sys.argv[1]]
    _setup(sys.argv[2], sys.argv[3], pes, screen, [])
    print("ready", flush=True)
