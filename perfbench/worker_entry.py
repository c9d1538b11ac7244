"""Benchmark-owned worker process: ``run_worker`` plus optional tracing.

This is what ``repro worker --engine gpu --store DIR`` runs, with two
additions from the benchmark's side: with ``--trace`` it installs the
span wrappers before the engine starts and writes the spans out when
the worker exits, and it always writes the engine's cache counters
(``KeyedLRU`` hits and misses) next to them.

Run as ``python -m perfbench.worker_entry --host H --port P --pe-id ID
--queries Q.seqx --database D.seqx --store DIR --out PREFIX [--trace]``
from the checkout root, with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json

from .common import peak_rss_mb
from .service import TOP
from .tracing import Tracer, write_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--pe-id", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--database", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.cluster import WorkerConfig, run_worker

    tracer = Tracer().install() if args.trace else None
    engines = []
    build_engine = WorkerConfig.build_engine

    def capture(config):
        engine = build_engine(config)
        engines.append(engine)
        return engine

    WorkerConfig.build_engine = capture
    config = WorkerConfig(
        host=args.host,
        port=args.port,
        pe_id=args.pe_id,
        engine="gpu",
        query_path=args.queries,
        database_path=args.database,
        top=TOP,
        store=args.store,
    )
    try:
        run_worker(config)
    finally:
        WorkerConfig.build_engine = build_engine
        if tracer is not None:
            tracer.uninstall()
            write_spans(args.out + ".spans.jsonl", tracer.closed())
        caches = {}
        for engine in engines:
            for cache in (engine.pack_cache, engine.profile_cache):
                if cache is not None:
                    caches[cache.lru.name] = {
                        "hits": cache.lru.hits, "misses": cache.lru.misses,
                    }
        with open(args.out + ".json", "w", encoding="utf-8") as handle:
            json.dump({
                "caches": caches,
                "peak_rss_mb": peak_rss_mb(),
                "missing_entry_points": tracer.missing if tracer else [],
            }, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
