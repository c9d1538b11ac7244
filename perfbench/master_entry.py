"""Benchmark-owned master process: what ``repro serve --service --store``
runs, with its set-up timed and its counters reported.

It parses the database and probe FASTA files, exports the indexed files
the workers read, builds the pack store, and starts the TCP master with
a default ``ServiceConfig`` and the benchmark's ``top``.  It talks to
the benchmark over its standard streams, one JSON object per line:

1. ``{"event": "listening", ...}``: address, indexed file paths and the
   set-up timings;
2. ``{"event": "registered"}`` once every ``--pe-id`` has registered;
3. on ``drain`` from stdin it drains the service and answers
   ``{"event": "drained", ...}`` with the final service record, the
   fleet's message count and this process's peak RSS;
4. on end of input it stops the master and exits.

Run as ``python -m perfbench.master_entry --database D.fasta
--queries Q.fasta --dir DIR --pe-id gpu0 --pe-id gpu1`` from the
checkout root, with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .common import metric_sum, peak_rss_mb
from .service import HEARTBEAT, TOP

#: Seconds to wait for every worker to register or the service to drain.
PATIENCE = 60.0


def _say(**message) -> None:
    print(json.dumps(message), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--database", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--pe-id", action="append", required=True)
    args = parser.parse_args(argv)

    from repro.align import get_matrix
    from repro.cluster import MasterServer
    from repro.sequences import SequenceDatabase, read_fasta, write_indexed
    from repro.service import ServiceConfig
    from repro.store import build_store

    timings = {}
    begin = time.perf_counter()
    database = SequenceDatabase.from_fasta(args.database)
    queries = read_fasta(args.queries)
    timings["sequences.fasta_load"] = time.perf_counter() - begin

    query_path = os.path.join(args.dir, "queries.seqx")
    database_path = os.path.join(args.dir, "database.seqx")
    write_indexed(queries, query_path)
    write_indexed(list(database), database_path)

    begin = time.perf_counter()
    store = os.path.join(args.dir, "store")
    build_store(store, database, get_matrix("blosum62"), queries=queries)
    timings["store.build"] = time.perf_counter() - begin

    begin = time.perf_counter()
    server = MasterServer(
        [],
        host="127.0.0.1",
        port=0,
        heartbeat_timeout=HEARTBEAT,
        store=store,
        service=ServiceConfig(),
        database_residues=database.total_residues,
        top=TOP,
    )
    timings["store.verify"] = time.perf_counter() - begin
    server.start()
    try:
        host, port = server.address
        _say(event="listening", host=host, port=port, store=store,
             queries=query_path, database=database_path, timings=timings)

        limit = time.perf_counter() + PATIENCE
        while True:
            with server.lock:
                registered = set(server.master.registered_pes())
            if set(args.pe_id) <= registered:
                break
            if time.perf_counter() > limit:
                raise TimeoutError("workers did not register")
            time.sleep(0.002)
        _say(event="registered")

        if sys.stdin.readline().strip() != "drain":
            return 1
        server.drain()
        server.wait_drained(timeout=PATIENCE)
        _say(
            event="drained",
            final=server.final_record(),
            messages=metric_sum(
                server.metrics_snapshot(), "cluster_messages_total"
            ),
            peak_rss_mb=peak_rss_mb(),
        )
        # Keep answering until the benchmark has seen both workers leave
        # on the drained master's "done"; it then closes our input.
        sys.stdin.read()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
