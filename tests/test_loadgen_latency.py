"""``run_loadgen`` latency comes from the master's clock.

The load generator waits for its admitted requests only after the
whole arrival schedule has been submitted.  Timing latency on the
client at that point would charge an early request for the rest of the
schedule; the master's ``finished_at - submitted_at`` does not.
"""

import threading

import numpy as np

from repro.cluster import MasterServer, WorkerConfig, run_worker
from repro.core.runtime import build_tasks
from repro.sequences import query_set, random_database, write_indexed
from repro.service import run_loadgen
from repro.simulate.loadgen import poisson_arrivals

RATE = 2.0
HORIZON = 3.0
SEED = 0


def test_early_request_reads_its_true_latency(tmp_path):
    rng = np.random.default_rng(23)
    queries = query_set(2, rng, min_length=30, max_length=50)
    database = random_database(25, 50.0, rng, name="lg-db")
    q_path, d_path = str(tmp_path / "q.seqx"), str(tmp_path / "d.seqx")
    write_indexed(queries, q_path)
    write_indexed(list(database), d_path)

    arrivals = poisson_arrivals(RATE, HORIZON, np.random.default_rng(SEED))
    # The schedule this seed replays: a first request with seconds of
    # schedule still to come behind it.
    assert len(arrivals) >= 3 and HORIZON - arrivals[0] > 2.0

    server = MasterServer(
        build_tasks(queries, database), service=True, heartbeat_timeout=1.0
    )
    server.start()
    host, port = server.address
    worker = threading.Thread(
        target=run_worker,
        args=(WorkerConfig(
            host=host, port=port, pe_id="w0", engine="scan",
            query_path=q_path, database_path=d_path,
        ),),
        daemon=True,
    )
    worker.start()
    try:
        report = run_loadgen(
            host, port, rate=RATE, horizon=HORIZON,
            rng=np.random.default_rng(SEED),
            min_length=30, max_length=40,
        )
    finally:
        server.drain()
        server.wait_drained(timeout=60)
        server.stop()
        worker.join(timeout=10)

    assert report.completed == report.admitted == len(arrivals)
    # A 30-40 residue query against 25 subjects takes milliseconds;
    # charged until the end of the schedule it would read > 2 s.
    assert 0.0 < report.latencies[0] < 1.0
    assert max(report.latencies) < 1.0
