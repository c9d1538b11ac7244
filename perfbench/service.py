"""The ``service-openloop`` workload: the always-on search service.

Set-up does what ``repro serve --service --store DIR`` and two
``repro worker --engine gpu --store DIR`` processes do, each in a
process of its own (``master_entry.py``, ``worker_entry.py``): parse the
database FASTA, export the indexed files, build the pack store, start
the TCP master with a default ``ServiceConfig`` and ``top=5``, spawn
both workers and wait until both have registered.

Traffic is open loop: requests are due on a seeded Poisson schedule at
a fixed rate over two tenants, whatever the service does.  One thread
submits on the schedule over one connection; a second thread polls the
outstanding requests over a second connection and notes when each is
seen done.  A request's latency runs from when it was *due* to when it
was seen done, so a stalled submitter charges its stall to every
request it delayed; how late the submitter ran is reported as well.

``repro.service.run_loadgen`` is not used for latencies: it waits on
admitted requests one by one after the whole schedule has been sent,
so an early request's latency includes the rest of the schedule.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

from . import common, inputs
from .oracle import Oracle, digest
from .tracing import engine_layer, load_spans, write_spans

TOP = 5
#: Offered load (requests/second).  A rate sweep on a 2-vCPU Xeon VM
#: (15 s per rate, 40-120 aa queries against the 32-subject database)
#: read p50/p90 0.107/0.150 s at 1 req/s, 0.102/0.147 s at 4,
#: 0.129/0.204 s at 12, 0.157/0.288 s at 16 and 0.244/0.727 s at 20,
#: where requests start to queue at the master: the fleet saturates
#: near 16-20 req/s.  4 req/s is about a quarter of that, and still
#: gives 120 requests in 30 s, ten or more beyond p90.
RATE = 4.0
#: Latency limit on p90 (seconds): the p90 of the same sweep at the
#: saturation knee (16 req/s), twice the unloaded p90.  The result file
#: says whether it held.
P90_LIMIT = 0.3
#: Heartbeat reaping, as ``repro serve`` defaults it.
HEARTBEAT = 10.0
#: The worker processes' PE ids (``repro worker --engine gpu``).
PE_IDS = ("gpu0", "gpu1")
#: Poll cadence of the completion watcher (seconds).
POLL = 0.02
#: A request not done this long after the schedule ends has timed out.
GRACE = 30.0
SETUP_ROUNDS = 5


class Fleet:
    """One running service: master and two workers, a process each."""

    def __init__(self, run_dir: str, number: int, subjects, probes,
                 trace: bool, timings: dict):
        self.dir = os.path.join(run_dir, f"fleet{number}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        env = common.child_env()
        self.workers: list[tuple[str, subprocess.Popen]] = []
        self.master = subprocess.Popen(
            [sys.executable, "-m", "perfbench.master_entry",
             "--database", subjects, "--queries", probes, "--dir", self.dir]
            + [arg for pe_id in PE_IDS for arg in ("--pe-id", pe_id)],
            cwd=common.ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            ready = self._expect("listening")
            timings.update(ready["timings"])
            self.address = (ready["host"], ready["port"])
            begin = time.perf_counter()
            self._spawn(ready, env, trace)
            self._expect("registered")
            timings["cluster.spawn"] = time.perf_counter() - begin
        except BaseException:
            self.kill()
            raise

    def _expect(self, event: str) -> dict:
        line = self.master.stdout.readline()
        message = json.loads(line) if line.strip() else {}
        if message.get("event") != event:
            raise RuntimeError(f"master said {line!r}, expected {event}")
        return message

    def _spawn(self, ready: dict, env: dict, trace: bool) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        for index, pe_id in enumerate(PE_IDS):
            command = [
                sys.executable, "-m", "perfbench.worker_entry",
                "--host", ready["host"], "--port", str(ready["port"]),
                "--pe-id", pe_id, "--queries", ready["queries"],
                "--database", ready["database"], "--store", ready["store"],
                "--out", os.path.join(self.dir, pe_id),
            ] + (["--trace"] if trace else [])
            proc = subprocess.Popen(
                command, cwd=common.ROOT, env=env, stdout=subprocess.DEVNULL,
            )
            self.workers.append((pe_id, proc))
            # One core per worker, as each PE owns its processor; the
            # scheduler may otherwise place both on one core.
            os.sched_setaffinity(proc.pid, {cpus[index % len(cpus)]})

    def close(self) -> dict:
        """Drain, reap both workers, stop the master; its last report."""
        # Workers leave on their own once the drained master answers
        # "done"; the master stops only after they have gone, so none
        # of them is left redialling a closed port.
        try:
            self.master.stdin.write("drain\n")
            self.master.stdin.flush()
            report = self._expect("drained")
            for _, proc in self.workers:
                proc.wait(timeout=30.0)
            self.master.stdin.close()
            self.master.wait(timeout=30.0)
        finally:
            self.kill()
        return report

    def kill(self) -> None:
        """Stop every process of the fleet that is still running."""
        for proc in [p for _, p in self.workers] + [self.master]:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for stream in (self.master.stdin, self.master.stdout):
            if not stream.closed:
                stream.close()

    def worker_reports(self) -> list[dict]:
        out = []
        for pe_id, _ in self.workers:
            path = os.path.join(self.dir, pe_id + ".json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    out.append(json.load(handle))
        return out

    def worker_spans(self) -> list[dict]:
        spans = []
        for pe_id, _ in self.workers:
            spans += load_spans(os.path.join(self.dir, pe_id + ".spans.jsonl"))
        return spans


def open_loop(address, spec, first: int, count: int) -> dict:
    """Send requests ``first .. first+count`` on their schedule.

    Returns per-request records: due time, lateness, submit reply,
    final poll reply and the moment the watcher saw it finish.
    """
    from repro.sequences import Sequence
    from repro.service import ServiceClient

    host, port = address
    records: list[dict] = []
    outstanding: list[dict] = []
    lock = threading.Lock()
    sending = threading.Event()
    sending.set()
    rtts: list[float] = []
    watcher_error: list[BaseException] = []

    def watch() -> None:
        try:
            with ServiceClient(host, port) as client:
                while True:
                    with lock:
                        pending = list(outstanding)
                        idle = not sending.is_set() and not pending
                    if idle:
                        return
                    for record in pending:
                        begin = time.perf_counter()
                        reply = client.poll(record["request_id"])
                        seen = time.perf_counter()
                        rtts.append(seen - begin)
                        if reply.get("type") == "error" or reply.get(
                            "state"
                        ) in ("done", "expired", "cancelled"):
                            record["seen"] = seen
                            record["final"] = reply
                            with lock:
                                outstanding.remove(record)
                        elif seen > record["give_up"]:
                            record["final"] = {"state": "timeout"}
                            with lock:
                                outstanding.remove(record)
                    time.sleep(POLL)
        except BaseException as exc:  # surfaced to the caller below
            watcher_error.append(exc)

    watcher = threading.Thread(target=watch, name="watcher")
    arrivals = spec.arrivals[first:first + count]
    arrivals = arrivals - arrivals[0]
    with ServiceClient(host, port) as client:
        watcher.start()
        start = time.perf_counter()
        horizon = start + float(arrivals[-1])
        try:
            for offset, (qid, text, tenant) in zip(
                arrivals, spec.requests[first:first + count]
            ):
                due = start + float(offset)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                reply = client.submit(
                    Sequence(id=qid, residues=text), tenant=tenant
                )
                rtts.append(time.perf_counter() - sent)
                record = {
                    "query": qid, "text": text, "tenant": tenant,
                    "due": due, "late": sent - due, "reply": reply,
                    "give_up": horizon + GRACE,
                }
                records.append(record)
                if reply.get("type") == "accepted":
                    record["request_id"] = reply["request_id"]
                    with lock:
                        outstanding.append(record)
        finally:
            sending.clear()
            watcher.join(timeout=horizon + 2 * GRACE - time.perf_counter())
    if watcher.is_alive() or watcher_error:
        raise RuntimeError(f"completion watcher failed: {watcher_error}")
    return {"records": records, "rtts": rtts}


def _peak_rss_mb(report: dict, fleet: Fleet) -> float:
    """Largest peak RSS of the fleet's master and worker processes."""
    return max([report["peak_rss_mb"]] + [
        r["peak_rss_mb"] for r in fleet.worker_reports()
    ])


def _phase(fleet: Fleet, spec, first: int, count: int) -> dict:
    try:
        traffic = open_loop(fleet.address, spec, first, count)
    except BaseException:
        fleet.kill()
        raise
    report = fleet.close()
    traffic["messages"] = report["messages"]
    traffic["workers"] = fleet.worker_reports()
    traffic["spans"] = fleet.worker_spans()
    traffic["peak_rss_mb"] = _peak_rss_mb(report, fleet)
    return traffic


def _summarise(traffic: dict) -> dict:
    """Latency, shed/expired counts and per-request timings of a phase."""
    latencies, execs, waits = [], [], []
    shed = expired = timed_out = 0
    for record in traffic["records"]:
        final = record.get("final")
        if record["reply"].get("type") != "accepted":
            shed += 1
            continue
        state = (final or {}).get("state")
        if state == "expired":
            expired += 1
        if state != "done":
            timed_out += state != "expired"
            continue
        latencies.append(record["seen"] - record["due"])
        exec_s = final["finished_at"] - final["dispatched_at"]
        execs.append(exec_s)
        waits.append(final["dispatched_at"] - final["submitted_at"])
        record["exec_s"] = exec_s
    return {
        "latencies": latencies, "execs": execs, "waits": waits,
        "shed": shed, "expired": expired, "timed_out": timed_out,
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.align import affine_gap, get_matrix

    count = max(int(round(RATE * seconds)), 20)
    spec = inputs.service_inputs(seed, RATE, count)
    run_dir = os.path.join(common.OUT, f"service-openloop-{seed}")
    subjects = inputs.write_fasta(
        os.path.join(run_dir, "database.fasta"), spec.subjects
    )
    probe_records = sorted(
        {text for text in spec.planted}, key=lambda t: (len(t), t)
    )
    probes = inputs.write_fasta(
        os.path.join(run_dir, "probes.fasta"),
        [(f"probe{i}", t) for i, t in enumerate(probe_records)],
    )

    # Set up several times, tearing each fleet down but the last, and
    # report the median: spawn times on a small host vary.
    rounds: list[dict] = []
    setup_times: list[float] = []
    fleet_rss: list[float] = []
    fleet = None
    for number in range(SETUP_ROUNDS):
        if fleet is not None:
            fleet_rss.append(_peak_rss_mb(fleet.close(), fleet))
        timings: dict = {}
        begin = time.perf_counter()
        fleet = Fleet(run_dir, number, subjects, probes, False, timings)
        setup_times.append(time.perf_counter() - begin)
        rounds.append(timings)
    setup_s = common.median(setup_times)
    phases = []
    if trace:
        half = count // 2
        phases.append(_phase(fleet, spec, 0, half))
        traced_fleet = Fleet(run_dir, SETUP_ROUNDS, subjects, probes, True, {})
        phases.append(_phase(traced_fleet, spec, half, count - half))
    else:
        phases.append(_phase(fleet, spec, 0, count))
    fleet_rss += [p["peak_rss_mb"] for p in phases]

    plain = _summarise(phases[0])
    residues = sum(len(text) for _, text in spec.subjects)
    cells_of = {
        r["query"]: len(r["text"]) * residues
        for p in phases for r in p["records"]
    }
    mcups = [
        cells_of[r["query"]] / r["exec_s"] / 1e6
        for r in phases[0]["records"] if r.get("exec_s")
    ]

    # Correctness: oracle on every completed request; probes recur, so
    # their digests must agree across repeats.
    oracle = Oracle(
        spec.subjects, get_matrix("blosum62"), affine_gap(10, 2), TOP,
        np.random.default_rng([seed, 99]), sample=2,
    )
    attempted = failed = 0
    seen_digest: dict[str, str] = {}
    for phase in phases:
        for record in phase["records"]:
            attempted += 1
            final = record.get("final") or {}
            if final.get("state") != "done":
                failed += 1
                oracle.problems.append(
                    f"{record['query']}: {final.get('state') or record['reply']}"
                )
                continue
            hits = final["hits"]
            ok = oracle.check(
                record["query"], record["text"], hits,
                spec.planted.get(record["text"], ()),
            )
            if ok and record["text"] in spec.planted:
                got = digest(hits)
                want = seen_digest.setdefault(record["text"], got)
                if got != want:
                    ok = False
                    oracle.problems.append(
                        f"{record['query']}: probe digest {got} != {want}"
                    )
            failed += not ok

    end_to_end = {
        "setup_s": setup_s,
        "mcups": common.median(mcups),
        "p50_s": common.median(plain["latencies"]),
        "p90_s": common.quantile(plain["latencies"], 0.9),
        "peak_rss_mb": max([common.peak_rss_mb()] + fleet_rss),
    }
    layer: dict = {}
    detail: dict = {}
    if trace:
        traced = phases[1]
        summary = _summarise(traced)
        spans = traced["spans"]
        requests = len(summary["execs"])
        layer, rows = engine_layer(spans, requests)
        # A request can run on both workers (the master replicates an
        # in-flight task to an idle PE); the copy that ends first is
        # the one whose result the request returns.
        first_done: dict[str, dict] = {}
        for span in spans:
            if span["name"] == "engine.search" and not span.get("aborted"):
                best = first_done.get(span["query"])
                if best is None or span["end"] < best["end"]:
                    first_done[span["query"]] = span
        engine_wall = {
            query: span["end"] - span["start"]
            for query, span in first_done.items()
        }
        overheads = [
            r["exec_s"] - engine_wall[r["query"]]
            for r in traced["records"]
            if r.get("exec_s") and r["query"] in engine_wall
        ]
        hits = misses = 0
        missing = set()
        for report in traced["workers"]:
            for cache in report["caches"].values():
                hits += cache["hits"]
                misses += cache["misses"]
            missing.update(report["missing_entry_points"])
        lates = [r["late"] for p in phases for r in p["records"]]
        layer.update({
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "store.build_s": common.median(
                [r["store.build"] for r in rounds]
            ),
            "store.verify_s": common.median(
                [r["store.verify"] for r in rounds]
            ),
            "store.load_s": rows.get("store.load", {}).get("total_s", 0.0),
            "cluster.spawn_s": common.median(
                [r["cluster.spawn"] for r in rounds]
            ),
            "cluster.rtt_s": common.median(traced["rtts"]),
            "cluster.messages": traced["messages"] / max(requests, 1),
            "service.queue_wait_p50_s": common.median(summary["waits"]),
            "service.queue_wait_p90_s": common.quantile(
                summary["waits"], 0.9
            ),
            "service.exec_s": common.median(summary["execs"]),
            "service.overhead_s": common.median(overheads),
            "service.shed": plain["shed"] + summary["shed"],
            "service.expired": plain["expired"] + summary["expired"],
            "loadgen.late_p90_s": common.quantile(lates, 0.9),
            "loadgen.late_max_s": max(lates, default=0.0),
            "sequences.fasta_load_s": common.median(
                [r["sequences.fasta_load"] for r in rounds]
            ),
            "trace.overhead_s": (
                common.median(summary["latencies"])
                - common.median(plain["latencies"])
            ),
            "trace.overhead_share": (
                common.median(summary["latencies"])
                / common.median(plain["latencies"]) - 1.0
                if plain["latencies"] else 0.0
            ),
        })
        span_path = os.path.join(run_dir, f"spans-{seed}.jsonl")
        write_spans(span_path, spans)
        detail = {
            "span_totals": rows,
            "spans_file": os.path.relpath(span_path, common.ROOT),
            "missing_entry_points": sorted(missing),
            "traced_p50_s": common.median(summary["latencies"]),
            "traced_requests": len(summary["latencies"]),
            # Above 1 when the master replicated requests to idle PEs.
            "engine_searches_per_request": rows.get(
                "engine.search", {}
            ).get("count", 0) / max(requests, 1),
        }
    lates = [r["late"] for r in phases[0]["records"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "layer": layer,
        "bypassed": ["runtime"],
        "detail": {
            **detail,
            "rate_per_s": RATE,
            "p90_limit_s": P90_LIMIT,
            "p90_within_limit": end_to_end["p90_s"] <= P90_LIMIT,
            "requests": count,
            "completed": len(plain["latencies"]),
            "samples_beyond_p90": sum(
                1 for x in plain["latencies"] if x > end_to_end["p90_s"]
            ),
            "shed": plain["shed"],
            "expired": plain["expired"],
            "timed_out": plain["timed_out"],
            "late_p90_s": common.quantile(lates, 0.9),
            "late_max_s": max(lates, default=0.0),
            "setup_rounds_s": setup_times,
            # Per request of the measured phase: [query length, due to
            # seen done, dispatched to finished, submitted to dispatched].
            "requests_detail": [
                [len(r["text"]), r["seen"] - r["due"], r["exec_s"],
                 r["final"]["dispatched_at"] - r["final"]["submitted_at"]]
                for r in phases[0]["records"] if r.get("exec_s")
            ],
            "setup_parts": rounds,
            "fleet_peak_rss_mb": fleet_rss,
            "oracle_problems": oracle.problems[:20],
            "oracle_checked": oracle.checked,
        },
    }
