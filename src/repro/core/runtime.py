"""Threaded master/slave runtime with real kernels.

This is the execution environment of Fig. 4 running for real: one
worker thread per PE talks to the shared
:class:`~repro.core.master.Master`, which arbitrates behind a lock (the
lock plays the role of the Gigabit Ethernet link — every interaction
slaves have with the master goes through it), while the PE's engine
runs in a child process forked for the run
(:class:`~repro.core.enginehost.EngineHost`), so PEs compute in
parallel instead of taking turns on one interpreter.  The thread keeps
the whole protocol — requests, progress, completions, cancellations,
fault injection — and only the engine call crosses to the child.

The same master also runs under virtual time in :mod:`repro.simulate`;
this runtime exists so that correctness-scale workloads exercise the
full stack end to end: indexed files, engines, policies, adjustment,
cancellation, merging.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..align.api import SearchHit
from ..durability import CheckpointStore, restore_into, workload_fingerprint
from ..faults import FaultInjector, FaultPlan, InjectedCrash, MasterCrashed
from ..observability import EventLog, MetricsRegistry, finalize_run_metrics
from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .enginehost import EngineHost, start_hosts, stop_hosts
from .engines import ChunkProgress, Engine
from .master import Assignment, Master, TraceEvent
from .policies import AllocationPolicy, PackageWeightedSelfScheduling
from .results import merge_hits, offset_hits
from .task import Task, TaskBatch, TaskResult, group_into_batches

__all__ = ["RunReport", "HybridRuntime", "build_tasks"]

#: Idle slaves poll the master at this period when told to wait.
_WAIT_POLL_SECONDS = 0.002

#: Heartbeat reap timeout used when faults are injected but no explicit
#: ``heartbeat_timeout`` was given — generous against progress
#: notifications, which arrive once per chunk (tens of milliseconds
#: for a lane pack of typical subjects).
_DEFAULT_HEARTBEAT_SECONDS = 1.0

#: Pause before a dropped-but-required message is retransmitted.
_RETRANSMIT_SECONDS = 0.005


def build_tasks(
    queries: list[Sequence],
    database: SequenceDatabase,
    chunks: list[SequenceDatabase] | None = None,
) -> list[Task]:
    """Build the task list for a workload.

    With the default single chunk this is the paper's very
    coarse-grained decomposition (one task per query x whole database);
    passing the output of :meth:`SequenceDatabase.chunks` produces the
    coarse-grained (Fig. 3b) variant, one task per (query, chunk).
    """
    if chunks is None:
        chunks = [database]
    tasks = []
    for q_index, query in enumerate(queries):
        for c_index, chunk in enumerate(chunks):
            tasks.append(
                Task(
                    task_id=q_index * len(chunks) + c_index,
                    query_id=query.id,
                    query_length=len(query),
                    cells=len(query) * chunk.total_residues,
                    query_index=q_index,
                    chunk_index=c_index,
                )
            )
    return tasks


@dataclass
class RunReport:
    """Outcome of one full workload execution."""

    makespan: float
    total_cells: int
    results: dict[str, tuple[SearchHit, ...]]  # query_id -> ranked hits
    trace: list[TraceEvent]
    tasks_by_pe: dict[str, int] = field(default_factory=dict)
    #: Metrics snapshot (``repro.metrics.v1``) of the run's registry.
    metrics: dict = field(default_factory=dict)
    #: The unified structured event log backing :attr:`trace`.
    events: EventLog = field(default_factory=EventLog)

    @property
    def gcups(self) -> float:
        return self.total_cells / self.makespan / 1e9 if self.makespan else 0.0


class _SharedMaster:
    """Lock-guarded facade over :class:`Master` (the 'network').

    ``crash_at`` arms the plan's master-crash fault: once the clock
    passes it, every interaction with the master raises
    :class:`MasterCrashed` — from the slaves' point of view the master
    simply stops answering, exactly like a killed process.  Only the
    journal (written before the crash fired) survives.
    """

    def __init__(
        self,
        master: Master,
        crash_at: float | None = None,
        injector: FaultInjector | None = None,
    ):
        self._master = master
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self._crash_at = crash_at
        self._injector = injector
        self.crashed = False

    def _check_crash(self, now: float) -> None:
        """Caller holds the lock."""
        if self._crash_at is None:
            return
        if not self.crashed and now >= self._crash_at:
            self.crashed = True
            if self._injector is not None:
                self._injector.record("master_crash", time=now)
        if self.crashed:
            raise MasterCrashed(self._crash_at)

    def _ensure(self, pe_id: str, now: float) -> None:
        """Re-register a PE the master reaped while it was still alive.

        Caller holds the lock.  Mirrors the cluster server: a slave
        that was deregistered (heartbeat reap) but keeps talking simply
        rejoins under a fresh attempt id; its released tasks are
        already back in the ready queue.
        """
        if not self._master.is_registered(pe_id):
            attempt = self._attempts.get(pe_id, 0) + 1
            self._attempts[pe_id] = attempt
            self._master.register(pe_id, now, attempt=attempt)

    def register(self, pe_id: str, now: float):
        with self._lock:
            self._master.register(pe_id, now)

    def request(self, pe_id: str, now: float):
        with self._lock:
            self._check_crash(now)
            self._ensure(pe_id, now)
            return self._master.on_request(pe_id, now)

    def progress(self, pe_id: str, now: float, cells: float, interval: float):
        with self._lock:
            self._check_crash(now)
            self._ensure(pe_id, now)
            self._master.on_progress(pe_id, now, cells, interval)

    def complete(self, pe_id: str, result: TaskResult, now: float):
        with self._lock:
            self._check_crash(now)
            self._ensure(pe_id, now)
            return self._master.on_complete(pe_id, result, now)

    def cancelled(self, pe_id: str, task_id: int, now: float):
        with self._lock:
            self._check_crash(now)
            self._ensure(pe_id, now)
            self._master.on_cancelled(pe_id, task_id, now)

    def reap(self, now: float, timeout: float) -> tuple[str, ...]:
        with self._lock:
            self._check_crash(now)
            if self._master.finished:
                return ()
            return self._master.reap_silent(now, timeout)

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._master.finished

    def with_lock(self, fn):
        """Run ``fn(master)`` under the master lock.

        The always-on service front-end uses this for admission and
        deadline ticks, which must not interleave with slave traffic.
        """
        with self._lock:
            return fn(self._master)


class _FaultyChannel:
    """Transport-fault decorator over :class:`_SharedMaster`.

    Models the worker-master link as at-least-once: messages the
    protocol cannot afford to lose (``complete``/``cancelled``) are
    retransmitted after a short pause instead of vanishing, while
    ``request`` polls and ``progress`` samples are genuinely lossy (the
    worker polls again / the next sample subsumes the lost one).
    Partitioned PEs stall: their deliveries block until the window
    heals, which is exactly what lets the heartbeat reaper fire.
    """

    def __init__(self, shared: _SharedMaster, injector: FaultInjector, clock):
        self._shared = shared
        self._injector = injector
        self._clock = clock

    def register(self, pe_id: str, now: float):
        self._shared.register(pe_id, now)

    def request(self, pe_id: str, now: float):
        if self._injector.partition_remaining(pe_id, now) > 0:
            time.sleep(_WAIT_POLL_SECONDS)
            return Assignment()
        action = self._injector.message_action(
            pe_id, "request", now, allow=("drop", "delay")
        )
        if action == "drop":
            return Assignment()  # lost poll: the worker asks again
        if action == "delay":
            time.sleep(self._injector.delay_seconds)
        return self._shared.request(pe_id, self._clock())

    def progress(self, pe_id: str, now: float, cells: float, interval: float):
        if self._injector.partition_remaining(pe_id, now) > 0:
            return  # sample lost in the partition
        action = self._injector.message_action(
            pe_id, "progress", now, allow=("drop", "duplicate", "delay")
        )
        if action == "drop":
            return
        if action == "delay":
            time.sleep(self._injector.delay_seconds)
            now = self._clock()
        self._shared.progress(pe_id, now, cells, interval)
        if action == "duplicate":
            self._shared.progress(pe_id, now, cells, interval)

    def complete(self, pe_id: str, result: TaskResult, now: float):
        wait = self._injector.partition_remaining(pe_id, now)
        if wait > 0:
            time.sleep(wait)
            now = self._clock()
        action = self._injector.message_action(
            pe_id, "complete", now, allow=("drop", "duplicate", "delay")
        )
        if action == "drop":
            time.sleep(_RETRANSMIT_SECONDS)  # retransmission pause
            now = self._clock()
        elif action == "delay":
            time.sleep(self._injector.delay_seconds)
            now = self._clock()
        losers = self._shared.complete(pe_id, result, now)
        if action == "duplicate":
            # The duplicate is stale by definition; the master dedupes.
            self._shared.complete(pe_id, result, self._clock())
        return losers

    def cancelled(self, pe_id: str, task_id: int, now: float):
        wait = self._injector.partition_remaining(pe_id, now)
        if wait > 0:
            time.sleep(wait)
            now = self._clock()
        action = self._injector.message_action(
            pe_id, "cancelled", now, allow=("drop", "duplicate", "delay")
        )
        if action == "drop":
            time.sleep(_RETRANSMIT_SECONDS)
            now = self._clock()
        elif action == "delay":
            time.sleep(self._injector.delay_seconds)
            now = self._clock()
        self._shared.cancelled(pe_id, task_id, now)
        if action == "duplicate":
            self._shared.cancelled(pe_id, task_id, self._clock())


class _Worker(threading.Thread):
    """One slave PE: request -> execute -> notify, until done.

    The engine call of each task runs in the PE's forked *host*
    process; everything else — every master interaction, fault
    injection, cancel flags — stays on this thread.  Setting *stop*
    makes the worker leave at its next request; a worker that fails
    for a reason other than an injected fault sets it for the others.
    """

    def __init__(
        self,
        pe_id: str,
        host: EngineHost,
        shared: _SharedMaster,
        queries: list[Sequence],
        chunk_offsets: list[int],
        cancel_flags: dict[str, set[int]],
        cancel_lock: threading.Lock,
        clock,
        injector: FaultInjector | None = None,
        batch: int = 1,
        stop: threading.Event | None = None,
    ):
        super().__init__(name=pe_id, daemon=True)
        self.pe_id = pe_id
        self.host = host
        self.shared = shared
        self.queries = queries
        self.chunk_offsets = chunk_offsets
        self.cancel_flags = cancel_flags
        self.cancel_lock = cancel_lock
        self.clock = clock
        self.injector = injector
        self.batch = batch
        self.stop = stop if stop is not None else threading.Event()
        self.tasks_done = 0
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._serve()
        except BaseException as exc:  # surfaced by the runtime
            self.error = exc
            if not isinstance(exc, (InjectedCrash, MasterCrashed)):
                self.stop.set()

    def _cancelled(self, task_id: int) -> bool:
        with self.cancel_lock:
            return task_id in self.cancel_flags[self.pe_id]

    def _check_crash(self) -> None:
        """Die silently if the fault plan says this PE crashes now."""
        if self.injector is None:
            return
        now = self.clock()
        if self.injector.crash_due(self.pe_id, now, self.tasks_done):
            self.injector.mark_crashed(self.pe_id, now)
            raise InjectedCrash(self.pe_id)

    def _serve(self) -> None:
        while not self.stop.is_set():
            self._check_crash()
            assignment = self.shared.request(self.pe_id, self.clock())
            if assignment.done:
                return
            if assignment.empty:
                time.sleep(_WAIT_POLL_SECONDS)
                continue
            with self.cancel_lock:
                # A fresh grant supersedes any cancel flag left over
                # from a previous attempt at the same task (reap,
                # release, re-assign back to this PE).
                for task in (*assignment.tasks, *assignment.replicas):
                    self.cancel_flags[self.pe_id].discard(task.task_id)
            if self.batch > 1 and len(assignment.tasks) > 1:
                for group in group_into_batches(assignment.tasks, self.batch):
                    if len(group) == 1:
                        self._execute(group.tasks[0])
                    else:
                        self._execute_batch(group)
            else:
                for task in assignment.tasks:
                    self._execute(task)
            # Replicas always execute singly: a replica races another
            # PE's in-flight copy, so coalescing it would only delay
            # the first completion the mechanism is trying to speed up.
            for task in assignment.replicas:
                self._execute(task)

    def _execute(self, task: Task) -> None:
        query = self.queries[task.query_index]
        started = self.clock()
        state = {"last": started}

        def progress(chunk: ChunkProgress) -> bool:
            # Called once per chunk (the host keeps the engine's
            # zero-cell per-subject calls in the child), so every call
            # is one PSS rate sample over the time since the last one.
            self._check_crash()  # crashes can fire mid-task
            now = self.clock()
            interval = now - state["last"]
            state["last"] = now
            if self.injector is not None:
                pause = self.injector.straggle_sleep(
                    self.pe_id, now, interval
                )
                if pause > 0:
                    time.sleep(pause)
                    now = self.clock()
            self.shared.progress(self.pe_id, now, chunk.cells, interval)
            return not self._cancelled(task.task_id)

        hits = self.host.search(query, task.chunk_index, progress)
        now = self.clock()
        if hits is None:  # aborted by cancellation
            self.shared.cancelled(self.pe_id, task.task_id, now)
            return
        result = TaskResult(
            task_id=task.task_id,
            pe_id=self.pe_id,
            elapsed=max(now - started, 1e-9),
            cells=task.cells,
            payload=offset_hits(hits, self.chunk_offsets[task.chunk_index]),
        )
        losers = self.shared.complete(self.pe_id, result, now)
        self.tasks_done += 1
        with self.cancel_lock:
            for loser in losers:
                self.cancel_flags[loser].add(task.task_id)

    def _execute_batch(self, group: TaskBatch) -> None:
        """One multi-query sweep, fanned back out to per-task messages.

        The engine scores every member of *group* in one call; each
        task still completes (or acknowledges cancellation)
        individually, so the master's bookkeeping, the journal and any
        replica race see exactly the per-task protocol they would under
        singleton execution.  The batch's wall-clock time is
        apportioned to members by their cell share.
        """
        tasks = group.tasks
        queries = [self.queries[t.query_index] for t in tasks]
        started = self.clock()
        state = {"last": started}

        def progress(position: int, chunk: ChunkProgress) -> bool:
            self._check_crash()
            now = self.clock()
            interval = now - state["last"]
            state["last"] = now
            if self.injector is not None:
                pause = self.injector.straggle_sleep(
                    self.pe_id, now, interval
                )
                if pause > 0:
                    time.sleep(pause)
                    now = self.clock()
            self.shared.progress(self.pe_id, now, chunk.cells, interval)
            return not self._cancelled(tasks[position].task_id)

        def cancelled(position: int) -> bool:
            return self._cancelled(tasks[position].task_id)

        hit_lists = self.host.search_batch(
            queries, group.chunk_index, progress, cancelled
        )
        now = self.clock()
        total_elapsed = max(now - started, 1e-9)
        total_cells = group.cells
        for task, hits in zip(tasks, hit_lists):
            if hits is None:  # aborted by cancellation
                self.shared.cancelled(self.pe_id, task.task_id, self.clock())
                continue
            share = task.cells / total_cells if total_cells else 1.0
            result = TaskResult(
                task_id=task.task_id,
                pe_id=self.pe_id,
                elapsed=max(total_elapsed * share, 1e-9),
                cells=task.cells,
                payload=offset_hits(
                    hits, self.chunk_offsets[task.chunk_index]
                ),
            )
            losers = self.shared.complete(self.pe_id, result, self.clock())
            self.tasks_done += 1
            with self.cancel_lock:
                for loser in losers:
                    self.cancel_flags[loser].add(task.task_id)


class HybridRuntime:
    """Run a whole workload on a set of engine-backed PEs.

    ``engines`` maps PE ids to :class:`Engine` instances, e.g. two
    GPU-analogues and four SSE-analogues for a miniature of the paper's
    platform.  Each :meth:`run` forks one engine process per PE after
    building its master and stops them when the run ends.
    """

    def __init__(
        self,
        engines: dict[str, Engine],
        policy: AllocationPolicy | None = None,
        adjustment: bool = True,
        omega: int = 8,
        faults: FaultPlan | None = None,
        heartbeat_timeout: float | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_sync_every: int = 1,
        checkpoint_compact_every: int = 0,
        batch: int = 1,
        telemetry_path: str | None = None,
        telemetry_interval: float = 1.0,
    ):
        if not engines:
            raise ValueError("at least one engine is required")
        if batch < 1:
            raise ValueError("batch must be at least 1")
        if telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        self.engines = dict(engines)
        self.policy = policy or PackageWeightedSelfScheduling()
        self.adjustment = adjustment
        self.omega = omega
        #: Optional fault plan injected at the worker/master boundary.
        self.faults = faults
        #: Reap slaves silent for this long.  ``None`` enables a safe
        #: default whenever faults are injected; ``0`` disables reaping.
        self.heartbeat_timeout = heartbeat_timeout
        #: Journal master state under this directory; a directory left
        #: behind by a crashed run is recovered before workers start,
        #: so finished tasks are never recomputed.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_sync_every = checkpoint_sync_every
        self.checkpoint_compact_every = checkpoint_compact_every
        #: Coalesce up to this many compatible tasks per assignment into
        #: one multi-query engine sweep (1 = the paper's behaviour).
        self.batch = batch
        #: Append a ``repro.telemetry.v1`` JSONL stream of interval
        #: deltas sampled by a wall-clock thread every
        #: ``telemetry_interval`` seconds.
        self.telemetry_path = telemetry_path
        self.telemetry_interval = telemetry_interval

    def run(
        self,
        queries: list[Sequence],
        database: SequenceDatabase,
        chunks_per_query: int = 1,
        top: int = 10,
    ) -> RunReport:
        """Execute the workload; returns merged per-query hit lists.

        ``chunks_per_query > 1`` switches to the coarse-grained
        decomposition: the database is split into that many contiguous
        chunks and every (query, chunk) pair becomes a task; the master
        merges the per-chunk hit lists (Fig. 4's *merge results*).
        """
        if chunks_per_query < 1:
            raise ValueError("chunks_per_query must be at least 1")
        if chunks_per_query == 1:
            chunks = [database]
        else:
            chunk_size = -(-len(database) // chunks_per_query)
            chunks = list(database.chunks(chunk_size))
        offsets = []
        position = 0
        for chunk in chunks:
            offsets.append(position)
            position += len(chunk)

        tasks = build_tasks(queries, database, chunks=chunks)
        metrics = MetricsRegistry()
        events = EventLog()
        start = time.perf_counter()

        def clock() -> float:
            return time.perf_counter() - start

        store: CheckpointStore | None = None
        if self.checkpoint_dir is not None:
            store = CheckpointStore(
                self.checkpoint_dir,
                sync_every=self.checkpoint_sync_every,
                compact_every=self.checkpoint_compact_every,
            )
            recovered = store.open(workload_fingerprint(tasks))
        master = Master(
            tasks,
            policy=self.policy,
            adjustment=self.adjustment,
            omega=self.omega,
            metrics=metrics,
            events=events,
            journal=store,
            batch=self.batch,
        )
        for engine in self.engines.values():
            engine.bind_caches(metrics)
        if store is not None and not recovered.empty:
            restore_into(master, recovered, now=clock())
        injector = (
            FaultInjector(self.faults, events=events, clock=clock)
            if self.faults is not None
            else None
        )
        crash_at = (
            self.faults.master_crash.at_time
            if self.faults is not None and self.faults.master_crash
            else None
        )
        shared = _SharedMaster(master, crash_at=crash_at, injector=injector)
        channel = (
            _FaultyChannel(shared, injector, clock)
            if injector is not None
            else shared
        )
        heartbeat = self.heartbeat_timeout
        if heartbeat is None and self.faults is not None:
            heartbeat = _DEFAULT_HEARTBEAT_SECONDS

        cancel_lock = threading.Lock()
        cancel_flags: dict[str, set[int]] = {pe: set() for pe in self.engines}
        # Fork the engine hosts before any thread of this run exists, so
        # no lock can be caught mid-hold in a child; they exit below.
        hosts = start_hosts(self.engines, chunks)
        stop = threading.Event()
        workers = [
            _Worker(
                pe_id,
                hosts[pe_id],
                channel,
                queries,
                offsets,
                cancel_flags,
                cancel_lock,
                clock,
                injector,
                batch=self.batch,
                stop=stop,
            )
            for pe_id in self.engines
        ]
        for worker in workers:
            shared.register(worker.pe_id, clock())

        sampler: "TelemetrySampler | None" = None
        reaper_stop = threading.Event()
        reaper: threading.Thread | None = None
        try:
            if self.telemetry_path is not None:
                from ..observability import TelemetrySampler, TelemetryWriter

                sampler = TelemetrySampler(
                    TelemetryWriter(
                        self.telemetry_path,
                        metrics.snapshot,
                        clock,
                        interval=self.telemetry_interval,
                        environment="threaded",
                    )
                ).start()
            if heartbeat:
                def _reap_loop() -> None:
                    while not reaper_stop.wait(heartbeat / 4):
                        if shared.finished:
                            return
                        try:
                            shared.reap(clock(), heartbeat)
                        except MasterCrashed:
                            return

                reaper = threading.Thread(
                    target=_reap_loop, name="reaper", daemon=True
                )
                reaper.start()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            reaper_stop.set()
            if reaper is not None:
                reaper.join()
            stop_hosts(hosts)
            if store is not None:
                store.close()
            if sampler is not None:
                # Stop the sampling thread here; the stream is
                # finalized only after end-of-run gauges are stamped
                # (so ``final`` matches the report snapshot), or on the
                # failure paths below.
                sampler.stop()
        for worker in workers:
            if worker.error is not None and not isinstance(
                worker.error, (InjectedCrash, MasterCrashed)
            ):
                if sampler is not None:
                    sampler.close()
                raise worker.error
        if shared.crashed:
            # The journal holds everything completed before the crash;
            # running again with the same checkpoint_dir resumes there.
            if sampler is not None:
                sampler.close()
            raise MasterCrashed(crash_at)
        makespan = clock()

        by_query: dict[str, list[tuple[SearchHit, ...]]] = {}
        for task_result in master.merged_results():
            task = master.pool.task(task_result.task_id)
            by_query.setdefault(task.query_id, []).append(
                task_result.payload  # type: ignore[arg-type]
            )
        results = {
            query_id: merge_hits(hit_lists, top=top)
            for query_id, hit_lists in by_query.items()
        }
        total_cells = sum(t.cells for t in tasks)
        finalize_run_metrics(metrics, makespan, total_cells)
        if sampler is not None:
            sampler.close()
        return RunReport(
            makespan=makespan,
            total_cells=total_cells,
            results=results,
            trace=list(master.trace),
            tasks_by_pe={w.pe_id: w.tasks_done for w in workers},
            metrics=metrics.snapshot(),
            events=events,
        )
