"""In-process always-on search service (threaded environment).

The service analogue of :class:`~repro.core.runtime.HybridRuntime`:
the same ``_Worker`` threads and lock-guarded master facade, each
worker driving its PE's engine in a process forked at :meth:`start`
(the database is inherited; every task sends its query over the
PE's pipe), but the workload arrives over
:meth:`ThreadedSearchService.submit` while the workers run, instead of
being preloaded.  A ticker thread drives
:meth:`ServiceCore.tick` so completions finalize, deadlines expire
(propagating cancel flags to executing workers, exactly the replica
cancellation path) and the dispatch window refills.

Results for admitted requests are byte-identical to the one-shot
:class:`~repro.core.runtime.HybridRuntime` path: one task per request
against the whole database, ranked by the same
:func:`~repro.core.results.merge_hits`.
"""

from __future__ import annotations

import threading
import time

from ..align.api import SearchHit
from ..core.enginehost import EngineHost, start_hosts, stop_hosts
from ..core.engines import Engine
from ..core.master import Master
from ..core.policies import AllocationPolicy, PackageWeightedSelfScheduling
from ..core.results import merge_hits
from ..core.runtime import _SharedMaster, _Worker
from ..durability import CheckpointStore, restore_into, workload_fingerprint
from ..sequences.database import SequenceDatabase
from ..sequences.records import Sequence
from .core import ServiceConfig, ServiceCore, ServiceRequest, SubmitOutcome

__all__ = ["ThreadedSearchService"]

_TICK_SECONDS = 0.005
_WAIT_SECONDS = 0.002


class ThreadedSearchService:
    """A long-running search front door over process-backed PEs.

    Usage::

        service = ThreadedSearchService(engines, database).start()
        outcome = service.submit("tenant-a", query, deadline=5.0)
        hits = service.wait(outcome.request_id)
        service.drain()
        service.close()
    """

    def __init__(
        self,
        engines: dict[str, Engine],
        database: SequenceDatabase,
        policy: AllocationPolicy | None = None,
        adjustment: bool = True,
        omega: int = 8,
        config: ServiceConfig | None = None,
        top: int = 10,
        tick_interval: float = _TICK_SECONDS,
        checkpoint_dir: str | None = None,
        checkpoint_sync_every: int = 1,
        checkpoint_compact_every: int = 0,
    ):
        if not engines:
            raise ValueError("at least one engine is required")
        if tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        self.engines = dict(engines)
        self.database = database
        self.top = top
        self.tick_interval = tick_interval
        self._start_time = time.perf_counter()
        self._store: CheckpointStore | None = None
        recovered = None
        if checkpoint_dir is not None:
            self._store = CheckpointStore(
                checkpoint_dir,
                sync_every=checkpoint_sync_every,
                compact_every=checkpoint_compact_every,
            )
            recovered = self._store.open(workload_fingerprint([]))
        self.master = Master(
            [],
            policy=policy or PackageWeightedSelfScheduling(),
            adjustment=adjustment,
            omega=omega,
            journal=self._store,
        )
        #: Growing query catalog; task.query_index points into it.  New
        #: entries are appended *before* the task becomes visible (the
        #: submit happens under the master lock), so workers never see
        #: an index they cannot resolve.
        self.queries: list[Sequence] = []
        if self._store is not None:
            # Cold restart: master results first (so finished requests
            # can readopt their journaled hits), then the service
            # journal rebuilds queues and re-admits unfinished work.
            if recovered is not None and not recovered.empty:
                restore_into(self.master, recovered, now=0.0)
            results = (
                {r.task_id: r for r in recovered.results()}
                if recovered is not None
                else {}
            )
            self.core = ServiceCore.recover(
                self.master,
                self._store,
                config,
                now=0.0,
                results=results,
                query_index_of=self._recover_query,
                wall_now=time.time(),
            )
        else:
            self.core = ServiceCore(self.master, config)
        self.shared = _SharedMaster(self.master)
        self._cancel_lock = threading.Lock()
        self._cancel_flags: dict[str, set[int]] = {
            pe: set() for pe in self.engines
        }
        self._workers: list[_Worker] = []
        self._hosts: dict[str, EngineHost] = {}
        self._ticker: threading.Thread | None = None
        self._ticker_stop = threading.Event()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    def _clock(self) -> float:
        return time.perf_counter() - self._start_time

    def _recover_query(self, record: dict) -> int:
        """Re-register a journaled inline query payload; its new index.

        Called by :meth:`ServiceCore.recover` for every request that
        still needs (re-)execution.  A record admitted without a
        payload cannot be re-run and keeps index ``-1`` — workers would
        fail on it, so such admits only happen journal-less.
        """
        payload = record.get("query")
        if payload is None:
            return -1
        self.queries.append(
            Sequence(payload["id"], payload["residues"])
        )
        return len(self.queries) - 1

    def start(self) -> "ThreadedSearchService":
        if self._started:
            return self
        self._started = True
        # Fork before this service starts any thread of its own.
        self._hosts = start_hosts(self.engines, [self.database])
        self._workers = [
            _Worker(
                pe_id,
                self._hosts[pe_id],
                self.shared,
                self.queries,
                [0],
                self._cancel_flags,
                self._cancel_lock,
                self._clock,
            )
            for pe_id in self.engines
        ]
        for worker in self._workers:
            self.shared.register(worker.pe_id, self._clock())
        for worker in self._workers:
            worker.start()
        self._ticker = threading.Thread(
            target=self._tick_loop, name="service-ticker", daemon=True
        )
        self._ticker.start()
        return self

    def _tick_loop(self) -> None:
        while not self._ticker_stop.wait(self.tick_interval):
            actions = self.shared.with_lock(
                lambda m: self.core.tick(self._clock())
            )
            self._apply_cancels(actions.cancels)
            if self.core.drained:
                return

    def _apply_cancels(self, cancels) -> None:
        if not cancels:
            return
        with self._cancel_lock:
            for pe_id, task_id in cancels:
                if pe_id in self._cancel_flags:
                    self._cancel_flags[pe_id].add(task_id)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        query: Sequence,
        deadline: float | None = None,
        request_id: str | None = None,
    ) -> SubmitOutcome:
        """Admit *query* for *tenant*; ``deadline`` is seconds from now.

        A client-supplied *request_id* makes the call idempotent —
        resubmitting an id the service already admitted (including one
        recovered from the journal after a restart) acknowledges the
        original admission instead of creating a duplicate.
        """
        if not self._started or self._closed:
            raise RuntimeError("service is not running")

        def _submit(master: Master) -> SubmitOutcome:
            if (
                request_id is not None
                and request_id in self.core.requests
            ):
                return SubmitOutcome(accepted=True, request_id=request_id)
            now = self._clock()
            self.queries.append(query)
            outcome = self.core.submit(
                tenant=tenant,
                query_id=query.id,
                query_length=len(query),
                cells=len(query) * self.database.total_residues,
                now=now,
                deadline=None if deadline is None else now + deadline,
                query_index=len(self.queries) - 1,
                request_id=request_id,
                query={"id": query.id, "residues": query.residues},
            )
            if not outcome.accepted:
                self.queries.pop()
            return outcome

        return self.shared.with_lock(_submit)

    def poll(self, request_id: str) -> ServiceRequest:
        return self.shared.with_lock(
            lambda m: self.core.poll(request_id)
        )

    def result(self, request_id: str) -> tuple[SearchHit, ...] | None:
        """Ranked hits of a ``done`` request (``None`` otherwise).

        Identical ranking to the one-shot runtime: the winning task's
        payload through :func:`merge_hits` with the service's ``top``.
        """
        hits = self.shared.with_lock(
            lambda m: self.core.results_for(request_id)
        )
        if hits is None:
            return None
        return merge_hits([hits], top=self.top)

    def wait(
        self, request_id: str, timeout: float = 60.0
    ) -> ServiceRequest:
        """Block until *request_id* reaches a terminal state."""
        limit = time.perf_counter() + timeout
        while True:
            request = self.poll(request_id)
            if request.state in ("done", "expired", "cancelled"):
                return request
            if time.perf_counter() >= limit:
                raise TimeoutError(
                    f"request {request_id} still {request.state!r} "
                    f"after {timeout}s"
                )
            time.sleep(_WAIT_SECONDS)

    def cancel(self, request_id: str) -> None:
        actions = self.shared.with_lock(
            lambda m: self.core.cancel(request_id, self._clock())
        )
        self._apply_cancels(actions.cancels)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> dict:
        """Stop admission, finish in-flight work, return a final record.

        Returns once every outstanding request has retired and the
        worker threads have exited (the drained master reports *done*
        to their next poll).
        """
        self.shared.with_lock(lambda m: self.core.drain(self._clock()))
        limit = time.perf_counter() + timeout
        while not self.core.drained:
            if time.perf_counter() >= limit:
                raise TimeoutError("drain did not complete in time")
            time.sleep(_WAIT_SECONDS)
        for worker in self._workers:
            worker.join(timeout=max(0.0, limit - time.perf_counter()))
        self._stop_hosts()
        return self.shared.with_lock(
            lambda m: self.core.final_record(self._clock())
        )

    def crash(self) -> None:
        """Hard-kill simulation for chaos tests: no drain, no farewell.

        Arms the :class:`~repro.faults.MasterCrashed` fault on the
        shared facade — workers see a dead master and exit — then stops
        the ticker and closes the journal handles.  With the default
        ``sync_every=1`` every acknowledged admission is already on
        disk, so what remains is exactly the state a ``kill -9`` leaves
        behind; a new :class:`ThreadedSearchService` pointed at the
        same ``checkpoint_dir`` cold-restarts from it.
        """
        if self._closed:
            return
        self._closed = True
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join()

        def _arm(master: Master) -> None:
            self.shared._crash_at = -1.0
            self.shared.crashed = True

        self.shared.with_lock(_arm)
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._stop_hosts()
        if self._store is not None:
            self._store.close()
            self._store = None

    def close(self) -> None:
        """Drain (if not already), stop the ticker and engine processes."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._started and not self.core.drained:
                self.drain()
        finally:
            self._ticker_stop.set()
            if self._ticker is not None:
                self._ticker.join()
            for worker in self._workers:
                worker.join(timeout=5.0)
            self._stop_hosts()
            if self._store is not None:
                self._store.close()
                self._store = None
        for worker in self._workers:
            if worker.error is not None:
                raise worker.error

    def _stop_hosts(self) -> None:
        """Stop the engine processes once no worker needs them."""
        stop_hosts(self._hosts)
        self._hosts = {}

    def __enter__(self) -> "ThreadedSearchService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
