"""Process-backed PEs: one PE's engine running in a forked child.

The threaded runtime keeps every master interaction in a parent-side
worker thread, but the numpy sweeps of two engines in one interpreter
convoy on the GIL, so two PEs ran slower than one.  An
:class:`EngineHost` moves just the engine call into a child process
forked from the parent (the ``fork`` start method): the child inherits
the engine and the run's databases copy-on-write, so nothing is copied
or re-packed, and each task ships only its query over a
:func:`multiprocessing.Pipe`.

What crosses the pipe, per task::

    parent -> child   (queries, database_index, batch?)
    child  -> parent  ("progress", position, cells)   # cells > 0 only
    parent -> child   (go_on, stopped_positions)      # the closure's answer
    child  -> parent  ("done", hits, accounting) | ("error", exc, accounting)

Progress travels at chunk granularity: the engines report cells only
on the last subject of each chunk or lane pack, and the per-subject
zero-cell calls between them carry nothing the master could use, so
they stay in the child.  The parent-side closure therefore sees exactly
one call per chunk, which is both the PSS rate sample and the point
where crash faults and cancellations are honoured.

Screen counters and pack/profile cache counters move inside the child;
their deltas ride back with every result and are folded into the
parent's engine, so ``engine.screen_stats`` and the run's ``screen_*``
and ``cache_*`` counters read what an in-process run would.
"""

from __future__ import annotations

from .engines import ChunkProgress, Engine

# ``multiprocessing`` is imported where a host starts, not here: a
# process that only imports the package (a cluster master, a worker)
# should not carry it.

__all__ = ["EngineHost", "EngineProcessDied", "start_hosts", "stop_hosts"]

#: Seconds a host gets to exit after ``stop`` before it is terminated.
_STOP_SECONDS = 5.0


class EngineProcessDied(RuntimeError):
    """A PE's engine process exited while its worker still needed it."""

    def __init__(self, pe_id: str, exitcode: int | None):
        super().__init__(
            f"engine process of PE {pe_id!r} died (exit code {exitcode})"
        )
        self.pe_id = pe_id
        self.exitcode = exitcode


def _accounting(engine: Engine) -> tuple:
    """The engine's counters that move while it searches.

    ``(screened, rescored, saturated)`` of its screen stats (zeros when
    it has none), then ``(hits, misses, evictions)`` of its pack and of
    its profile cache (``None`` for a cache it does not have).
    """
    stats = getattr(engine, "screen_stats", None)
    screen = (
        (stats.screened, stats.rescored, stats.saturated)
        if stats is not None
        else (0, 0, 0)
    )
    caches = tuple(
        (cache.lru.hits, cache.lru.misses, cache.lru.evictions)
        if cache is not None
        else None
        for cache in (engine.pack_cache, engine.profile_cache)
    )
    return (screen, caches)


def _delta(after: tuple, before: tuple) -> tuple:
    screen = tuple(a - b for a, b in zip(after[0], before[0]))
    caches = tuple(
        None if a is None else tuple(x - y for x, y in zip(a, b))
        for a, b in zip(after[1], before[1])
    )
    return (screen, caches)


def _fold(engine: Engine, delta: tuple) -> None:
    """Add a child's accounting delta to the parent's engine."""
    screen, caches = delta
    stats = getattr(engine, "screen_stats", None)
    if stats is not None and any(screen):
        stats.add(*screen)
    for cache, counts in zip((engine.pack_cache, engine.profile_cache),
                             caches):
        if cache is not None and counts is not None and any(counts):
            cache.lru.absorb(*counts)


def _detach(engine: Engine) -> None:
    """In the child: fresh locks, no mirror into the parent's registry.

    Another thread of the parent may have held one of these locks at
    the moment of the fork; the child's increments are shipped back as
    deltas instead of being mirrored locally.
    """
    stats = getattr(engine, "screen_stats", None)
    if stats is not None:
        stats.reset_after_fork()
    for cache in (engine.pack_cache, engine.profile_cache):
        if cache is not None:
            cache.lru.reset_after_fork()


def _serve(engine: Engine, databases, conn, parent_ends) -> None:
    """Child main loop: run each task the parent sends until ``None``."""
    for end in parent_ends:
        # Parent-side ends (this host's and earlier hosts'): holding
        # them would keep the child from seeing EOF if the parent dies.
        end.close()
    _detach(engine)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # the parent is gone
        if message is None:
            return
        queries, index, batch = message
        database = databases[index]
        stopped: set[int] = set()

        def forward(position: int, chunk: ChunkProgress) -> bool:
            if not chunk.cells:
                # A per-subject checkpoint inside a chunk: the master
                # learns nothing from it, so it never leaves the child.
                return position not in stopped
            conn.send(("progress", position, chunk.cells))
            reply = conn.recv()
            if reply is None:
                raise SystemExit(0)  # the parent is shutting down
            go_on, now_stopped = reply
            stopped.update(now_stopped)
            return go_on

        before = _accounting(engine)
        try:
            if batch:
                outcome = engine.search_batch(
                    queries, database, progress=forward,
                    cancelled=stopped.__contains__,
                )
            else:
                outcome = engine.search(
                    queries[0], database,
                    progress=lambda chunk: forward(0, chunk),
                )
        except Exception as exc:  # handed to the parent's worker
            delta = _delta(_accounting(engine), before)
            try:
                conn.send(("error", exc, delta))
            except Exception:  # unpicklable: keep type name and text
                conn.send((
                    "error",
                    RuntimeError(f"{type(exc).__name__}: {exc}"),
                    delta,
                ))
            continue
        conn.send(("done", outcome, _delta(_accounting(engine), before)))


class EngineHost:
    """Parent-side handle of one PE's forked engine process.

    ``databases`` must be every database the PE will search, built
    before the fork; tasks refer to them by index.  Each call blocks the
    calling worker thread until the child answers, forwarding the
    child's progress messages to the caller's closure on the way.
    """

    def __init__(self, pe_id: str, engine: Engine, databases, inherited=()):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.pe_id = pe_id
        self.engine = engine
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_serve,
            args=(
                engine, list(databases), child_conn,
                [*inherited, self._conn],
            ),
            name=f"engine-{pe_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def _died(self) -> EngineProcessDied:
        self._process.join(_STOP_SECONDS)
        return EngineProcessDied(self.pe_id, self._process.exitcode)

    def _send(self, message) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise self._died() from exc

    def _recv(self):
        from multiprocessing.connection import wait

        ready = wait([self._conn, self._process.sentinel])
        if self._conn in ready:
            try:
                return self._conn.recv()
            except (EOFError, ConnectionResetError):
                pass
        raise self._died()

    def search(self, query, index: int, progress):
        """``engine.search`` over ``databases[index]``, in the child."""
        return self._call(
            ([query], index, False),
            lambda position, chunk: progress(chunk),
            None,
        )

    def search_batch(self, queries, index: int, progress, cancelled):
        """``engine.search_batch`` over ``databases[index]`` in the child."""
        return self._call((list(queries), index, True), progress, cancelled)

    def _call(self, message, progress, cancelled):
        size = len(message[0])
        self._send(message)
        failure: BaseException | None = None
        while True:
            reply = self._recv()
            if reply[0] == "progress":
                _, position, cells = reply
                if failure is not None:
                    # Already failing: stop the child's search at once.
                    self._send((False, tuple(range(size))))
                    continue
                try:
                    go_on = progress(position, ChunkProgress(cells))
                    stopped = (
                        tuple(p for p in range(size) if cancelled(p))
                        if cancelled is not None
                        else ()
                    )
                except BaseException as exc:  # crash faults, dead master
                    failure = exc
                    go_on, stopped = False, tuple(range(size))
                self._send((go_on, stopped))
                continue
            kind, outcome, delta = reply
            _fold(self.engine, delta)
            if failure is not None:
                raise failure
            if kind == "error":
                raise outcome
            return outcome

    def close(self) -> None:
        """Stop the child (terminating it if it does not exit in time)."""
        if self._process is None:
            return
        try:
            self._conn.send(None)
        except (OSError, ValueError):
            pass  # already gone
        self._process.join(_STOP_SECONDS)
        if self._process.exitcode is None:
            self._process.terminate()
            self._process.join()
        self._conn.close()
        self._process.close()
        self._process = None


def start_hosts(
    engines: dict[str, Engine], databases
) -> dict[str, EngineHost]:
    """Fork one :class:`EngineHost` per PE over the same *databases*.

    Each engine first builds its cached database conversions
    (:meth:`Engine.prepare`), so every child inherits them instead of
    building its own copy.
    """
    databases = list(databases)
    for engine in engines.values():
        for database in databases:
            engine.prepare(database)
    hosts: dict[str, EngineHost] = {}
    try:
        for pe_id, engine in engines.items():
            hosts[pe_id] = EngineHost(
                pe_id, engine, databases,
                inherited=[host._conn for host in hosts.values()],
            )
    except BaseException:
        stop_hosts(hosts)
        raise
    return hosts


def stop_hosts(hosts: dict[str, EngineHost]) -> None:
    for host in hosts.values():
        host.close()
