"""In-memory span tracing around the program's layer entry points.

The traced run replaces selected module attributes of the program
(kernel functions, engine methods, store and transport calls) with
thin timing wrappers, from the benchmark's side only: the program's
own files are untouched.  Spans live in memory and are written out as
JSON lines when the run ends.

Each span records its name, start, end, the span that caused it (the
enclosing span on the same thread) and, where asked, the thread's CPU
time.  A span's *self time* is its duration minus the time its child
spans cover.

A wrapper whose target no longer exists (a kernel merged away, a
method renamed) is skipped and the name is kept in :attr:`missing`;
metrics built only from such spans are then reported as missing
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time


def _query_cells(args) -> int:
    return len(args[0]) * args[1].cells_per_query_residue


def _multi_cells(args) -> int:
    return int(args[0].lengths.sum()) * args[1].cells_per_query_residue


def _search_attrs(args, result) -> dict:
    query, database = args[1], args[2]
    return {
        "query": query.id,
        "cells": len(query) * database.total_residues,
        "aborted": result is None,
    }


#: (module, attribute path, span name, cells function, record CPU time,
#: attribute function).  The same kernel is wrapped wherever a layer
#: holds its own reference to it.
TARGETS = (
    ("repro.core.engines", "InterSequenceEngine.search", "engine.search",
     None, True, _search_attrs),
    ("repro.core.engines", "sw_score_batch", "align.sweep",
     _query_cells, False, None),
    ("repro.core.engines", "sw_score_batch_multi", "align.sweep",
     _multi_cells, False, None),
    ("repro.align.screening", "sw_score_batch", "align.sweep",
     _query_cells, False, None),
    ("repro.core.engines", "sw_screen_batch", "align.screen",
     _query_cells, False, None),
    ("repro.core.engines", "sw_screen_batch_multi", "align.screen",
     _multi_cells, False, None),
    ("repro.core.engines", "rescore_screened", "align.rescore",
     None, False, None),
    ("repro.core.engines", "rescore_screened_multi", "align.rescore",
     None, False, None),
    ("repro.core.engines", "pack_database", "engine.pack",
     None, False, None),
    ("repro.core.engines", "pack_database_binned", "engine.pack",
     None, False, None),
    ("repro.core.caching", "pack_database", "engine.pack",
     None, False, None),
    ("repro.core.caching", "pack_database_binned", "engine.pack",
     None, False, None),
    ("repro.align.screening", "pack_database", "engine.pack",
     None, False, None),
    ("repro.core.engines", "_padded_profile", "engine.profile",
     None, False, None),
    ("repro.core.engines", "build_multi_profile", "engine.profile",
     None, False, None),
    ("repro.core.engines", "build_screen_profile", "engine.profile",
     None, False, None),
    ("repro.core.engines", "build_screen_multi_profile", "engine.profile",
     None, False, None),
    ("repro.align.screening", "_padded_profile", "engine.profile",
     None, False, None),
    ("repro.store.packstore", "PackStore.load_packs", "store.load",
     None, False, None),
    ("repro.store.packstore", "PackStore.load_binned_packs", "store.load",
     None, False, None),
    ("repro.store.packstore", "PackStore.load_profile", "store.load",
     None, False, None),
)


def missing_spans(missing: list[str], targets=TARGETS) -> set[str]:
    """Span names none of whose entry points could be wrapped."""
    names = {name for _, _, name, *_ in targets}
    alive = {
        name for module, path, name, *_ in targets
        if f"{module}:{path}" not in missing
    }
    return names - alive


class Tracer:
    """Collects spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, cpu: bool) -> dict:
        stack = self._stack()
        span = {
            "name": name,
            "parent": stack[-1] if stack else -1,
            "thread": threading.get_ident(),
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "cpu0": time.thread_time() if cpu else None,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def _close(self, span: dict, attrs: dict | None = None) -> None:
        span["end"] = time.perf_counter()
        cpu0 = span.pop("cpu0")
        if cpu0 is not None:
            span["cpu"] = time.thread_time() - cpu0
        if attrs:
            span.update(attrs)
        self._stack().pop()

    # -- wrapping ------------------------------------------------------
    def _wrapper(self, fn, name, cells, cpu, describe):
        tracer = self

        def lazily(generator):
            # Generators (the lane packers) do their work on each
            # ``next``; time every step where the consumer pulls it.
            while True:
                span = tracer._open(name, cpu)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, cpu)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                attrs = describe(args, result) if describe else {}
                if cells is not None:
                    attrs["cells"] = cells(args)
                tracer._close(span, attrs)
            if inspect.isgenerator(result):
                return lazily(result)
            return result

        return traced

    def install(self, targets=TARGETS) -> "Tracer":
        for module_name, path, name, cells, cpu, describe in targets:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(
                    owner, type
                ) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            setattr(owner, attr, self._wrapper(
                original, name, cells, cpu, describe
            ))
            self._restore.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def closed(self) -> list[dict]:
        return [s for s in self.spans if "end" in s]



def write_spans(path: str, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")


def load_spans(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread and nest inside it, so the
    covered time is the sum of the children's durations.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans}
    own = {
        (s["pid"], s["id"]): s["end"] - s["start"] for s in spans
    }
    for span in spans:
        parent = (span["pid"], span["parent"])
        if span["parent"] >= 0 and parent in by_key:
            own[parent] -= span["end"] - span["start"]
    return {key: max(value, 0.0) for key, value in own.items()}


def totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, total and self seconds, cells."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(
            span["name"],
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "cells": 0},
        )
        row["count"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[(span["pid"], span["id"])]
        row["cells"] += int(span.get("cells", 0) or 0)
    return out


def engine_layer(spans: list[dict], ops: int) -> tuple[dict, dict]:
    """Kernel and engine metrics per operation, and the span totals.

    *ops* is the number of operations the spans cover (batch searches
    or service requests); times are per operation.
    """
    rows = totals(spans)
    ops = max(ops, 1)

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def mcups(name):
        row = rows.get(name)
        if not row or not row["total_s"]:
            return 0.0
        return row["cells"] / row["total_s"] / 1e6

    searches = [s for s in spans if s["name"] == "engine.search"]
    wall = sum(s["end"] - s["start"] for s in searches)
    cpu = sum(s.get("cpu", 0.0) for s in searches)
    return {
        "align.sweep_s": total("align.sweep") / ops,
        "align.sweep_mcups": mcups("align.sweep"),
        "align.screen_s": total("align.screen") / ops,
        "align.screen_mcups": mcups("align.screen"),
        "align.rescore_s": total("align.rescore") / ops,
        "engine.pack_s": total("engine.pack") / ops,
        "engine.profile_s": total("engine.profile") / ops,
        "engine.search_wall_s": wall / ops,
        "engine.search_cpu_s": cpu / ops,
        "engine.wait_share": (1.0 - cpu / wall) if wall else 0.0,
        "engine.self_s": rows.get("engine.search", {}).get("self_s", 0.0)
        / ops,
    }, rows
