"""Shared helpers: host facts, statistics, timing loops, result files."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Generated inputs, result files and span dumps (ignored by git).
OUT = os.path.join(ROOT, ".perfbench_out")


def host_facts(seed: int) -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    values = sorted(values)
    if not values:
        return 0.0
    position = q * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def child_env() -> dict:
    """Environment for a child process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def metric_sum(snapshot: dict, name: str) -> float:
    """Sum of every series of one family in a ``repro.metrics.v1`` dict."""
    for family in snapshot.get("metrics", ()):
        if family["name"] == name:
            return float(sum(s.get("value", 0.0) for s in family["series"]))
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(operation, seconds: float):
    """Repeat *operation* within a *seconds* budget; returns durations.

    A new round starts only while the median round so far still fits in
    the budget, so a run lasts about *seconds* whatever the round size.
    """
    durations: list[float] = []
    outputs = []
    start = time.perf_counter()
    while True:
        used = time.perf_counter() - start
        if durations and used + statistics.median(durations) > seconds:
            break
        begin = time.perf_counter()
        outputs.append(operation())
        durations.append(time.perf_counter() - begin)
    return durations, outputs


def write_result(name: str, document: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
