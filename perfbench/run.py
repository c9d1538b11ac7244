"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search-exact --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` additionally runs traced and reports the per-layer
metrics and the tracing overhead.  The metric names, units and
workloads come from ``BENCHMARK.json`` at the checkout root.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a fuller result file (host facts, seed, per-layer detail,
oracle findings) is written under ``.perfbench_out/``.

The program under test is imported from ``src/`` of the same checkout;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no program to measure: src/repro is missing from this "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import common, searches, service
    from perfbench.tracing import missing_spans

    if args.workload == "service-openloop":
        result = service.run(args.seed, args.seconds, bool(args.trace))
    else:
        result = searches.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layer"] if args.trace else result["end_to_end"]
    # A metric whose spans' entry points are all gone from the program
    # is reported as missing (value 0); so is a layer the workload
    # bypasses.  See README.md.
    gone = missing_spans(result["detail"].get("missing_entry_points", []))
    missing = [
        m["name"] for m in wanted
        if any(m["name"].startswith(span + "_") for span in gone)
    ]
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    failed = int(result["failed"])
    attempted = int(result["attempted"])
    document = {
        "workload": args.workload,
        "host": common.host_facts(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "end_to_end": result["end_to_end"],
        "per_layer": result["layer"],
        "bypassed_layers": result["bypassed"],
        "missing_metrics": missing,
        "detail": result["detail"],
    }
    path = common.write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json", document
    )
    for name, metric in metrics.items():
        note = "  (missing)" if name in missing else ""
        print(f"{name:28s} {metric['value']:14.6f} {metric['unit']}{note}")
    print(f"{'failed_share':28s} {document['failed_share']:14.6f} "
          f"(failed {failed} of {attempted})")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
