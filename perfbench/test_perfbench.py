"""Tests of the benchmark's own machinery (not of the program).

Run from the checkout root::

    PYTHONPATH=src:. python -m pytest perfbench -q
"""

import numpy as np
import pytest

from perfbench import inputs
from perfbench.oracle import Oracle, digest
from perfbench.tracing import Tracer, self_times, totals


@pytest.fixture(scope="module")
def small():
    from repro.align import affine_gap, get_matrix

    rng = np.random.default_rng(5)
    query = inputs.residues(rng, 60)
    subjects = [(f"db|{i}", inputs.residues(rng, 50)) for i in range(12)]
    subjects[4] = ("homolog|q|4", inputs.mutate(rng, query))
    return query, subjects, get_matrix("blosum62"), affine_gap(10, 2)


def _oracle(small, sample=12):
    query, subjects, matrix, gaps = small
    return Oracle(subjects, matrix, gaps, 3, np.random.default_rng(0),
                  sample=sample)


def _true_hits(small):
    from repro.align.api import SearchHit

    query, subjects, matrix, gaps = small
    oracle = _oracle(small)
    scores = [oracle.score(query, text) for _, text in subjects]
    order = np.argsort(-np.asarray(scores), kind="stable")[:3]
    return [
        SearchHit(subjects[i][0], int(i), scores[i], len(subjects[i][1]))
        for i in order
    ]


def test_true_hits_pass(small):
    oracle = _oracle(small)
    assert oracle.check("q", small[0], _true_hits(small), ["homolog|q|4"])
    assert oracle.problems == []


@pytest.mark.parametrize("corruption", [
    "score", "order", "name", "drop_planted", "miss_better", "short",
])
def test_corrupted_hit_list_is_caught(small, corruption):
    from dataclasses import replace

    hits = _true_hits(small)
    if corruption == "score":
        hits[1] = replace(hits[1], score=hits[1].score + 1)
    elif corruption == "order":
        hits[0], hits[1] = hits[1], hits[0]
    elif corruption == "name":
        hits[2] = replace(hits[2], subject_id="db|other")
    elif corruption == "drop_planted":
        hits = [h for h in hits if not h.subject_id.startswith("homolog")]
        hits.append(hits[-1])
    elif corruption == "miss_better":
        # Report a weak subject in place of the k-th: an unreported
        # subject then outscores the list's tail.
        oracle = _oracle(small)
        reported = {h.subject_index for h in hits}
        weakest = min(
            (i for i in range(12) if i not in reported),
            key=lambda i: oracle.score(small[0], small[1][i][1]),
        )
        hits[2] = replace(
            hits[2], subject_id=small[1][weakest][0],
            subject_index=weakest,
            score=oracle.score(small[0], small[1][weakest][1]),
        )
    else:
        hits = hits[:2]
    oracle = _oracle(small)
    assert not oracle.check("q", small[0], hits, ["homolog|q|4"])
    assert oracle.problems


def test_digest_sees_any_change(small):
    from dataclasses import replace

    hits = _true_hits(small)
    assert digest(hits) == digest(list(hits))
    assert digest(hits) != digest([replace(hits[0], score=0)] + hits[1:])


def test_inputs_depend_only_on_seed():
    a, b = inputs.exact_inputs(7), inputs.exact_inputs(7)
    assert a.queries == b.queries and a.subjects == b.subjects
    c = inputs.exact_inputs(8)
    assert c.subjects != a.subjects
    # Same work per seed: only order, residues and the planted
    # homologs' indels differ.
    assert abs(a.cells - c.cells) / a.cells < 0.03


def test_service_schedule_is_seeded():
    a = inputs.service_inputs(3, 4.0, 40)
    b = inputs.service_inputs(3, 4.0, 40)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert a.requests == b.requests
    assert a.arrivals[0] == 0.0 and np.all(np.diff(a.arrivals) >= 0)
    probes = [r for r in a.requests if r[1] in a.planted]
    assert len(probes) == 40 // inputs.PROBE_EVERY


def test_self_time_subtracts_children(small):
    from repro.core.engines import InterSequenceEngine
    from repro.sequences import Sequence, SequenceDatabase

    query, subjects, matrix, gaps = small
    database = SequenceDatabase(
        [Sequence(id=i, residues=t) for i, t in subjects]
    )
    engine = InterSequenceEngine(matrix, gaps, top=3, lanes=4)
    tracer = Tracer().install()
    try:
        engine.search(Sequence(id="q", residues=query), database)
    finally:
        tracer.uninstall()
    spans = tracer.closed()
    search = next(s for s in spans if s["name"] == "engine.search")
    children = [s for s in spans if s["parent"] == search["id"]]
    assert {s["name"] for s in children} >= {"align.sweep"}
    covered = sum(s["end"] - s["start"] for s in children)
    key = (search["pid"], search["id"])
    assert self_times(spans)[key] == pytest.approx(
        search["end"] - search["start"] - covered
    )
    # Twelve subjects in lanes of four: three packs, three sweeps; a
    # sweep's cells include its pack's padding.
    rows = totals(spans)
    assert rows["align.sweep"]["count"] == 3
    assert rows["align.sweep"]["cells"] >= len(query) * sum(
        len(t) for _, t in subjects
    )


def test_missing_entry_point_is_reported_not_raised():
    tracer = Tracer().install([
        ("repro.core.engines", "no_such_kernel", "align.sweep",
         None, False, None),
        ("repro.no_such_module", "f", "x", None, False, None),
    ])
    try:
        assert tracer.missing == [
            "repro.core.engines:no_such_kernel", "repro.no_such_module:f",
        ]
    finally:
        tracer.uninstall()


def test_wrappers_time_generators_and_restore(small):
    import repro.core.engines as engines
    from repro.sequences import Sequence, SequenceDatabase

    _, subjects, matrix, _ = small
    database = SequenceDatabase(
        [Sequence(id=i, residues=t) for i, t in subjects]
    )
    original = engines.pack_database
    tracer = Tracer().install()
    try:
        packs = list(engines.pack_database(database, matrix, lanes=4))
    finally:
        tracer.uninstall()
    assert engines.pack_database is original
    # One span for the call, one per pack pulled, one for exhaustion.
    assert totals(tracer.closed())["engine.pack"]["count"] == len(packs) + 2


def test_metrics_of_a_vanished_kernel_are_reported_missing():
    from perfbench.tracing import TARGETS, missing_spans

    gone = [f"{m}:{p}" for m, p, name, *_ in TARGETS if name == "align.screen"]
    assert missing_spans(gone) == {"align.screen"}
    assert missing_spans(gone[:1]) == set()


def test_layer_map_covers_every_per_layer_metric():
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(root, "perfbench", "layers.json")) as handle:
        layers = json.load(handle)
    workloads = {w["name"] for w in spec["workloads"]}
    mapped = [row["metric"] for row in layers["map"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    for row in layers["map"]:
        assert set(row["workloads"]) <= workloads
        assert row["metric"].split(".")[0] in layers["layers"]
