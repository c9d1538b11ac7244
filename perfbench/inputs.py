"""Seeded input generators for the benchmark workloads.

The benchmark owns its generator so that the inputs depend only on the
seed, never on the program under test.  Every workload writes plain
FASTA files; the program receives nothing but those files.

Length distributions follow the workload descriptions in
``perfbench/README.md``.  Totals are pinned (gamma lengths are rescaled
to an exact residue budget, query lengths sit on a fixed grid) so that
two seeds differ in *which* sequences they draw, not in how much work
they make: run-to-run spread then measures the system, not the dice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

#: The 20 standard amino acids and their background frequencies
#: (Robinson & Robinson, 1991), as used by BLAST's composition stats.
AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
BACKGROUND = np.array([
    0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295,
    0.07377, 0.02199, 0.05142, 0.09019, 0.05744, 0.02243, 0.03856,
    0.05203, 0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
])
BACKGROUND = BACKGROUND / BACKGROUND.sum()
_LETTERS = np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)


@dataclass
class SearchInputs:
    """One offline search: queries, database and the planted truth."""

    queries: list[tuple[str, str]]
    subjects: list[tuple[str, str]]
    #: query id -> subject ids planted as its homologs.
    planted: dict[str, list[str]] = field(default_factory=dict)

    @property
    def cells(self) -> int:
        residues = sum(len(s) for _, s in self.subjects)
        return sum(len(q) for _, q in self.queries) * residues


def residues(rng: np.random.Generator, length: int) -> str:
    codes = rng.choice(len(AMINO_ACIDS), size=int(length), p=BACKGROUND)
    return _LETTERS[codes].tobytes().decode("ascii")


#: A planted homolog's per-residue substitution and indel rates.
SUBSTITUTION = 0.15
INDEL = 0.02
#: Gamma shape of subject lengths: the long right tail of protein
#: databases.
GAMMA_SHAPE = 2.4


def mutate(rng: np.random.Generator, text: str) -> str:
    """Point substitutions plus single-residue indels (a homolog)."""
    out: list[str] = []
    for ch in text:
        roll = rng.random()
        if roll < INDEL / 2:
            continue
        if roll < INDEL:
            out.append(AMINO_ACIDS[rng.integers(20)])
        if rng.random() < SUBSTITUTION:
            out.append(AMINO_ACIDS[rng.integers(20)])
        else:
            out.append(ch)
    return "".join(out)


def gamma_lengths(
    rng: np.random.Generator,
    count: int,
    mean: float,
    low: int,
    high: int | None = None,
) -> np.ndarray:
    """Gamma-distributed lengths with a fixed multiset, in seeded order.

    The lengths are the distribution's quantiles at evenly spaced levels,
    rescaled to exactly ``count * mean`` residues, so every seed packs
    the same length profile (lane padding depends on it) and asks for
    the same number of DP cells; the seed picks the order.
    """
    levels = (np.arange(count) + 0.5) / count
    reference = np.random.default_rng(0).gamma(
        GAMMA_SHAPE, mean / GAMMA_SHAPE, 200_000
    )
    raw = np.clip(np.quantile(reference, levels), low, high)
    target = int(round(count * mean))
    for _ in range(8):
        raw = np.clip(raw * (target / raw.sum()), low, high)
    lengths = np.maximum(np.round(raw).astype(np.int64), low)
    # Settle rounding on the longest entries so the total is exact
    # whenever the clip bounds allow it.
    drift = target - int(lengths.sum())
    order = np.argsort(-lengths)
    step = 1 if drift > 0 else -1
    index = 0
    while drift and index < 10 * count:
        slot = order[index % count]
        candidate = lengths[slot] + step
        if candidate >= low and (high is None or candidate <= high):
            lengths[slot] = candidate
            drift -= step
        index += 1
    return rng.permutation(lengths)


def grid_lengths(count: int, low: int, high: int) -> np.ndarray:
    """Evenly spaced lengths, as the paper's query sets use."""
    return np.linspace(low, high, count).round().astype(np.int64)


def _plant(
    rng: np.random.Generator,
    subjects: list[tuple[str, str]],
    queries: list[tuple[str, str]],
    per_query: int,
    eligible: np.ndarray,
) -> dict[str, list[str]]:
    """Replace random eligible subjects with mutated query copies."""
    slots = rng.choice(eligible, size=per_query * len(queries), replace=False)
    planted: dict[str, list[str]] = {}
    for number, (qid, text) in enumerate(queries):
        for slot in slots[number * per_query:(number + 1) * per_query]:
            sid = f"homolog|{qid}|{int(slot):05d}"
            subjects[int(slot)] = (sid, mutate(rng, text))
            planted.setdefault(qid, []).append(sid)
    return planted


def exact_inputs(seed: int) -> SearchInputs:
    """``search-exact``: 8 queries of 150-300 aa, gamma subjects."""
    rng = np.random.default_rng([seed, 1])
    queries = [
        (f"q{i:02d}", residues(rng, n))
        for i, n in enumerate(grid_lengths(8, 150, 300))
    ]
    lengths = gamma_lengths(rng, 200, 300.0, low=30)
    subjects = [
        (f"db|{i:05d}", residues(rng, n)) for i, n in enumerate(lengths)
    ]
    planted = _plant(rng, subjects, queries, 3, np.arange(len(subjects)))
    return SearchInputs(queries, subjects, planted)


def skewed_inputs(seed: int) -> SearchInputs:
    """``search-screen-skewed``: dense short mass plus a long tail."""
    rng = np.random.default_rng([seed, 2])
    queries = [
        (f"q{i:02d}", residues(rng, n))
        for i, n in enumerate(grid_lengths(6, 100, 600))
    ]
    short = gamma_lengths(rng, 1000, 70.0, low=20, high=150)
    tail = rng.permutation(grid_lengths(50, 300, 3000))
    lengths = rng.permutation(np.concatenate([short, tail]))
    subjects = [
        (f"db|{i:05d}", residues(rng, n)) for i, n in enumerate(lengths)
    ]
    planted = _plant(
        rng, subjects, queries, 2, np.flatnonzero(lengths <= 150)
    )
    return SearchInputs(queries, subjects, planted)


@dataclass
class ServiceInputs:
    """The service database plus the open-loop request schedule."""

    subjects: list[tuple[str, str]]
    #: Arrival offsets (seconds from schedule start), one per request.
    arrivals: np.ndarray
    #: Per request: (query id, residues, tenant).
    requests: list[tuple[str, str, str]]
    #: Probe residues -> subject ids planted as its homologs.
    planted: dict[str, list[str]] = field(default_factory=dict)


#: Every PROBE_EVERY-th request re-sends one of the probe queries,
#: whose homologs are planted in the database: it tests ranking, and
#: each probe recurs, so the hit-list digest is compared across repeats.
PROBE_EVERY = 10
PROBES = 5
TENANTS = ("tenant-a", "tenant-b")
#: Service database: subject count and mean length (aa).  32 subjects
#: fill one pack of the gpu engine's 32 lanes.
SERVICE_SUBJECTS = 32
SERVICE_MEAN = 250.0


def service_inputs(seed: int, rate: float, count: int) -> ServiceInputs:
    """``service-openloop``: Poisson schedule of ``count`` requests."""
    rng = np.random.default_rng([seed, 3])
    lengths = gamma_lengths(rng, SERVICE_SUBJECTS, SERVICE_MEAN, low=30)
    subjects = [
        (f"db|{i:05d}", residues(rng, n)) for i, n in enumerate(lengths)
    ]
    probes = [
        (f"probe{i}", residues(rng, n))
        for i, n in enumerate(grid_lengths(PROBES, 40, 120))
    ]
    planted_by_id = _plant(
        rng, subjects, probes, 1, np.arange(len(subjects))
    )
    planted = {text: planted_by_id[pid] for pid, text in probes}
    # Stratified draws: the gaps are the exponential distribution's
    # quantiles and the query lengths an even 40-120 aa grid, each in a
    # seeded order.  Seeds then differ in arrival order and residues,
    # not in total offered work or schedule length.
    strata = (np.arange(count) + 0.5) / count
    gaps = rng.permutation(-np.log1p(-strata) / rate)
    arrivals = np.concatenate([[0.0], np.cumsum(gaps[1:])])
    lengths = rng.permutation(grid_lengths(count, 40, 120))
    requests = []
    for index in range(count):
        if index % PROBE_EVERY == PROBE_EVERY - 1:
            text = probes[(index // PROBE_EVERY) % PROBES][1]
        else:
            text = residues(rng, int(lengths[index]))
        requests.append((f"r{index:05d}", text, TENANTS[index % 2]))
    return ServiceInputs(subjects, arrivals, requests, planted)


def write_fasta(path: str, records: list[tuple[str, str]]) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as handle:
        for seq_id, text in records:
            handle.write(f">{seq_id}\n")
            for start in range(0, len(text), 60):
                handle.write(text[start:start + 60] + "\n")
    return path
