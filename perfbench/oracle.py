"""Correctness oracle: every reported hit list is checked independently.

The oracle rescoring uses the column-scan kernel ``sw_score_scan``,
which shares no code with the inter-sequence sweeps the engines run.
Per hit list it checks that:

- each reported hit names the subject at its index and carries the
  score the oracle computes for that pair;
- the hits are ranked by descending score;
- every planted homolog of the query ranks in the top-k;
- a seeded sample of unreported subjects scores no higher than the
  k-th hit.

Across repeats of the same input, the hit-list digest must not change.
A list that fails any check counts as one failed operation.
"""

from __future__ import annotations

import hashlib

import numpy as np


def digest(hits) -> str:
    """Stable digest of a ranked hit list (subject, index, score)."""
    text = ";".join(
        f"{h.subject_id},{h.subject_index},{h.score}" for h in hits
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


class Oracle:
    """Checks hit lists against one database and scoring scheme."""

    def __init__(self, subjects, matrix, gaps, top, rng, sample=4):
        from repro.align import sw_score_scan

        self._scan = sw_score_scan
        self.subjects = subjects  # list of (id, residues)
        self.matrix = matrix
        self.gaps = gaps
        self.top = top
        self.rng = rng
        self.sample = sample
        self.checked = 0
        self.problems: list[str] = []

    def score(self, query: str, subject: str) -> int:
        return int(self._scan(query, subject, self.matrix, self.gaps).score)

    def check(self, label: str, query: str, hits, planted=()) -> bool:
        """True when *hits* is a correct top-k list for *query*."""
        self.checked += 1
        problems = self._problems(query, tuple(hits), planted)
        for problem in problems:
            self.problems.append(f"{label}: {problem}")
        return not problems

    def _problems(self, query: str, hits, planted) -> list[str]:
        n = len(self.subjects)
        want = min(self.top, n)
        if len(hits) != want:
            return [f"{len(hits)} hits, expected {want}"]
        problems = []
        scores = [h.score for h in hits]
        if scores != sorted(scores, reverse=True):
            problems.append("hits not ranked by descending score")
        for hit in hits:
            index = hit.subject_index
            if not 0 <= index < n:
                problems.append(f"hit index {index} out of range")
                continue
            sid, text = self.subjects[index]
            if sid != hit.subject_id:
                problems.append(f"hit {index} names {hit.subject_id!r}")
            exact = self.score(query, text)
            if exact != hit.score:
                problems.append(
                    f"{sid} reported {hit.score}, oracle {exact}"
                )
        reported = {h.subject_id for h in hits}
        for sid in planted:
            if sid not in reported:
                problems.append(f"planted homolog {sid} not in top-{want}")
        kth = scores[-1] if scores else 0
        if len(hits) == self.top:
            indices = {h.subject_index for h in hits}
            others = np.array(
                [i for i in range(n) if i not in indices], dtype=np.int64
            )
            size = min(self.sample, len(others))
            for index in self.rng.choice(others, size=size, replace=False):
                sid, text = self.subjects[int(index)]
                exact = self.score(query, text)
                if exact > kth:
                    problems.append(
                        f"unreported {sid} scores {exact} > k-th {kth}"
                    )
        return problems
