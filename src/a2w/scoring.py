"""Word error rate by Levenshtein alignment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


class EmptyReference(ValueError):
    """Raised when a non-empty hypothesis is scored against an empty reference."""


@dataclass(frozen=True)
class WerReport:
    substitutions: int
    insertions: int
    deletions: int
    ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self) -> float:
        """(S+I+D)/N as a percentage; 0.0 for the empty-vs-empty case."""
        if self.ref_words == 0:
            return 0.0
        return 100.0 * self.errors / self.ref_words

    def __add__(self, other: "WerReport") -> "WerReport":
        return WerReport(
            self.substitutions + other.substitutions,
            self.insertions + other.insertions,
            self.deletions + other.deletions,
            self.ref_words + other.ref_words,
        )

    def __str__(self) -> str:
        return (
            f"WER {self.wer:.2f}% "
            f"(S={self.substitutions} I={self.insertions} D={self.deletions} N={self.ref_words})"
        )


def wer(ref: Sequence[str], hyp: Sequence[str]) -> WerReport:
    """Minimal-edit alignment with unit costs.

    Ties during backtrace prefer substitution over insertion over deletion,
    so the count breakdown is deterministic; the total S+I+D is the
    Levenshtein distance regardless.
    """
    ref = [w.upper() for w in ref]
    hyp = [w.upper() for w in hyp]
    if not ref and hyp:
        raise EmptyReference("reference transcript is empty")
    m, n = len(ref), len(hyp)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        dist[i][0] = i
    for j in range(1, n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        row, prev = dist[i], dist[i - 1]
        for j in range(1, n + 1):
            sub = prev[j - 1] + (ref[i - 1] != hyp[j - 1])
            row[j] = min(sub, row[j - 1] + 1, prev[j] + 1)
    subs = ins = dels = 0
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return WerReport(substitutions=subs, insertions=ins, deletions=dels, ref_words=m)


def corpus_wer(refs: Mapping[str, Sequence[str]], hyps: Mapping[str, Sequence[str]]) -> WerReport:
    """Sum the per-utterance alignments; both sides must cover the same ids.
    An empty reference against a non-empty hypothesis raises EmptyReference naming the id."""
    if set(refs) != set(hyps):
        missing = set(refs) ^ set(hyps)
        raise KeyError(f"reference and hypothesis ids differ, e.g. {sorted(missing)[:3]}")
    total = WerReport(0, 0, 0, 0)
    for utt_id in sorted(refs):
        try:
            total = total + wer(refs[utt_id], hyps[utt_id])
        except EmptyReference as exc:
            raise EmptyReference(f"{utt_id}: {exc}") from None
    return total

