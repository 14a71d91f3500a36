"""Greedy peak-picking decodes. No beam search, no language model anywhere:
the per-frame argmax is collapsed (adjacent repeats removed, then blanks)
and, for joint word+character models, split into its word and character
tracks.

Hypothesis rendering interleaves each word's spelled characters with the
word token, separated by "_" between word groups, e.g.::

    b-t h e-e THE _ b-c a e-t CAT

An out-of-vocabulary word shows its spelling followed by the UNK tag; the
rendering parses back losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .alphabet import BEGIN, BLANK_ID, BOTH, END, UNK_WORD, CharSet, JointAlphabet, Vocabulary, decode_words, unspell
from .ctc import PROBABILITIES, PosteriorLattice
from .network import Model, model_forward
from .pipeline import ASCENDING, Utterance, read_table, sort_and_batch, write_table

TAG_FROM_WORD = "from-word"
TAG_FROM_CHARS = "from-characters"
TAG_INCOMPLETE = "incomplete"


def frame_argmax(lattice: PosteriorLattice) -> np.ndarray:
    """Per-frame winning label id; ties resolve to the lowest label id."""
    return lattice.values.argmax(axis=1)


def collapse_labels(labels: Sequence[int]) -> list[int]:
    """Remove adjacent repeats, then blanks."""
    out: list[int] = []
    prev = None
    for label in labels:
        label = int(label)
        if label != prev and label != BLANK_ID:
            out.append(label)
        prev = label
    return out


def greedy_collapse(lattice: PosteriorLattice) -> list[int]:
    """Peak-picking decode: argmax path, repeats collapsed, blanks dropped."""
    return collapse_labels(frame_argmax(lattice))


def one_hot_lattice(labels: Sequence[int], num_labels: int) -> PosteriorLattice:
    """A probability lattice whose greedy decode is exactly ``labels``.

    A blank frame is inserted between adjacent equal labels, so the result
    has length len(labels) + (number of adjacent repeats).
    """
    frames: list[int] = []
    prev = None
    for label in labels:
        label = int(label)
        if prev is not None and label == prev:
            frames.append(BLANK_ID)
        frames.append(label)
        prev = label
    if not frames:
        frames = [BLANK_ID]
    values = np.zeros((len(frames), num_labels))
    values[np.arange(len(frames)), frames] = 1.0
    return PosteriorLattice(values, PROBABILITIES)


@dataclass(frozen=True)
class SarWord:
    word: str
    spelling: tuple[str, ...]  # character symbol texts observed before the word
    tag: str  # from-word | from-characters | incomplete


@dataclass(frozen=True)
class SarHypothesis:
    entries: tuple[SarWord, ...]

    @property
    def words(self) -> list[str]:
        return [e.word for e in self.entries]


def sar_decode_word(lattice: PosteriorLattice, joint: JointAlphabet) -> list[str]:
    """Keep only the word track; UNK stays as the literal tag."""
    return [joint.vocab.word_of(l) for l in greedy_collapse(lattice) if joint.is_word_id(l)]


def sar_decode_chars(lattice: PosteriorLattice, joint: JointAlphabet) -> SarHypothesis:
    """Recombine the character track into words at word-begin symbols.

    Characters before the first begin form, and segments that never reach
    an end form, are still emitted but tagged incomplete.
    """
    chars = [l for l in greedy_collapse(lattice) if joint.is_char_id(l) and l != joint.separator_id]
    segments: list[list[int]] = []
    for label in chars:
        if joint.char_symbol(label).position in (BEGIN, BOTH) or not segments:
            segments.append([])
        segments[-1].append(label)
    entries = []
    for segment in segments:
        first = joint.char_symbol(segment[0]).position
        last = joint.char_symbol(segment[-1]).position
        complete = first in (BEGIN, BOTH) and last in (END, BOTH)
        entries.append(
            SarWord(
                word=joint.unspell(segment).upper(),
                spelling=tuple(joint.char_symbol(l).text for l in segment),
                tag=TAG_FROM_CHARS if complete else TAG_INCOMPLETE,
            )
        )
    return SarHypothesis(entries=tuple(entries))


def sar_decode_switched(lattice: PosteriorLattice, joint: JointAlphabet) -> SarHypothesis:
    """Word decode that falls back to the buffered spelling at each UNK.

    The character buffer clears at every word label; characters after the
    final word label are discarded (emission is driven by word labels).
    A UNK with an empty buffer stays the literal tag, marked incomplete.
    """
    entries: list[SarWord] = []
    buffer: list[int] = []
    for label in greedy_collapse(lattice):
        if joint.is_char_id(label):
            if label != joint.separator_id:
                buffer.append(label)
            continue
        if not joint.is_word_id(label):
            continue
        spelling = tuple(joint.char_symbol(l).text for l in buffer)
        if label == joint.vocab.unk_id:
            if buffer:
                entries.append(SarWord(word=joint.unspell(buffer).upper(), spelling=spelling, tag=TAG_FROM_CHARS))
            else:
                entries.append(SarWord(word=UNK_WORD, spelling=(), tag=TAG_INCOMPLETE))
        else:
            entries.append(SarWord(word=joint.vocab.word_of(label), spelling=spelling, tag=TAG_FROM_WORD))
        buffer = []
    return SarHypothesis(entries=tuple(entries))


def render_hypothesis(hyp: SarHypothesis) -> str:
    """Spelling tokens then the word-slot token per group, groups joined by _.

    From-characters words render the UNK tag in the word slot (the spelled
    characters carry the content); incomplete spellings render with no word
    slot at all. parse_hypothesis inverts this exactly.
    """
    groups = []
    for entry in hyp.entries:
        if entry.tag == TAG_FROM_WORD:
            groups.append(list(entry.spelling) + [entry.word])
        elif entry.tag == TAG_FROM_CHARS:
            groups.append(list(entry.spelling) + [UNK_WORD])
        else:
            groups.append(list(entry.spelling) if entry.spelling else [UNK_WORD])
    return " _ ".join(" ".join(g) for g in groups)


def parse_hypothesis(text: str, charset: CharSet) -> SarHypothesis:
    """Inverse of render_hypothesis; needs the charset to classify tokens."""

    def _unspell(symbols: list[str]) -> str:
        if not all(s in charset for s in symbols):
            raise ValueError(f"{' '.join(symbols)!r} holds a token outside the {charset.variant} charset")
        return unspell([charset.id_of(s) for s in symbols], charset).upper()

    entries = []
    for chunk in text.split(" _ ") if text.strip() else []:
        tokens = [t for t in chunk.split() if t != "_"]
        if not tokens:
            continue
        last = tokens[-1]
        if last in charset:
            entries.append(SarWord(word=_unspell(tokens), spelling=tuple(tokens), tag=TAG_INCOMPLETE))
        elif last == UNK_WORD:
            spelling = tokens[:-1]
            if spelling:
                entries.append(SarWord(word=_unspell(spelling), spelling=tuple(spelling), tag=TAG_FROM_CHARS))
            else:
                entries.append(SarWord(word=UNK_WORD, spelling=(), tag=TAG_INCOMPLETE))
        else:
            entries.append(SarWord(word=last, spelling=tuple(tokens[:-1]), tag=TAG_FROM_WORD))
    return SarHypothesis(entries=tuple(entries))


def _annotated(hyp: SarHypothesis) -> tuple[list[str], SarHypothesis]:
    return hyp.words, hyp


# spell-and-recognize decode mode -> (lattice, joint) -> (words, annotation or None)
DECODE_MODES = {
    "word": lambda lattice, joint: (sar_decode_word(lattice, joint), None),
    "chars": lambda lattice, joint: _annotated(sar_decode_chars(lattice, joint)),
    "switched": lambda lattice, joint: _annotated(sar_decode_switched(lattice, joint)),
}


def decode_utterances(
    model: Model,
    utts: Sequence[Utterance],
    vocab: Vocabulary,
    joint: JointAlphabet | None = None,
    mode: str = "word",
    batch_size: int = 16,
) -> list[tuple[str, list[str], SarHypothesis | None]]:
    """Greedy-decode a prepared corpus; returns (id, words, annotation) rows
    in corpus order. ``mode`` must be a ``DECODE_MODES`` key; plain word
    models decode words whatever it is."""
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {mode!r}; choose from {', '.join(DECODE_MODES)}")
    decode = DECODE_MODES[mode]
    by_id = {}
    for batch in sort_and_batch(utts, ASCENDING, batch_size, lambda words: ()):
        lattices, _ = model_forward(batch.features, batch.lengths, model)
        for utt_id, lattice in zip(batch.ids, lattices):
            if joint is None:
                by_id[utt_id] = (decode_words(greedy_collapse(lattice), vocab), None)
            else:
                by_id[utt_id] = decode(lattice, joint)
    return [(u.id, *by_id[u.id]) for u in utts]


def write_transcripts(path: str | Path, rows: Sequence[tuple[str, Sequence[str]]]) -> None:
    write_table(path, [(utt_id, " ".join(words)) for utt_id, words in rows])


def read_transcripts(path: str | Path) -> dict[str, list[str]]:
    return read_table(path, lambda utt_id, text: text.upper().split())


def write_sar_file(path: str | Path, rows: Sequence[tuple[str, SarHypothesis]]) -> None:
    write_table(path, [(utt_id, render_hypothesis(hyp)) for utt_id, hyp in rows])


def read_sar_file(path: str | Path, charset: CharSet) -> dict[str, SarHypothesis]:
    """Inverse of ``write_sar_file``; the positional charset reads either charset's spellings."""
    return read_table(path, lambda utt_id, text: parse_hypothesis(text, charset))
