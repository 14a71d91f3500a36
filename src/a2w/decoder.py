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
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .alphabet import (
    BEGIN, BLANK_ID, BOTH, CHARSETS, END, UNK_WORD, CharSet, JointAlphabet, Vocabulary, tokenize, unspell,
)
from .ctc import PROBABILITIES, PosteriorLattice
from .network import Model, ModelConfig, model_forward
from .pipeline import Utterance, read_table, sort_and_batch, write_table

TAG_FROM_WORD = "from-word"
TAG_FROM_CHARS = "from-characters"
TAG_INCOMPLETE = "incomplete"
WORD_MARK = "="  # leads a word slot that would read as a character symbol: "7" renders "=7"


def greedy_collapse(lattice: PosteriorLattice) -> list[int]:
    """Peak-picking decode: the per-frame argmax (ties go to the lowest id),
    adjacent repeats collapsed, then blanks dropped."""
    out: list[int] = []
    prev = None
    for label in lattice.values.argmax(axis=1).tolist():
        if label != prev and label != BLANK_ID:
            out.append(label)
        prev = label
    return out


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


def sar_decode_word(lattice: PosteriorLattice, vocab: Vocabulary) -> list[str]:
    """The word track of a word or joint lattice: its labels below
    ``vocab.size``, the words in either space. UNK stays as the literal tag."""
    return [vocab.word_of(l) for l in greedy_collapse(lattice) if l < vocab.size]


def _spelled(joint: JointAlphabet, labels: Sequence[int], tag: str) -> SarWord:
    """The word that ``labels`` (character ids) spell, with their symbol texts."""
    spelling = tuple(joint.char_symbol(l).text for l in labels)
    return SarWord(word=joint.unspell(labels).upper(), spelling=spelling, tag=tag)


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
        entries.append(_spelled(joint, segment, TAG_FROM_CHARS if complete else TAG_INCOMPLETE))
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
        if label == joint.vocab.unk_id:
            if buffer:
                entries.append(_spelled(joint, buffer, TAG_FROM_CHARS))
            else:
                entries.append(SarWord(word=UNK_WORD, spelling=(), tag=TAG_INCOMPLETE))
        else:
            spelling = tuple(joint.char_symbol(l).text for l in buffer)
            entries.append(SarWord(word=joint.vocab.word_of(label), spelling=spelling, tag=TAG_FROM_WORD))
        buffer = []
    return SarHypothesis(entries=tuple(entries))


def render_hypothesis(hyp: SarHypothesis) -> str:
    """Spelling tokens then the word-slot token per group, groups joined by _.

    From-characters words render the UNK tag in the word slot (the spelled
    characters carry the content); incomplete spellings render with no word
    slot at all, and a word that is itself a character symbol renders behind
    ``WORD_MARK``. parse_hypothesis inverts this exactly.
    """
    groups = []
    for entry in hyp.entries:
        if entry.tag == TAG_FROM_WORD:
            word = WORD_MARK + entry.word if entry.word in CHARSETS["positional"] else entry.word
            groups.append(list(entry.spelling) + [word])
        elif entry.tag == TAG_FROM_CHARS:
            groups.append(list(entry.spelling) + [UNK_WORD])
        else:
            groups.append(list(entry.spelling) if entry.spelling else [UNK_WORD])
    return " _ ".join(" ".join(g) for g in groups)


def parse_hypothesis(text: str, charset: CharSet) -> SarHypothesis:
    """Inverse of render_hypothesis; needs the charset to classify tokens."""

    def _spelling(symbols: list[str]) -> tuple[str, ...]:
        if not all(s in charset for s in symbols):
            raise ValueError(f"{' '.join(symbols)!r} holds a token outside the {charset.variant} charset")
        return tuple(symbols)

    def _unspell(symbols: list[str]) -> str:
        return unspell([charset.id_of(s) for s in _spelling(symbols)], charset).upper()

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
            word = last.removeprefix(WORD_MARK)
            entries.append(SarWord(word=word, spelling=_spelling(tokens[:-1]), tag=TAG_FROM_WORD))
    return SarHypothesis(entries=tuple(entries))


# a no-cache step stays bound by numpy dispatch until its gate block, 2 x k x B x 4H
# elements, reaches about this size (decode_sar's 2 x 16 x 128 block is exactly it)
STEP_GATES = 4096


def batches_per_group(config: ModelConfig, batch_size: int) -> int:
    """How many batches of ``batch_size`` one no-cache forward runs side by
    side: as many as keep a step's gate block within ``STEP_GATES``, and at least one."""
    return max(1, STEP_GATES // (2 * batch_size * 4 * config.hidden_per_direction))


def forward_batches(model: Model, utts: Sequence[Utterance], batch_size: int):
    """Yield ``(batch, lattices)`` for each ascending-length batch of
    ``utts``, read at the model's input width and forwarded with dropout off
    and no cache kept. Up to ``batches_per_group`` consecutive batches of
    one size share a forward, each read once into its own rows; a batch's
    lattices equal its own forward's bit for bit. An utterance of another
    width raises ValueError naming it."""
    width, per_group = model.config.input_dim, batches_per_group(model.config, batch_size)
    for size, same_size in groupby(sort_and_batch(utts, "ascending", batch_size), key=lambda b: b.size):
        same_size = list(same_size)
        for start in range(0, len(same_size), per_group):
            group = same_size[start : start + per_group]
            if len(group) == 1:  # its padded features as they are read, with no copy
                features = group[0].features(width)
            else:
                features = np.zeros((len(group) * size, max(b.max_frames for b in group), width))
                for j, batch in enumerate(group):
                    features[j * size : (j + 1) * size, : batch.max_frames] = batch.features(width)
            lengths = np.concatenate([b.lengths for b in group])
            lattices, _ = model_forward(features, lengths, model, batch_size=size)
            del features  # not held while the caller reads the lattices
            for j, batch in enumerate(group):
                yield batch, lattices[j * size : (j + 1) * size]


# "word" reads the word track; "chars" and "switched" annotate a joint model's decode
# with sar_decode_<mode>, looked up at each call so a wrapper set on this module runs
DECODE_MODES = ("word", "chars", "switched")


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
    models decode words whatever it is. The label space (``joint`` if
    given, else ``vocab``) must have the model's output size, and a joint
    model's word track reads ``joint.vocab``. The batches come from
    ``forward_batches``, which names an utterance of the wrong width."""
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {mode!r}; choose from {', '.join(DECODE_MODES)}")
    annotate, size = None, vocab.size
    if joint is not None:
        annotate = {"chars": sar_decode_chars, "switched": sar_decode_switched}.get(mode)
        vocab, size = joint.vocab, joint.size
    if size != model.config.output_dim:
        raise ValueError(f"the label space has {size} labels but the model outputs {model.config.output_dim}")
    by_id = {}
    for batch, lattices in forward_batches(model, utts, batch_size):
        for utt_id, lattice in zip(batch.ids, lattices):
            hyp = annotate(lattice, joint) if annotate else None
            by_id[utt_id] = (hyp.words if hyp else sar_decode_word(lattice, vocab), hyp)
    return [(u.id, *by_id[u.id]) for u in utts]


def write_transcripts(path: str | Path, rows: Sequence[tuple[str, Sequence[str]]]) -> None:
    write_table(path, [(utt_id, " ".join(words)) for utt_id, words in rows])


def read_transcripts(path: str | Path) -> dict[str, list[str]]:
    return read_table(path, lambda utt_id, text: tokenize(text))


def write_sar_file(path: str | Path, rows: Sequence[tuple[str, SarHypothesis]]) -> None:
    write_table(path, [(utt_id, render_hypothesis(hyp)) for utt_id, hyp in rows])


def read_sar_file(path: str | Path, charset: CharSet) -> dict[str, SarHypothesis]:
    """Inverse of ``write_sar_file``; the positional charset reads either charset's spellings."""
    return read_table(path, lambda utt_id, text: parse_hypothesis(text, charset))
