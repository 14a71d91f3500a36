"""Label spaces: word vocabulary, character sets, and joint word+character targets.

Every label space reserves id 0 for the CTC blank. Word spaces put the UNK
tag at id 1 and retained words (sorted) from id 2. The joint alphabet keeps
word ids unchanged and appends character ids after them, so the two ranges
are contiguous and disjoint, and in either space the non-blank ids below
the vocabulary size are exactly the words. The word threshold lives in the
run config; a ``Vocabulary`` holds only the words it kept.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

BLANK_ID = 0
UNK_WORD = "UNK"

LETTERS = "abcdefghijklmnopqrstuvwxyz"
DIGITS = "0123456789"
SEPARATOR_CHAR = "_"
# 26 letters + 10 digits + whitespace, apostrophe, hyphen, period, ampersand = 41
BASE_CHARS = LETTERS + DIGITS + SEPARATOR_CHAR + "'-.&"

BEGIN, MIDDLE, END, BOTH = "begin", "middle", "end", "both"

ALPHABET_HEADER = "#a2w-alphabet v1 words"


class EmptyCorpus(ValueError):
    """Raised when a vocabulary is requested for an empty corpus."""


class UnknownCharacter(ValueError):
    """Raised when a word contains a character outside the base set."""


def tokenize(transcript: str) -> list[str]:
    """Whitespace tokenization with uppercase normalization."""
    return transcript.upper().split()


@dataclass(frozen=True)
class Vocabulary:
    """Thresholded word label space: blank=0, UNK=1, words at 2..K-1."""

    words: tuple[str, ...]

    unk_id = 1

    @cached_property
    def word_to_id(self) -> dict[str, int]:
        return {w: i + 2 for i, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        """Total label-space size K including blank and UNK."""
        return len(self.words) + 2

    def id_of(self, word: str) -> int:
        return self.word_to_id.get(word.upper(), self.unk_id)

    def __contains__(self, word: str) -> bool:
        return word.upper() in self.word_to_id

    def word_of(self, label_id: int) -> str:
        if label_id == self.unk_id:
            return UNK_WORD
        if 2 <= label_id < self.size:
            return self.words[label_id - 2]
        raise KeyError(f"id {label_id} is not a word label")


def build_vocabulary(corpus: Iterable[str], min_count: int) -> Vocabulary:
    """Retain exactly the words occurring at least ``min_count`` times.

    ``corpus`` is an iterable of transcript strings. The literal token
    "UNK" is reserved and never retained as a regular word.
    """
    counts: Counter[str] = Counter()
    n_transcripts = 0
    for transcript in corpus:
        n_transcripts += 1
        counts.update(tokenize(transcript))
    if n_transcripts == 0:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    retained = sorted(w for w, c in counts.items() if c >= min_count and w != UNK_WORD)
    return Vocabulary(words=tuple(retained))


def encode_words(transcript: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map each word to its label id, falling back to UNK. Length preserved."""
    return [vocab.id_of(w) for w in transcript]


@dataclass(frozen=True)
class CharSymbol:
    text: str
    base: str       # expansion to base characters ("mm" -> "mm", "e-2f" -> "ff")
    position: str   # begin | middle | end | both


@dataclass(frozen=True)
class CharSet:
    """Character label space; symbol ids are 1..len(symbols), 0 is blank."""

    variant: str  # a CHARSETS name
    symbols: tuple[CharSymbol, ...]

    @cached_property
    def _by_text(self) -> dict[str, int]:
        return {s.text: i + 1 for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def id_of(self, text: str) -> int:
        return self._by_text[text]

    def symbol_of(self, label_id: int) -> CharSymbol:
        if not 1 <= label_id <= len(self.symbols):
            raise KeyError(f"id {label_id} is not a character label")
        return self.symbols[label_id - 1]

    def __contains__(self, text: str) -> bool:
        return text in self._by_text


def _positional_text(unit: str, position: str) -> str:
    """Symbol text of a unit in a position: x / b-x / e-x / be-x for a single
    character, xx / b-2x / e-2x / be-2x for a doubled letter."""
    core = f"2{unit[0]}" if len(unit) == 2 else unit
    if position == BEGIN:
        return f"b-{core}"
    if position == END:
        return f"e-{core}"
    if position == BOTH:
        return f"be-{core}"
    return unit


def _charset(variant: str, units: Sequence[str], positions: Sequence[str]) -> CharSet:
    """One symbol per unit and position, in unit-major order."""
    symbols = tuple(CharSymbol(_positional_text(u, p), u, p) for u in units for p in positions)
    return CharSet(variant=variant, symbols=symbols)


# name -> character set, built once: "simple" is the flat 41 base characters; "positional"
# has b-x / x / e-x / be-x per base character, plus b-2x / xx / e-2x / be-2x per letter
CHARSETS = {
    "simple": _charset("simple", BASE_CHARS, (MIDDLE,)),
    "positional": _charset("positional", [*BASE_CHARS, *(c + c for c in LETTERS)], (BEGIN, MIDDLE, END, BOTH)),
}


def build_charset(variant: str) -> CharSet:
    return CHARSETS[variant]


def _spelling_units(word: str) -> list[str]:
    """Split a lowercase word into single/doubled-letter units, greedily.

    Runs of three or more of the same letter become doubled + single units
    from the left. Only letters have doubled forms.
    """
    units = []
    i = 0
    while i < len(word):
        c = word[i]
        if c in LETTERS and i + 1 < len(word) and word[i + 1] == c:
            units.append(c + c)
            i += 2
        else:
            units.append(c)
            i += 1
    return units


def spell_word(word: str, charset: CharSet) -> list[int]:
    """Character label ids spelling ``word``.

    With the positional set, the first unit takes the begin form, the last
    the end form, a lone unit the combined begin/end form, and repeated
    letters collapse to doubled symbols. Raises UnknownCharacter for
    characters outside the base set.
    """
    if not word:
        raise ValueError("cannot spell the empty word")
    lowered = word.lower()
    for c in lowered:
        if c not in BASE_CHARS:
            raise UnknownCharacter(f"character {c!r} in {word!r} is outside the base set")
    if charset.variant == "simple":
        return [charset.id_of(c) for c in lowered]
    units = _spelling_units(lowered)
    labels = []
    last = len(units) - 1
    for k, unit in enumerate(units):
        if last == 0:
            position = BOTH
        elif k == 0:
            position = BEGIN
        elif k == last:
            position = END
        else:
            position = MIDDLE
        labels.append(charset.id_of(_positional_text(unit, position)))
    return labels


def unspell(labels: Sequence[int], charset: CharSet) -> str:
    """Collapse character labels back to the base-character string."""
    return "".join(charset.symbol_of(i).base for i in labels)


@dataclass(frozen=True)
class JointAlphabet:
    """Single label space over blank + words (incl. UNK) + characters.

    Word ids coincide with the vocabulary's own ids (1..W), so a word's id
    is ``vocab.id_of(word)``; character ids are the charset ids shifted up
    by W = ``num_words``. Every non-blank id that is not a character is a word.
    """

    vocab: Vocabulary
    charset: CharSet

    @cached_property
    def num_words(self) -> int:
        return self.vocab.size - 1  # UNK + retained words

    @cached_property
    def size(self) -> int:
        return 1 + self.num_words + len(self.charset)

    def is_char_id(self, label_id: int) -> bool:
        return self.num_words < label_id < self.size

    def char_id(self, text: str) -> int:
        return self.charset.id_of(text) + self.num_words

    def char_symbol(self, label_id: int) -> CharSymbol:
        return self.charset.symbol_of(label_id - self.num_words)

    @cached_property
    def separator_id(self) -> int:
        return self.char_id(SEPARATOR_CHAR)

    def spell(self, word: str) -> list[int]:
        return [i + self.num_words for i in spell_word(word, self.charset)]

    def unspell(self, labels: Sequence[int]) -> str:
        return unspell([i - self.num_words for i in labels], self.charset)


@dataclass(frozen=True)
class SarTargetSequence:
    """Spell-then-recognize target labels for one transcript."""

    labels: tuple[int, ...]


def build_sar_targets(transcript: Sequence[str], joint: JointAlphabet) -> SarTargetSequence:
    """Interleave each word's spelling with its word label.

    Word groups are joined by the whitespace separator character. Words
    outside the vocabulary keep their true spelling but carry the UNK
    word label. Character errors propagate as UnknownCharacter.
    """
    words = [w.upper() for w in transcript]
    labels: list[int] = []
    for k, word in enumerate(words):
        if k > 0:
            labels.append(joint.separator_id)
        labels.extend(joint.spell(word))
        labels.append(joint.vocab.id_of(word))
    return SarTargetSequence(labels=tuple(labels))


def save_alphabet(path: str | Path, vocab: Vocabulary) -> None:
    """Line-oriented word file: the header line, then one word per line; the
    k-th word line (0-based) holds the label with id k+1, and blank is
    implicit at id 0."""
    lines = [ALPHABET_HEADER, UNK_WORD, *vocab.words]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_alphabet(path: str | Path) -> Vocabulary:
    """Inverse of ``save_alphabet``: words ascending after UNK; a malformed file raises ValueError naming it."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines or lines[0] != ALPHABET_HEADER:
        fix = "; delete the min_count field older versions wrote" if lines and "min_count=" in lines[0] else ""
        raise ValueError(f"{path}: line 1 must be {ALPHABET_HEADER!r}{fix}")
    body = lines[1:]
    if not body or body[0] != UNK_WORD:
        raise ValueError(f"{path}: word file must place {UNK_WORD} at id 1")
    for lineno, (before, word) in enumerate(zip(body, body[1:]), 3):
        if tokenize(word) != [word]:
            raise ValueError(f"{path}:{lineno}: {word!r} is not one uppercase token")
        if word == UNK_WORD:
            raise ValueError(f"{path}:{lineno}: {word!r} is listed twice")
        if lineno > 3 and word <= before:  # as build_vocabulary sorts them; a reorder would swap ids
            raise ValueError(f"{path}:{lineno}: {word!r} must sort after {before!r}, the word before it")
    return Vocabulary(words=tuple(body[1:]))
