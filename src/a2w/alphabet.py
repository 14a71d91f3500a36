"""Label spaces: word vocabulary, character sets, and joint word+character targets.

Every label space reserves id 0 for the CTC blank. Word spaces put the UNK
tag at id 1 and retained words (sorted) from id 2. The joint alphabet keeps
word ids unchanged and appends character ids after them, so the two ranges
are contiguous and disjoint.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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

ALPHABET_FILE_MAGIC = "#a2w-alphabet v1"


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
    min_count: int
    word_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    unk_id = 1

    def __post_init__(self):
        mapping = {w: i + 2 for i, w in enumerate(self.words)}
        object.__setattr__(self, "word_to_id", mapping)

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
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    n_transcripts = 0
    for transcript in corpus:
        n_transcripts += 1
        counts.update(tokenize(transcript))
    if n_transcripts == 0:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    retained = sorted(w for w, c in counts.items() if c >= min_count and w != UNK_WORD)
    return Vocabulary(words=tuple(retained), min_count=min_count)


def encode_words(transcript: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map each word to its label id, falling back to UNK. Length preserved."""
    return [vocab.id_of(w) for w in transcript]


def decode_words(labels: Sequence[int], vocab: Vocabulary) -> list[str]:
    """Inverse of encode_words; blank ids are skipped."""
    return [vocab.word_of(i) for i in labels if i != BLANK_ID]


@dataclass(frozen=True)
class CharSymbol:
    text: str
    base: str       # expansion to base characters ("mm" -> "mm", "e-2f" -> "ff")
    position: str   # begin | middle | end | both


@dataclass(frozen=True)
class CharSet:
    """Character label space; symbol ids are 1..len(symbols), 0 is blank."""

    variant: str  # "simple" | "positional"
    symbols: tuple[CharSymbol, ...]
    _by_text: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_text", {s.text: i + 1 for i, s in enumerate(self.symbols)})

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


def build_simple_charset() -> CharSet:
    """Flat 41-symbol set: letters, digits, whitespace and punctuation."""
    symbols = tuple(CharSymbol(c, c, MIDDLE) for c in BASE_CHARS)
    return CharSet(variant="simple", symbols=symbols)


def build_positional_charset() -> CharSet:
    """Position-marked set: b-x / x / e-x / be-x per base character, plus
    doubled-letter symbols (b-2x / xx / e-2x / be-2x) for each letter."""
    symbols: list[CharSymbol] = []
    for c in BASE_CHARS:
        symbols.append(CharSymbol(f"b-{c}", c, BEGIN))
        symbols.append(CharSymbol(c, c, MIDDLE))
        symbols.append(CharSymbol(f"e-{c}", c, END))
        symbols.append(CharSymbol(f"be-{c}", c, BOTH))
    for c in LETTERS:
        symbols.append(CharSymbol(f"b-2{c}", c + c, BEGIN))
        symbols.append(CharSymbol(c + c, c + c, MIDDLE))
        symbols.append(CharSymbol(f"e-2{c}", c + c, END))
        symbols.append(CharSymbol(f"be-2{c}", c + c, BOTH))
    return CharSet(variant="positional", symbols=tuple(symbols))


def build_charset(variant: str) -> CharSet:
    if variant == "simple":
        return build_simple_charset()
    if variant == "positional":
        return build_positional_charset()
    raise ValueError(f"unknown charset variant {variant!r}")


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


def _positional_text(unit: str, position: str) -> str:
    core = f"2{unit[0]}" if len(unit) == 2 else unit
    if position == BEGIN:
        return f"b-{core}"
    if position == END:
        return f"e-{core}"
    if position == BOTH:
        return f"be-{core}"
    return unit


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

    Word ids coincide with the vocabulary's own ids (1..W); character ids
    are the charset ids shifted up by W.
    """

    vocab: Vocabulary
    charset: CharSet

    @property
    def num_words(self) -> int:
        return self.vocab.size - 1  # UNK + retained words

    @property
    def size(self) -> int:
        return 1 + self.num_words + len(self.charset)

    @property
    def word_range(self) -> range:
        return range(1, 1 + self.num_words)

    @property
    def char_range(self) -> range:
        return range(1 + self.num_words, self.size)

    def is_word_id(self, label_id: int) -> bool:
        return label_id in self.word_range

    def is_char_id(self, label_id: int) -> bool:
        return label_id in self.char_range

    def word_id(self, word: str) -> int:
        return self.vocab.id_of(word)

    def char_id(self, text: str) -> int:
        return self.charset.id_of(text) + self.num_words

    def char_symbol(self, label_id: int) -> CharSymbol:
        return self.charset.symbol_of(label_id - self.num_words)

    @property
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
        labels.append(joint.word_id(word))
    return SarTargetSequence(labels=tuple(labels))


@dataclass(frozen=True)
class SarSegment:
    """One spelled-then-recognized group recovered from a label sequence."""

    word: str          # the word label's text, or "" when the group never closed
    spelling: str      # base characters spelled before the word label
    complete: bool


def invert_sar_targets(labels: Sequence[int], joint: JointAlphabet) -> list[SarSegment]:
    """Segment a joint-alphabet label sequence on word labels.

    Separator characters and blanks are skipped. Trailing characters that
    never reach a word label come back as an incomplete final segment.
    """
    segments: list[SarSegment] = []
    buffer: list[int] = []
    for label in labels:
        if label == BLANK_ID or label == joint.separator_id:
            continue
        if joint.is_word_id(label):
            segments.append(
                SarSegment(word=joint.vocab.word_of(label), spelling=joint.unspell(buffer), complete=True)
            )
            buffer = []
        elif joint.is_char_id(label):
            buffer.append(label)
    if buffer:
        segments.append(SarSegment(word="", spelling=joint.unspell(buffer), complete=False))
    return segments


def save_alphabet(path: str | Path, space: Vocabulary | CharSet) -> None:
    """Line-oriented serialization: header, then one symbol per line.

    The k-th symbol line (0-based) holds the label with id k+1; blank is
    implicit at id 0. Vocabulary headers carry min_count so that the
    round trip is lossless.
    """
    lines = []
    if isinstance(space, Vocabulary):
        lines.append(f"{ALPHABET_FILE_MAGIC} words min_count={space.min_count}")
        lines.append(UNK_WORD)
        lines.extend(space.words)
    else:
        lines.append(f"{ALPHABET_FILE_MAGIC} chars-{space.variant}")
        lines.extend(s.text for s in space.symbols)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_alphabet(path: str | Path) -> Vocabulary | CharSet:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines or not lines[0].startswith(ALPHABET_FILE_MAGIC):
        raise ValueError(f"{path}: not an alphabet file")
    variant, *extras = lines[0][len(ALPHABET_FILE_MAGIC):].split() or [""]
    body = lines[1:]
    if variant == "words":
        min_count = 1
        for extra in extras:
            key, _, value = extra.partition("=")
            if key == "min_count":
                if not value.isdecimal():
                    raise ValueError(f"{path}: header min_count {value!r} is not a count")
                min_count = int(value)
        if not body or body[0] != UNK_WORD:
            raise ValueError(f"{path}: word file must place {UNK_WORD} at id 1")
        return Vocabulary(words=tuple(body[1:]), min_count=min_count)
    if variant in ("chars-simple", "chars-positional"):
        reference = build_charset(variant.removeprefix("chars-"))
        if [s.text for s in reference.symbols] != body:
            raise ValueError(f"{path}: symbol inventory does not match the {variant} charset")
        return reference
    raise ValueError(f"{path}: unknown variant {variant!r}")
