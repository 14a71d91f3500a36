"""Feature transforms, curriculum batching, and the synthetic desk corpus.

The feature chain mirrors a standard acoustic front end: append first and
second order regression coefficients, then stack adjacent frame pairs at
half the frame rate (40 -> 120 -> 240).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .alphabet import LETTERS, UNK_WORD, tokenize
from .seeding import derive_seed

DELTA_WINDOW = 2
_DELTA_NORM = 2.0 * sum(n * n for n in range(1, DELTA_WINDOW + 1))


@dataclass(frozen=True)
class Utterance:
    id: str
    features: np.ndarray  # T x F
    transcript: tuple[str, ...]

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", f)
        if f.ndim != 2 or f.shape[0] < 1:
            raise ValueError(f"{self.id}: features must be T x F with T >= 1")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"{self.id}: features must be finite")

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Batch:
    """A run of utterances, read and padded to a ``B x T_max x F`` tensor on
    access.

    The batch keeps references to its utterances, not to frame arrays, so a
    list of batches costs almost nothing beyond the corpus it was built
    from. Each read of ``features`` reads each utterance's ``features`` once
    (running a prepared utterance's transforms) and pads them into a fresh
    copy; the counting properties read only ``lengths``.
    """

    utts: tuple[Utterance, ...]     # or prepared utterances, which read like one
    lengths: np.ndarray             # B
    targets: tuple[tuple[int, ...], ...]

    @property
    def features(self) -> np.ndarray:
        """The zero-padded ``B x T_max x F`` float64 tensor, built from
        features read (and transformed) now."""
        frames = [u.features for u in self.utts]
        padded = np.zeros((self.size, self.max_frames, frames[0].shape[1]))
        for row, f in zip(padded, frames):
            row[: f.shape[0]] = f
        return padded

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(u.id for u in self.utts)

    @property
    def size(self) -> int:
        return len(self.lengths)

    @property
    def max_frames(self) -> int:
        return int(self.lengths.max())

    @property
    def padding_waste(self) -> float:
        return 1.0 - float(self.lengths.sum()) / (self.size * self.max_frames)


ORDERS = ("ascending", "descending", "random")


@dataclass(frozen=True)
class CurriculumOrder:
    """Deterministic presentation order: ascending/descending length or a
    seeded shuffle."""

    kind: str  # one of ORDERS
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ORDERS:
            raise ValueError(f"unknown curriculum order {self.kind!r}")

    def arrange(self, utts: Sequence[Utterance]) -> list[Utterance]:
        by_id = sorted(utts, key=lambda u: u.id)
        if self.kind == "ascending":
            return sorted(by_id, key=lambda u: (u.num_frames, u.id))
        if self.kind == "descending":
            return sorted(by_id, key=lambda u: (-u.num_frames, u.id))
        rng = np.random.Generator(np.random.PCG64(derive_seed(self.seed, 0x0D0E)))
        return [by_id[i] for i in rng.permutation(len(by_id))]


ASCENDING = CurriculumOrder("ascending")
DESCENDING = CurriculumOrder("descending")


def random_order(seed: int) -> CurriculumOrder:
    return CurriculumOrder("random", seed)


def compute_deltas(features: np.ndarray) -> np.ndarray:
    """Append regression coefficients of first and second order.

    Window of 2 with edge replication; column order [static, delta,
    delta-delta]. A constant signal yields zero deltas, a linear ramp a
    constant delta on interior frames.
    """
    x = np.asarray(features, dtype=np.float64)
    delta = _regress(x)
    return np.hstack([x, delta, _regress(delta)])


def _regress(x: np.ndarray) -> np.ndarray:
    t = x.shape[0]
    pad = np.concatenate([x[:1]] * DELTA_WINDOW + [x] + [x[-1:]] * DELTA_WINDOW)
    acc = np.zeros_like(x)
    for n in range(1, DELTA_WINDOW + 1):
        acc += n * (pad[DELTA_WINDOW + n : DELTA_WINDOW + n + t] - pad[DELTA_WINDOW - n : DELTA_WINDOW - n + t])
    return acc / _DELTA_NORM


def stack_decimate(features: np.ndarray) -> np.ndarray:
    """Concatenate successive frame pairs, halving the frame rate.

    Odd-length inputs zero-pad the final stacked frame rather than dropping
    it, so no target can be made infeasible by the decimation.
    """
    x = np.asarray(features, dtype=np.float64)
    t, f = x.shape
    pairs = (t + 1) // 2
    if t != pairs * 2:
        x = np.vstack([x, np.zeros((1, f))])
    return x.reshape(pairs, 2 * f)


def sort_and_batch(
    utts: Sequence[Utterance],
    order: CurriculumOrder,
    batch_size: int,
    encode: Callable[[Sequence[str]], Sequence[int]],
) -> list[Batch]:
    """Arrange utterances and group consecutive runs of ``batch_size``.

    The batch sequence preserves the curriculum order; the final batch may
    be smaller. ``encode`` maps a transcript to its target label sequence.
    Reading, transforming and padding wait until a batch's ``features``
    are read.
    """
    arranged = order.arrange(utts)
    batches = []
    for start in range(0, len(arranged), batch_size):
        chunk = arranged[start : start + batch_size]
        batches.append(
            Batch(
                utts=tuple(chunk),
                lengths=np.array([u.num_frames for u in chunk], dtype=np.int64),
                targets=tuple(tuple(int(l) for l in encode(u.transcript)) for u in chunk),
            )
        )
    return batches


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters for the synthetic word-prototype corpus.

    Each word owns a fixed random feature segment; utterances concatenate
    the segments of a random word sequence and add i.i.d. noise. A disjoint
    pool of extra words can be mixed in at ``oov_rate`` to create
    out-of-vocabulary tokens with real spellings.
    """

    vocab_size: int = 20
    feature_dim: int = 8
    min_frames: int = 3
    max_frames: int = 8
    min_words: int = 3
    max_words: int = 8
    noise: float = 0.1
    oov_pool_size: int = 0
    oov_rate: float = 0.0
    proto_seed: int = 0

    def __post_init__(self):
        lows = dict.fromkeys(("vocab_size", "feature_dim", "min_frames", "min_words"), 1)
        lows.update(max_frames=self.min_frames, max_words=self.min_words, oov_pool_size=0)
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name}={getattr(self, name)}: must be >= {low}")
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"noise={self.noise}: must be finite and >= 0")
        if not 0 <= self.oov_rate <= 1:
            raise ValueError(f"oov_rate={self.oov_rate}: must lie in [0, 1]")
        if self.oov_rate > 0 and self.oov_pool_size < 1:
            raise ValueError(f"oov_pool_size={self.oov_pool_size}: must be >= 1 when oov_rate > 0")


def _synth_words(spec: SynthSpec) -> list[str]:
    rng = np.random.Generator(np.random.PCG64(derive_seed(spec.proto_seed, 0x50)))
    letters = np.array(list(LETTERS.upper()))
    words: list[str] = []
    seen = {UNK_WORD}
    while len(words) < spec.vocab_size + spec.oov_pool_size:
        length = int(rng.integers(3, 7))
        word = "".join(rng.choice(letters, size=length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def synth_vocabulary(spec: SynthSpec) -> tuple[list[str], list[str]]:
    """(main vocabulary words, out-of-vocabulary pool) for a generator spec."""
    words = _synth_words(spec)
    return words[: spec.vocab_size], words[spec.vocab_size :]


def synth_corpus(spec: SynthSpec, count: int, seed: int, id_prefix: str = "utt") -> list[Utterance]:
    """Deterministic synthetic utterances; same (spec, count, seed) -> same corpus.

    Word sequences avoid immediate repetition so every utterance admits a
    CTC alignment even after stacking+decimation.
    """
    if count < 1:
        raise ValueError(f"count={count}: must be >= 1")
    main, pool = synth_vocabulary(spec)
    proto_rng = np.random.Generator(np.random.PCG64(derive_seed(spec.proto_seed, 0x51)))
    protos = {}
    for word in main + pool:
        frames = int(proto_rng.integers(spec.min_frames, spec.max_frames + 1))
        protos[word] = proto_rng.standard_normal((frames, spec.feature_dim))
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0x52)))
    utts = []
    for i in range(count):
        n_words = int(rng.integers(spec.min_words, spec.max_words + 1))
        words: list[str] = []
        while len(words) < n_words:
            use_pool = spec.oov_rate > 0 and rng.random() < spec.oov_rate
            word = pool[rng.integers(len(pool))] if use_pool else main[rng.integers(len(main))]
            if words and word == words[-1] and len(main) + len(pool) > 1:
                continue
            words.append(word)
        feats = np.vstack([protos[w] for w in words])
        if spec.noise > 0:
            feats = feats + spec.noise * rng.standard_normal(feats.shape)
        utts.append(Utterance(id=f"{id_prefix}{i:05d}", features=feats, transcript=tuple(words)))
    return utts


def split_by_id_hash(utts: Sequence[Utterance], heldout_fraction: float) -> tuple[list[Utterance], list[Utterance]]:
    """Stable train/heldout split keyed on a hash of the utterance id."""
    train, heldout = [], []
    for u in utts:
        digest = hashlib.sha1(u.id.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "little") / 2**32
        (heldout if bucket < heldout_fraction else train).append(u)
    return train, heldout


_FEATURE_HEADER = struct.Struct("<ii")


def save_corpus(utts: Sequence[Utterance], directory: str | Path) -> None:
    """Write corpus.tsv plus one little-endian float32 feature file per utterance."""
    directory = Path(directory)
    (directory / "features").mkdir(parents=True, exist_ok=True)
    lines = []
    for u in utts:
        rel = f"features/{u.id}.bin"
        t, f = u.features.shape
        payload = _FEATURE_HEADER.pack(t, f) + u.features.astype("<f4").tobytes()
        (directory / rel).write_bytes(payload)
        lines.append(f"{u.id}\t{' '.join(u.transcript)}\t{rel}")
    (directory / "corpus.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_corpus(directory: str | Path) -> list[Utterance]:
    directory = Path(directory)
    tsv = directory / "corpus.tsv"
    try:
        text = tsv.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{tsv}: {exc}") from None
    utts = []
    first: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{tsv}:{lineno}: expected id, transcript and feature path separated by tabs")
        utt_id, transcript, rel = fields
        if first.setdefault(utt_id, lineno) != lineno:
            raise ValueError(f"{tsv}:{lineno}: id {utt_id!r} repeats line {first[utt_id]}")
        path = directory / rel
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ValueError(f"{tsv}:{lineno}: feature path {rel!r}: {exc.strerror}") from None
        t, f = _FEATURE_HEADER.unpack_from(raw) if len(raw) >= _FEATURE_HEADER.size else (0, 0)
        if t < 1 or f < 1 or len(raw) != _FEATURE_HEADER.size + 4 * t * f:
            raise ValueError(f"{path}: {len(raw)} bytes do not hold the {t}x{f} float32 features its header declares")
        feats = np.frombuffer(raw, dtype="<f4", offset=_FEATURE_HEADER.size).reshape(t, f)
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"{path}: features of {utt_id!r} are not all finite")
        utts.append(Utterance(id=utt_id, features=feats.astype(np.float64), transcript=tuple(tokenize(transcript))))
    return utts
