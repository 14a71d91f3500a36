"""Reader fuzz: one edit to a valid file either loads or names the file.

Each test writes a valid file with the writer that owns its format, makes
one edit to its bytes (a 0xff byte inserted or overwritten, a tab or "="
dropped, a line duplicated, or the file truncated) and reads it back. The
reader must load it or raise a ValueError whose message starts with the
file's path. A corpus line whose feature path the edit broke may instead
raise an OSError naming that path.
"""

from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from a2w.alphabet import build_charset, build_vocabulary, load_alphabet, save_alphabet
from a2w.config import TrainConfig, load_config, save_config
from a2w.decoder import (
    TAG_FROM_CHARS,
    TAG_FROM_WORD,
    TAG_INCOMPLETE,
    SarHypothesis,
    SarWord,
    read_sar_file,
    read_transcripts,
    write_sar_file,
    write_transcripts,
)
from a2w.pipeline import SynthSpec, load_corpus, save_corpus, synth_corpus

EDITS = st.tuples(st.sampled_from(["insert", "overwrite", "separator", "duplicate", "truncate"]), st.integers(0, 10**6))

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def edit_file(path: Path, edit) -> None:
    data = path.read_bytes()
    kind, k = edit
    pos = k % (len(data) + 1)
    if kind == "insert":
        data = data[:pos] + b"\xff" + data[pos:]
    elif kind == "overwrite" and data:
        pos %= len(data)
        data = data[:pos] + b"\xff" + data[pos + 1 :]
    elif kind == "separator":
        spots = [i for i, byte in enumerate(data) if byte in b"\t="]
        if spots:
            i = spots[k % len(spots)]
            data = data[:i] + data[i + 1 :]
    elif kind == "duplicate" and data:
        lines = data.splitlines(keepends=True)
        i = k % len(lines)
        data = b"".join(lines[: i + 1] + lines[i:])
    elif kind == "truncate":
        data = data[:pos]
    path.write_bytes(data)


def loads_or_names(read, path: Path) -> None:
    try:
        read(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)


@FUZZ
@given(edit=EDITS, victim=st.sampled_from(["corpus.tsv", "features/utt00001.bin"]))
def test_load_corpus(tmp_path, edit, victim):
    spec = SynthSpec(vocab_size=4, feature_dim=3, min_words=1, max_words=2, proto_seed=2)
    save_corpus(synth_corpus(spec, 3, seed=5), tmp_path)
    edit_file(tmp_path / victim, edit)
    try:
        load_corpus(tmp_path)
    except ValueError as exc:
        assert str(exc).startswith((f"{tmp_path / 'corpus.tsv'}:", f"{tmp_path / 'features'}/")), str(exc)


@FUZZ
@given(edit=EDITS)
def test_load_config(tmp_path, edit):
    path = tmp_path / "config.txt"
    save_config(TrainConfig(layers=2, dropout=0.5, deltas=False, targets="sar", warm_ckpt="w.ckpt"), path)
    edit_file(path, edit)
    loads_or_names(load_config, path)


@FUZZ
@given(edit=EDITS)
def test_load_alphabet(tmp_path, edit):
    path = tmp_path / "alphabet.txt"
    save_alphabet(path, build_vocabulary(["THE CAT SAT", "A DOG"], min_count=1))
    edit_file(path, edit)
    loads_or_names(load_alphabet, path)


@FUZZ
@given(edit=EDITS)
def test_read_transcripts(tmp_path, edit):
    path = tmp_path / "hyp.tsv"
    write_transcripts(path, [("u1", ["THE", "CAT"]), ("u2", []), ("u3", ["A", "DOG", "SAT"])])
    edit_file(path, edit)
    loads_or_names(read_transcripts, path)


@FUZZ
@given(edit=EDITS)
def test_read_sar_file(tmp_path, edit):
    charset = build_charset("positional")
    path = tmp_path / "hyp.sar"
    hyp = SarHypothesis(
        entries=(
            SarWord(word="THE", spelling=("b-t", "h", "e-e"), tag=TAG_FROM_WORD),
            SarWord(word="ZOO", spelling=("b-z", "e-2o"), tag=TAG_FROM_CHARS),
            SarWord(word="CA", spelling=("b-c", "a"), tag=TAG_INCOMPLETE),
        )
    )
    write_sar_file(path, [("u1", hyp), ("u2", SarHypothesis(entries=()))])
    edit_file(path, edit)
    loads_or_names(lambda p: read_sar_file(p, charset), path)
