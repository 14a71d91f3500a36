import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import a2w.decoder
import a2w.trainer
from a2w.alphabet import (
    JointAlphabet,
    build_charset,
    build_sar_targets,
    build_vocabulary,
    encode_words,
    spell_word,
    UNK_WORD,
)
from a2w.ctc import PROBABILITIES, PosteriorLattice, ctc_loss, expand_target
from a2w.network import ModelConfig, init_model
from a2w.pipeline import Utterance
from a2w.trainer import evaluate_loss
from a2w.decoder import (
    TAG_FROM_CHARS,
    TAG_FROM_WORD,
    TAG_INCOMPLETE,
    SarHypothesis,
    SarWord,
    batches_per_group,
    decode_utterances,
    greedy_collapse,
    one_hot_lattice,
    parse_hypothesis,
    read_sar_file,
    read_transcripts,
    render_hypothesis,
    sar_decode_chars,
    sar_decode_switched,
    sar_decode_word,
    write_sar_file,
    write_transcripts,
)

VOCAB_TEXT = ["THE CAT IS BLACK", "THE CAT SAT", "MURDER OF A COP"]


@pytest.fixture(scope="module")
def joint():
    return JointAlphabet(
        vocab=build_vocabulary(VOCAB_TEXT, min_count=1),
        charset=build_charset("positional"),
    )


def path_lattice(path, num_labels):
    """A probability lattice whose per-frame argmax is exactly ``path``."""
    return PosteriorLattice(np.eye(num_labels)[path], PROBABILITIES)


def lattice_for(labels, joint):
    return one_hot_lattice(labels, joint.size)


def char_ids(joint, *symbols):
    return [joint.char_id(s) for s in symbols]


class TestGreedyCollapse:
    def test_blank_and_repeat_removal(self):
        assert greedy_collapse(path_lattice([0, 1, 1, 0, 2], 3)) == [1, 2]

    def test_blank_separates_genuine_repeat(self):
        assert greedy_collapse(path_lattice([1, 0, 1], 2)) == [1, 1]

    def test_ties_break_to_lowest_id(self):
        # frame 0 ties 1 and 2: the tie goes to 1, so frame 1's 2 is no repeat
        values = np.array([[0.1, 0.45, 0.45], [0.1, 0.1, 0.8]])
        assert greedy_collapse(PosteriorLattice(values, PROBABILITIES)) == [1, 2]
        # a tie with the blank goes to the blank, which splits the 1s
        values = np.array([[0.1, 0.9], [0.5, 0.5], [0.1, 0.9]])
        assert greedy_collapse(PosteriorLattice(values, PROBABILITIES)) == [1, 1]

    def test_collapse_matches_reference_and_never_has_blanks(self):
        # adjacent equal labels may survive when a blank separated them in
        # the argmax path; spurious repeats (same run) never do
        from itertools import groupby

        rng = np.random.default_rng(0)
        for _ in range(50):
            lat = PosteriorLattice(rng.dirichlet(np.ones(4), size=6), PROBABILITIES)
            out = greedy_collapse(lat)
            assert 0 not in out
            path = [int(v) for v in lat.values.argmax(axis=1)]
            reference = [k for k, _ in groupby(path) if k != 0]
            assert out == reference

    @given(st.lists(st.integers(1, 4), max_size=8))
    @settings(max_examples=80)
    def test_one_hot_expansion_inverts(self, y):
        lat = one_hot_lattice(y, 5)
        assert greedy_collapse(lat) == y
        reps = sum(1 for a, b in zip(y, y[1:]) if a == b)
        assert lat.num_frames == max(1, len(y) + reps)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    def test_expanded_target_one_hot_decodes_to_target(self, y):
        expanded = expand_target(y)
        lat = one_hot_lattice(expanded, 5)
        assert greedy_collapse(lat) == y


class TestWordDecode:
    def test_word_track_only(self, joint):
        labels = char_ids(joint, "b-t", "h", "e-e") + [joint.vocab.id_of("THE")]
        assert sar_decode_word(lattice_for(labels, joint), joint.vocab) == ["THE"]

    def test_all_blank(self, joint):
        lat = PosteriorLattice(np.eye(1, joint.size), PROBABILITIES)
        assert sar_decode_word(lat, joint.vocab) == []

    def test_unk_is_literal(self, joint):
        labels = char_ids(joint, "b-z", "o", "e-o") + [joint.vocab.unk_id]
        assert sar_decode_word(lattice_for(labels, joint), joint.vocab) == ["UNK"]


class TestCharsDecode:
    def test_begin_marker_segmentation(self, joint):
        labels = char_ids(joint, "b-c", "a", "e-t", "b-i", "e-s")
        hyp = sar_decode_chars(lattice_for(labels, joint), joint)
        assert hyp.words == ["CAT", "IS"]
        assert all(e.tag == TAG_FROM_CHARS for e in hyp.entries)

    def test_doubled_symbol_expansion(self, joint):
        labels = char_ids(joint, "b-s", "u", "mm", "e", "r", "e-y")
        hyp = sar_decode_chars(lattice_for(labels, joint), joint)
        assert hyp.words == ["SUMMERY"]

    def test_empty(self, joint):
        lat = PosteriorLattice(np.eye(1, joint.size), PROBABILITIES)
        assert sar_decode_chars(lat, joint).words == []

    def test_leading_chars_incomplete(self, joint):
        labels = char_ids(joint, "a", "e-t", "b-i", "e-s")
        hyp = sar_decode_chars(lattice_for(labels, joint), joint)
        assert hyp.words == ["AT", "IS"]
        assert hyp.entries[0].tag == TAG_INCOMPLETE
        assert hyp.entries[1].tag == TAG_FROM_CHARS

    def test_unterminated_segment_incomplete(self, joint):
        labels = char_ids(joint, "b-c", "a")
        hyp = sar_decode_chars(lattice_for(labels, joint), joint)
        assert hyp.words == ["CA"]
        assert hyp.entries[0].tag == TAG_INCOMPLETE

    def test_separator_ignored(self, joint):
        labels = char_ids(joint, "b-c", "a", "e-t", "_", "b-i", "e-s")
        hyp = sar_decode_chars(lattice_for(labels, joint), joint)
        assert hyp.words == ["CAT", "IS"]


class TestSwitchedDecode:
    def test_oov_spelling_fallback(self, joint):
        labels = char_ids(joint, "b-m", "u", "r", "d", "e", "r", "i", "n", "e-g") + [joint.vocab.unk_id]
        hyp = sar_decode_switched(lattice_for(labels, joint), joint)
        assert hyp.words == ["MURDERING"]
        assert hyp.entries[0].tag == TAG_FROM_CHARS

    def test_known_word_from_word_track(self, joint):
        labels = char_ids(joint, "b-t", "h", "e-e") + [joint.vocab.id_of("THE")]
        hyp = sar_decode_switched(lattice_for(labels, joint), joint)
        assert hyp.words == ["THE"]
        assert hyp.entries[0].tag == TAG_FROM_WORD
        assert hyp.entries[0].spelling == ("b-t", "h", "e-e")

    def test_unk_with_empty_buffer(self, joint):
        labels = [joint.vocab.unk_id]
        hyp = sar_decode_switched(lattice_for(labels, joint), joint)
        assert hyp.words == ["UNK"]
        assert hyp.entries[0].tag == TAG_INCOMPLETE

    def test_buffer_clears_at_each_word(self, joint):
        labels = (
            char_ids(joint, "b-t", "h", "e-e")
            + [joint.vocab.id_of("THE")]
            + char_ids(joint, "b-z", "o", "e-o")
            + [joint.vocab.unk_id]
        )
        hyp = sar_decode_switched(lattice_for(labels, joint), joint)
        assert hyp.words == ["THE", "ZOO"]
        assert [e.tag for e in hyp.entries] == [TAG_FROM_WORD, TAG_FROM_CHARS]

    def test_trailing_chars_dropped(self, joint):
        labels = [joint.vocab.id_of("THE")] + char_ids(joint, "b-c", "a")
        hyp = sar_decode_switched(lattice_for(labels, joint), joint)
        assert hyp.words == ["THE"]

    def test_matches_word_decode_without_unk(self, joint):
        rng = np.random.default_rng(1)
        words = list(joint.vocab.words)
        for _ in range(20):
            transcript = [words[i] for i in rng.integers(0, len(words), size=4)]
            labels = list(build_sar_targets(transcript, joint).labels)
            lat = lattice_for(labels, joint)
            assert sar_decode_switched(lat, joint).words == sar_decode_word(lat, joint.vocab)


class TestPerfectLatticeRoundTrip:
    def test_all_three_decodes(self, joint):
        transcript = ["THE", "CAT", "IS", "BLACK"]
        lat = lattice_for(list(build_sar_targets(transcript, joint).labels), joint)
        assert sar_decode_word(lat, joint.vocab) == transcript
        chars = sar_decode_chars(lat, joint)
        assert chars.words == transcript
        assert [e.spelling for e in chars.entries] == [
            tuple(joint.charset.symbol_of(i).text for i in spell_word(w, joint.charset)) for w in transcript
        ]
        assert sar_decode_switched(lat, joint).words == transcript


def test_unknown_mode_is_rejected_before_any_forward(joint, monkeypatch):
    def forward(*args, **kwargs):
        raise AssertionError("model_forward ran before the mode was checked")

    monkeypatch.setattr(a2w.decoder, "model_forward", forward)
    utts = [Utterance(id="u1", features=np.zeros((4, 2)), transcript=("THE",))]
    for corpus in (utts, []):
        with pytest.raises(ValueError, match="unknown decode mode 'spelled'; choose from word, chars, switched"):
            decode_utterances(None, corpus, joint.vocab, joint=joint, mode="spelled")


def tiny_model(output_dim, seed=0):
    config = ModelConfig(input_dim=3, output_dim=output_dim, num_layers=1, hidden_per_direction=4, projection_dim=0)
    return init_model(config, np.random.default_rng(seed))


def random_utts(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Utterance(id=f"u{i}", features=rng.normal(size=(int(rng.integers(2, 9)), 3)), transcript=("THE",))
            for i in range(n)]


class TestDecodeUtterances:
    def test_word_model_decodes_words_in_every_mode(self, joint):
        vocab = joint.vocab
        model, utts = tiny_model(vocab.size), random_utts(12)
        rows = decode_utterances(model, utts, vocab, mode="word", batch_size=5)
        assert [r[0] for r in rows] == [u.id for u in utts]
        assert all(hyp is None for _, _, hyp in rows)
        assert any(words for _, words, _ in rows)
        for mode in ("chars", "switched"):
            assert decode_utterances(model, utts, vocab, mode=mode, batch_size=5) == rows

    def test_joint_model_rows_match_the_lattice_decodes(self, joint):
        model, utts = tiny_model(joint.size, seed=1), random_utts(6, seed=1)
        lattices = {}
        for utt in utts:
            lats, _ = a2w.decoder.model_forward(utt.features[None], [utt.num_frames], model)
            lattices[utt.id] = lats[0]
        # batches of one run the same forward as above
        rows = decode_utterances(model, utts, joint.vocab, joint=joint, mode="word", batch_size=1)
        assert rows == [(u.id, sar_decode_word(lattices[u.id], joint.vocab), None) for u in utts]
        for mode, decode in (("chars", sar_decode_chars), ("switched", sar_decode_switched)):
            rows = decode_utterances(model, utts, joint.vocab, joint=joint, mode=mode, batch_size=1)
            assert rows == [(u.id, decode(lattices[u.id], joint).words, decode(lattices[u.id], joint)) for u in utts]

    @pytest.mark.parametrize("offset", [-1, 1], ids=["too-few-labels", "too-many-labels"])
    def test_label_space_size_must_match_the_model(self, joint, offset):
        utts = random_utts(2)
        model = tiny_model(joint.vocab.size + offset)
        message = f"the label space has {joint.vocab.size} labels but the model outputs {joint.vocab.size + offset}"
        with pytest.raises(ValueError, match=message):
            decode_utterances(model, utts, joint.vocab)
        model = tiny_model(joint.size + offset)
        message = f"the label space has {joint.size} labels but the model outputs {joint.size + offset}"
        with pytest.raises(ValueError, match=message):
            decode_utterances(model, utts, joint.vocab, joint=joint, mode="switched")


class TestForwardBatches:
    """Decode and the heldout loss read the network through one no-cache batch loop."""

    def test_decode_and_heldout_loss_forward_each_batch_once(self, joint, monkeypatch):
        vocab = joint.vocab
        model, utts = tiny_model(vocab.size), random_utts(12)
        encode = lambda words: encode_words(words, vocab)  # noqa: E731
        forward, calls = a2w.decoder.model_forward, []

        def counted(features, lengths, model, **kwargs):
            assert "rng" not in kwargs  # dropout off, no cache kept
            calls.append(list(lengths))
            return forward(features, lengths, model, **kwargs)

        def training_forward(*args, **kwargs):
            raise AssertionError("the heldout loss ran the training step's forward")

        monkeypatch.setattr(a2w.decoder, "model_forward", counted)
        monkeypatch.setattr(a2w.trainer, "model_forward", training_forward)
        decode_utterances(model, utts, vocab, batch_size=5)
        decoded = list(calls)
        calls.clear()
        loss = evaluate_loss(model, utts, encode, 5)
        assert calls == decoded
        assert sorted(n for lengths in calls for n in lengths) == sorted(u.num_frames for u in utts)
        singles = [forward(u.features[None], [u.num_frames], model)[0][0] for u in utts]
        expected = sum(ctc_loss(lat, encode(u.transcript)).log_loss for lat, u in zip(singles, utts)) / len(utts)
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "hidden, batch_size, per_group",
        [(32, 4, 4), (32, 16, 1), (128, 16, 1)],
        ids=["train_desk", "decode_sar", "train_paper"],
    )
    def test_batches_per_group_at_the_benchmark_shapes(self, hidden, batch_size, per_group):
        config = ModelConfig(input_dim=8, output_dim=22, num_layers=2, hidden_per_direction=hidden, projection_dim=32)
        assert batches_per_group(config, batch_size) == per_group

    def test_a_group_holds_batches_of_one_size(self, joint, monkeypatch):
        # 11 utterances in batches of 3 (tiny_model runs up to 42 side by side): 3 + 3 + 3, then the short 2
        model, utts = tiny_model(joint.vocab.size), random_utts(11)
        forward, calls = a2w.decoder.model_forward, []

        def counted(features, lengths, model, **kwargs):
            calls.append((len(lengths), kwargs["batch_size"]))
            return forward(features, lengths, model, **kwargs)

        monkeypatch.setattr(a2w.decoder, "model_forward", counted)
        batches = [batch.ids for batch, _ in a2w.decoder.forward_batches(model, utts, 3)]
        assert calls == [(9, 3), (2, 2)]
        assert [len(ids) for ids in batches] == [3, 3, 3, 2]

    def test_heldout_loss_names_an_utterance_of_another_width(self, joint):
        vocab = joint.vocab
        model = tiny_model(vocab.size)  # 3 wide
        utts = [Utterance(f"h{k}", np.zeros((n, 5)), ("THE",)) for k, n in enumerate([4, 2, 3])]
        encode = lambda words: encode_words(words, vocab)  # noqa: E731
        # ascending by length, the first batch is (h1, h2)
        with pytest.raises(ValueError, match="^h1: features are 5 wide, not 3$"):
            evaluate_loss(model, utts, encode, 2)


class TestRendering:
    def test_annotated_group_rendering(self, joint):
        hyp = SarHypothesis(
            entries=(SarWord(word="THE", spelling=("b-t", "h", "e-e"), tag=TAG_FROM_WORD),)
        )
        assert render_hypothesis(hyp) == "b-t h e-e THE"

    def test_oov_renders_unk_tag(self, joint):
        hyp = SarHypothesis(
            entries=(
                SarWord(word="THE", spelling=("b-t", "h", "e-e"), tag=TAG_FROM_WORD),
                SarWord(word="MURDERING", spelling=("b-m", "u", "r", "d", "e", "r", "i", "n", "e-g"), tag=TAG_FROM_CHARS),
            )
        )
        assert render_hypothesis(hyp) == "b-t h e-e THE _ b-m u r d e r i n e-g UNK"

    def test_empty(self):
        assert render_hypothesis(SarHypothesis(entries=())) == ""

    def test_parse_inverts_render(self, joint):
        charset = joint.charset
        hyp = SarHypothesis(
            entries=(
                SarWord(word="THE", spelling=("b-t", "h", "e-e"), tag=TAG_FROM_WORD),
                SarWord(word="ZOO", spelling=("b-z", "o", "e-o"), tag=TAG_FROM_CHARS),
                SarWord(word="UNK", spelling=(), tag=TAG_INCOMPLETE),
                SarWord(word="CA", spelling=("b-c", "a"), tag=TAG_INCOMPLETE),
                SarWord(word="A", spelling=(), tag=TAG_FROM_WORD),
                SarWord(word="7", spelling=("be-7",), tag=TAG_FROM_WORD),
                SarWord(word="&", spelling=(), tag=TAG_FROM_WORD),
            )
        )
        assert parse_hypothesis(render_hypothesis(hyp), charset) == hyp

    @given(st.data())
    @settings(max_examples=60)
    def test_fuzzed_round_trip(self, data):
        # fuzz over hypotheses a decode can actually produce: from-word is
        # never the UNK tag, spelled words match their spelling
        charset = build_charset("positional")
        chars = string.ascii_lowercase + string.digits + "&'-."  # not "_", the group separator
        words = st.text(alphabet=chars, min_size=1, max_size=5).filter(lambda w: w != "unk")
        entries = []
        for _ in range(data.draw(st.integers(0, 4))):
            word = data.draw(words)
            symbols = tuple(charset.symbol_of(i).text for i in spell_word(word, charset))
            tag = data.draw(st.sampled_from([TAG_FROM_WORD, TAG_FROM_CHARS, TAG_INCOMPLETE]))
            entries.append(SarWord(word=word.upper(), spelling=symbols, tag=tag))
        hyp = SarHypothesis(entries=tuple(entries))
        assert parse_hypothesis(render_hypothesis(hyp), charset) == hyp


class TestTranscriptFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "hyp.tsv"
        write_transcripts(path, [("u1", ["THE", "CAT"]), ("u2", [])])
        loaded = read_transcripts(path)
        assert loaded == {"u1": ["THE", "CAT"], "u2": []}

    def test_sar_sidecar(self, tmp_path, joint):
        hyp = SarHypothesis(entries=(SarWord(word="THE", spelling=("b-t", "h", "e-e"), tag=TAG_FROM_WORD),))
        path = tmp_path / "hyp.sar"
        write_sar_file(path, [("u1", hyp)])
        text = path.read_text()
        assert text == "u1\tb-t h e-e THE\n"

    def test_sar_file_round_trip(self, tmp_path, joint):
        hyp = SarHypothesis(
            entries=(
                SarWord(word="THE", spelling=("b-t", "h", "e-e"), tag=TAG_FROM_WORD),
                SarWord(word="ZOO", spelling=("b-z", "e-2o"), tag=TAG_FROM_CHARS),
            )
        )
        path = tmp_path / "hyp.sar"
        rows = [("u1", hyp), ("u2", SarHypothesis(entries=()))]
        write_sar_file(path, rows)
        assert read_sar_file(path, joint.charset) == dict(rows)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"a\tTHE\nb THE DOG\n", r":2: expected id<TAB>text, got 'b THE DOG'"),
            (b"a\tTHE\n\nb\tA\na\tCAT\n", r":4: id 'a' repeats line 1"),
            (b"a\tTHE\nb\tDO\xffG\n", r":2: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["no-tab", "repeated-id", "non-utf8"],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, joint, data, message):
        path = tmp_path / "hyp.tsv"
        path.write_bytes(data)
        for read in (read_transcripts, lambda p: read_sar_file(p, joint.charset)):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value).startswith(f"{path}{message}")

    def test_simple_charset_renderings_read_alike_under_either_charset(self, tmp_path):
        simple = build_charset("simple")
        spelled = [SarWord(word=w.upper(), spelling=tuple(w), tag=tag) for w, tag in
                   (("the", TAG_FROM_WORD), ("z-o.o", TAG_FROM_CHARS), ("c'at", TAG_INCOMPLETE))]
        spelled.append(SarWord(word=UNK_WORD, spelling=(), tag=TAG_INCOMPLETE))
        rows = [(f"u{i}", SarHypothesis(entries=tuple(spelled[i:] + spelled[:i]))) for i in range(len(spelled))]
        path = tmp_path / "hyp.sar"
        write_sar_file(path, rows)
        assert read_sar_file(path, simple) == dict(rows)
        assert read_sar_file(path, build_charset("positional")) == dict(rows)

    def test_unreadable_sar_token_names_path_and_line(self, tmp_path, joint):
        path = tmp_path / "hyp.sar"
        path.write_text("u1\tb-t h e-e THE\nu2\tb-z q-q e-o UNK\n")
        message = f"{path}:2: 'b-z q-q e-o' holds a token outside the positional charset"
        with pytest.raises(ValueError, match=message):
            read_sar_file(path, joint.charset)

    @pytest.mark.parametrize("group", ["b-z q-q e-o THE", "b-z q-q e-o UNK", "b-z q-q e-o"],
                             ids=["from-word", "from-characters", "incomplete"])
    def test_every_group_checks_its_spelling_against_the_charset(self, joint, group):
        with pytest.raises(ValueError, match="^'b-z q-q e-o' holds a token outside the positional charset$"):
            parse_hypothesis(f"b-t h e-e THE _ {group}", joint.charset)
