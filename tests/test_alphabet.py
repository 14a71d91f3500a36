import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2w.alphabet import (
    BLANK_ID,
    UNK_WORD,
    EmptyCorpus,
    JointAlphabet,
    UnknownCharacter,
    build_charset,
    build_positional_charset,
    build_sar_targets,
    build_simple_charset,
    build_vocabulary,
    decode_words,
    encode_words,
    invert_sar_targets,
    load_alphabet,
    save_alphabet,
    spell_word,
    tokenize,
    unspell,
)

words_strategy = st.lists(
    st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=6), min_size=1, max_size=8
)


@pytest.fixture(scope="module")
def positional():
    return build_positional_charset()


@pytest.fixture(scope="module")
def simple():
    return build_simple_charset()


def texts(label_ids, charset):
    return [charset.symbol_of(i).text for i in label_ids]


class TestVocabulary:
    def test_threshold_counting(self):
        vocab = build_vocabulary(["a a b", "a c"], min_count=2)
        assert set(vocab.words) == {"A"}
        assert vocab.id_of("B") == vocab.unk_id
        assert vocab.id_of("C") == vocab.unk_id

    def test_single_word_identity(self):
        vocab = build_vocabulary(["x"], min_count=1)
        assert set(vocab.words) == {"X"}
        assert vocab.id_of("x") == 2

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([], min_count=1)

    def test_blank_and_unk_ids(self):
        vocab = build_vocabulary(["a b c"], min_count=1)
        assert BLANK_ID == 0
        assert vocab.unk_id == 1
        assert sorted(vocab.word_to_id.values()) == [2, 3, 4]

    def test_encode_known_and_unknown(self):
        vocab = build_vocabulary(["a"], min_count=1)
        assert encode_words(["a", "zzz"], vocab) == [vocab.id_of("A"), vocab.unk_id]

    def test_encode_empty(self):
        vocab = build_vocabulary(["a"], min_count=1)
        assert encode_words([], vocab) == []

    @given(words_strategy)
    def test_encode_decode_round_trip(self, transcript):
        vocab = build_vocabulary([" ".join(transcript)], min_count=1)
        assert decode_words(encode_words(transcript, vocab), vocab) == transcript

    @given(words_strategy, st.integers(1, 4))
    def test_monotone_in_min_count(self, transcript, min_count):
        corpus = [" ".join(transcript)]
        low = set(build_vocabulary(corpus, min_count).words)
        high = set(build_vocabulary(corpus, min_count + 1).words)
        assert high <= low

    def test_unk_token_reserved(self):
        vocab = build_vocabulary(["UNK UNK UNK a"], min_count=1)
        assert "UNK" not in vocab.words
        assert vocab.word_of(vocab.unk_id) == UNK_WORD


class TestCharSets:
    def test_simple_has_41_symbols(self, simple):
        assert len(simple) == 41

    def test_no_symbol_at_blank(self, simple, positional):
        for charset in (simple, positional):
            assert all(charset.id_of(s.text) >= 1 for s in charset.symbols)

    def test_positional_has_all_forms(self, positional):
        for c in "aqz":
            for form in (f"b-{c}", c, f"e-{c}", f"be-{c}", f"b-2{c}", c + c, f"e-2{c}", f"be-2{c}"):
                assert form in positional

    def test_spell_the(self, positional):
        assert texts(spell_word("THE", positional), positional) == ["b-t", "h", "e-e"]

    def test_spell_with_doubled_interior(self, positional):
        # doubled letters collapse to one symbol; SUMMERY spells with 'mm'
        assert texts(spell_word("SUMMERY", positional), positional) == ["b-s", "u", "mm", "e", "r", "e-y"]
        assert texts(spell_word("SUMMARY", positional), positional) == ["b-s", "u", "mm", "a", "r", "e-y"]

    def test_spell_with_doubled_final(self, positional):
        assert texts(spell_word("STUFF", positional), positional) == ["b-s", "t", "u", "e-2f"]

    def test_spell_single_char_word(self, positional):
        assert texts(spell_word("A", positional), positional) == ["be-a"]

    def test_spell_triple_run_greedy(self, positional):
        assert texts(spell_word("LLL", positional), positional) == ["b-2l", "e-l"]
        assert texts(spell_word("LLLL", positional), positional) == ["b-2l", "e-2l"]

    def test_simple_spelling_is_letterwise(self, simple):
        assert texts(spell_word("CAT", simple), simple) == ["c", "a", "t"]

    def test_unknown_character(self, positional):
        with pytest.raises(UnknownCharacter):
            spell_word("naïve", positional)

    @given(st.text(alphabet=string.ascii_lowercase + "0123456789'-.&", min_size=1, max_size=12))
    def test_spell_collapse_identity(self, word):
        charset = build_positional_charset()
        labels = spell_word(word, charset)
        assert len(labels) <= len(word)
        assert unspell(labels, charset) == word


@pytest.fixture(scope="module")
def joint():
    vocab = build_vocabulary(["THE CAT IS BLACK", "THE CAT SAT"], min_count=1)
    return JointAlphabet(vocab=vocab, charset=build_positional_charset())


class TestJointAlphabet:

    def test_ranges_partition_label_space(self, joint):
        ids = sorted([BLANK_ID] + list(joint.word_range) + list(joint.char_range))
        assert ids == list(range(joint.size))

    def test_size_accounting(self, joint):
        assert joint.size == 1 + (len(joint.vocab.words) + 1) + len(joint.charset)

    def test_interleaved_target_layout(self, joint):
        target = build_sar_targets(["THE", "CAT", "IS", "BLACK"], joint)
        rendered = []
        for label in target.labels:
            if joint.is_word_id(label):
                rendered.append(joint.vocab.word_of(label))
            else:
                rendered.append(joint.char_symbol(label).text)
        assert rendered == [
            "b-t", "h", "e-e", "THE", "_",
            "b-c", "a", "e-t", "CAT", "_",
            "b-i", "e-s", "IS", "_",
            "b-b", "l", "a", "c", "e-k", "BLACK",
        ]

    def test_single_word_target(self, joint):
        vocab = build_vocabulary(["A"], min_count=1)
        single = JointAlphabet(vocab=vocab, charset=joint.charset)
        target = build_sar_targets(["A"], single)
        assert list(target.labels) == [single.char_id("be-a"), single.word_id("A")]

    def test_oov_word_keeps_spelling_with_unk_label(self, joint):
        target = build_sar_targets(["ZEBRA"], joint)
        assert target.labels[-1] == joint.vocab.unk_id
        assert joint.unspell(list(target.labels[:-1])) == "zebra"

    def test_invert_round_trip(self, joint):
        target = build_sar_targets(["THE", "CAT"], joint)
        segments = invert_sar_targets(target.labels, joint)
        assert [(s.word, s.spelling) for s in segments] == [("THE", "the"), ("CAT", "cat")]
        assert all(s.complete for s in segments)

    def test_invert_trailing_chars_incomplete(self, joint):
        labels = list(build_sar_targets(["THE"], joint).labels[:-1])  # drop the word label
        segments = invert_sar_targets(labels, joint)
        assert len(segments) == 1
        assert not segments[0].complete
        assert segments[0].spelling == "the"

    @given(words_strategy)
    @settings(max_examples=50)
    def test_invert_of_build_is_identity_in_vocab(self, transcript):
        vocab = build_vocabulary([" ".join(transcript)], min_count=1)
        joint = JointAlphabet(vocab=vocab, charset=build_positional_charset())
        segments = invert_sar_targets(build_sar_targets(transcript, joint).labels, joint)
        assert [s.word for s in segments] == transcript
        assert [s.spelling for s in segments] == [w.lower() for w in transcript]


class TestSerialization:
    def test_vocab_round_trip(self, tmp_path):
        vocab = build_vocabulary(["the cat sat", "the dog"], min_count=1)
        path = tmp_path / "vocab.txt"
        save_alphabet(path, vocab)
        first = path.read_bytes()
        loaded = load_alphabet(path)
        assert loaded == vocab
        save_alphabet(path, loaded)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("variant", ["simple", "positional"])
    def test_charset_round_trip(self, tmp_path, variant):
        charset = build_charset(variant)
        path = tmp_path / "chars.txt"
        save_alphabet(path, charset)
        first = path.read_bytes()
        loaded = load_alphabet(path)
        assert loaded == charset
        save_alphabet(path, loaded)
        assert path.read_bytes() == first

    def test_header_and_line_layout(self, tmp_path):
        vocab = build_vocabulary(["b a"], min_count=1)
        path = tmp_path / "vocab.txt"
        save_alphabet(path, vocab)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#a2w-alphabet v1 words")
        # line k (0-based, after header) holds the symbol with id k+1
        assert lines[1] == UNK_WORD
        assert lines[2] == "A"
        assert lines[3] == "B"


    @pytest.mark.parametrize(
        "header, message",
        [
            ("#a2w-alphabet v1", r"vocab\.txt: unknown variant ''"),
            ("#a2w-alphabet v1 words min_count=x", r"vocab\.txt: header min_count 'x' is not a count"),
        ],
        ids=["bare-header", "bad-min-count"],
    )
    def test_bad_header_names_path(self, tmp_path, header, message):
        path = tmp_path / "vocab.txt"
        path.write_text(f"{header}\n{UNK_WORD}\nA\n")
        with pytest.raises(ValueError, match=message):
            load_alphabet(path)

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(f"#a2w-alphabet v1 words\n{UNK_WORD}\nA".encode() + b"\xff\n")
        with pytest.raises(ValueError, match=r"vocab\.txt: 'utf-8' codec can't decode byte 0xff"):
            load_alphabet(path)


def test_tokenize_uppercases_and_splits():
    assert tokenize("the  cat\tsat ") == ["THE", "CAT", "SAT"]
