import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from a2w.pipeline import (
    ORDERS,
    SynthSpec,
    Utterance,
    compute_deltas,
    load_corpus,
    read_table,
    save_corpus,
    sort_and_batch,
    split_by_id_hash,
    stack_decimate,
    synth_corpus,
    synth_vocabulary,
    write_table,
)

# line breaks of str.splitlines that an id table does not split at
UNICODE_BREAKS = "\x0b\x0c\x1c\x85\u2028\u2029"


def make_utts(lengths, feat_dim=2):
    rng = np.random.default_rng(0)
    return [
        Utterance(id=f"u{i:03d}", features=rng.normal(size=(n, feat_dim)), transcript=("W",))
        for i, n in enumerate(lengths)
    ]


class TestDeltas:
    def test_constant_signal_zero_deltas(self):
        x = np.full((6, 3), 2.5)
        out = compute_deltas(x)
        assert out.shape == (6, 9)
        np.testing.assert_allclose(out[:, 3:], 0.0, atol=1e-12)

    def test_single_frame(self):
        out = compute_deltas(np.array([[1.0, 2.0]]))
        assert out.shape == (1, 6)
        np.testing.assert_allclose(out[:, 2:], 0.0, atol=1e-12)

    def test_linear_ramp_interior(self):
        c = 0.75
        t = np.arange(10.0)
        x = (c * t)[:, None]
        out = compute_deltas(x)
        # interior frames: delta equals the slope, delta-delta vanishes
        np.testing.assert_allclose(out[2:-2, 1], c, atol=1e-12)
        np.testing.assert_allclose(out[4:-4, 2], 0.0, atol=1e-12)

    def test_columns_independent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 4))
        out = compute_deltas(x)
        perm = [2, 0, 3, 1]
        out_perm = compute_deltas(x[:, perm])
        np.testing.assert_allclose(out_perm[:, :4], out[:, perm])
        np.testing.assert_allclose(out_perm[:, 4:8], out[:, 4:8][:, perm])
        np.testing.assert_allclose(out_perm[:, 8:], out[:, 8:][:, perm])


class TestStackDecimate:
    def test_even(self):
        x = np.arange(8.0).reshape(4, 2)
        out = stack_decimate(x)
        assert out.shape == (2, 4)
        np.testing.assert_allclose(out[0], [0, 1, 2, 3])
        np.testing.assert_allclose(out[1], [4, 5, 6, 7])

    def test_single_frame_pads(self):
        out = stack_decimate(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [[1.0, 2.0, 0.0, 0.0]])

    def test_odd_pads_last(self):
        x = np.ones((5, 2))
        out = stack_decimate(x)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out[2], [1, 1, 0, 0])

    @given(st.integers(1, 30), st.integers(1, 6))
    def test_shape_law(self, t, f):
        out = stack_decimate(np.zeros((t, f)))
        assert out.shape == ((t + 1) // 2, 2 * f)

    def test_front_end_dimension_arithmetic(self):
        # 40 static dims -> 120 with deltas -> 240 stacked
        x = np.random.default_rng(0).normal(size=(9, 40))
        staged = compute_deltas(x)
        assert staged.shape[1] == 120
        staged = stack_decimate(staged)
        assert staged.shape[1] == 240


class TestSortAndBatch:
    def test_ascending_grouping_and_waste(self):
        utts = make_utts([3, 1, 2])
        batches = sort_and_batch(utts, "ascending", 2)
        assert [list(b.lengths) for b in batches] == [[1, 2], [3]]
        assert batches[0].padding_waste == pytest.approx(1 - 3 / 4)
        assert batches[1].padding_waste == pytest.approx(0.0)

    def test_descending(self):
        utts = make_utts([3, 1, 2])
        batches = sort_and_batch(utts, "descending", 2)
        assert [list(b.lengths) for b in batches] == [[3, 2], [1]]
        assert batches[0].padding_waste == pytest.approx(1 - 5 / 6)

    def test_empty_input(self):
        assert sort_and_batch([], "ascending", 4) == []

    def test_ties_break_by_id(self):
        utts = make_utts([2, 2, 2])
        batches = sort_and_batch(utts, "ascending", 2)
        assert batches[0].ids == ("u000", "u001")
        assert batches[1].ids == ("u002",)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        utts = make_utts(rng.integers(1, 12, size=23))
        frames = {u.id: u.num_frames for u in utts}
        for order in ORDERS:
            batches = sort_and_batch(utts, order, 4, seed=5)
            assert [b.size for b in batches] == [4] * 5 + [3]
            seen = [i for b in batches for i in b.ids]
            assert sorted(seen) == sorted(u.id for u in utts)
            assert all(list(b.lengths) == [frames[i] for i in b.ids] for b in batches)

    def test_padding_recovery(self):
        utts = make_utts([2, 4, 1], feat_dim=3)
        batches = sort_and_batch(utts, "ascending", 2)
        by_id = {u.id: u for u in utts}
        for batch in batches:
            for i, utt_id in enumerate(batch.ids):
                np.testing.assert_allclose(
                    batch.features(3)[i, : batch.lengths[i]], by_id[utt_id].features
                )
                np.testing.assert_allclose(batch.features(3)[i, batch.lengths[i] :], 0.0)

    def test_utterance_not_of_the_width_asked_for_is_named(self):
        # the odd utterance sorts first, then last: each time it, not a neighbour, is named
        for odd in (0, 2):
            utts = make_utts([2, 3, 4], feat_dim=6)
            utts[odd] = Utterance(id=utts[odd].id, features=np.zeros((odd + 2, 8)), transcript=("W",))
            batch = sort_and_batch(utts, "ascending", 3)[0]
            assert batch.ids[odd] == utts[odd].id
            with pytest.raises(ValueError, match=f"^{utts[odd].id}: features are 8 wide, not 6$"):
                batch.features(6)

    def test_batches_pad_on_access_and_retain_no_copy(self):
        rng = np.random.default_rng(4)
        utts = make_utts(rng.integers(50, 150, size=200), feat_dim=40)  # about 6 MB of features
        corpus_bytes = sum(u.features.nbytes for u in utts)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batches = sort_and_batch(utts, "random", 50, seed=1)
            retained = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            counts = [(b.size, b.max_frames, b.padding_waste) for b in batches]
            counting_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert retained < 0.05 * corpus_bytes
        padded_bytes = min(b.size * b.max_frames * 40 * 8 for b in batches)
        assert counting_peak < 0.01 * padded_bytes
        assert [b.features(40).shape for b in batches] == [(size, t_max, 40) for size, t_max, _ in counts]

    def test_waste_zero_iff_equal_lengths(self):
        equal = sort_and_batch(make_utts([3, 3, 3]), "ascending", 3)[0]
        assert equal.padding_waste == 0.0
        unequal = sort_and_batch(make_utts([3, 2, 3]), "ascending", 3)[0]
        assert unequal.padding_waste > 0.0

    def test_random_shuffle_deterministic(self):
        utts = make_utts([5, 1, 3, 2, 4])
        a = [b.ids for b in sort_and_batch(utts, "random", 2, seed=9)]
        b = [b.ids for b in sort_and_batch(utts, "random", 2, seed=9)]
        c = [b.ids for b in sort_and_batch(utts, "random", 2, seed=10)]
        assert a == b
        assert a != c  # overwhelmingly likely for 5 items

    def test_sorted_orders_minimize_total_padding(self):
        # with full batches, total padded cells under either sorted order
        # never exceed those of any random shuffle
        rng = np.random.default_rng(17)
        for trial in range(100):
            batch_size = int(rng.integers(2, 5))
            n = int(rng.integers(2, 7)) * batch_size
            utts = make_utts(rng.integers(1, 40, size=n))

            def total_cells(order, seed=0):
                return sum(b.size * b.max_frames for b in sort_and_batch(utts, order, batch_size, seed))

            ascending = total_cells("ascending")
            assert ascending <= total_cells("random", trial)
            assert ascending == total_cells("descending")


class TestSynthCorpus:
    def test_zero_noise_single_word_is_prototype(self):
        spec = SynthSpec(vocab_size=3, feature_dim=4, noise=0.0, min_words=1, max_words=1, proto_seed=7)
        utts = synth_corpus(spec, 6, seed=1)
        by_word = {}
        for u in utts:
            word = u.transcript[0]
            if word in by_word:
                np.testing.assert_allclose(u.features, by_word[word])
            by_word[word] = u.features

    def test_same_seed_identical(self):
        spec = SynthSpec(vocab_size=5, proto_seed=3)
        a = synth_corpus(spec, 10, seed=2)
        b = synth_corpus(spec, 10, seed=2)
        assert [u.id for u in a] == [u.id for u in b]
        for ua, ub in zip(a, b):
            assert ua.transcript == ub.transcript
            np.testing.assert_array_equal(ua.features, ub.features)

    def test_different_seed_differs(self):
        spec = SynthSpec(vocab_size=5, proto_seed=3)
        a = synth_corpus(spec, 10, seed=2)
        b = synth_corpus(spec, 10, seed=3)
        assert any(ua.transcript != ub.transcript for ua, ub in zip(a, b))

    def test_vocab_and_pool_disjoint(self):
        spec = SynthSpec(vocab_size=6, oov_pool_size=4, proto_seed=1)
        main, pool = synth_vocabulary(spec)
        assert len(main) == 6 and len(pool) == 4
        assert not set(main) & set(pool)

    def test_oov_injection_rate(self):
        spec = SynthSpec(vocab_size=10, oov_pool_size=5, oov_rate=0.1, proto_seed=1)
        utts = synth_corpus(spec, 400, seed=9)
        main = set(synth_vocabulary(spec)[0])
        tokens = [w for u in utts for w in u.transcript]
        rate = sum(w not in main for w in tokens) / len(tokens)
        assert rate == pytest.approx(0.1, abs=0.02)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"vocab_size": 0}, "vocab_size=0: must be >= 1"),
            ({"min_words": 3, "max_words": 2}, "max_words=2: must be >= 3"),
            ({"oov_pool_size": -1}, "oov_pool_size=-1: must be >= 0"),
            ({"noise": math.nan}, "noise=nan: must be finite and >= 0"),
            ({"noise": math.inf}, "noise=inf: must be finite and >= 0"),
            ({"noise": -1.0}, "noise=-1.0: must be finite and >= 0"),
            ({"oov_rate": 2.0, "oov_pool_size": 3}, r"oov_rate=2.0: must lie in \[0, 1\]"),
            ({"oov_rate": math.nan, "oov_pool_size": 3}, r"oov_rate=nan: must lie in \[0, 1\]"),
            ({"oov_rate": 0.5}, "oov_pool_size=0: must be >= 1 when oov_rate > 0"),
        ],
        ids=["vocab", "words", "pool", "noise-nan", "noise-inf", "noise-negative", "rate-above-1", "rate-nan",
             "rate-without-pool"],
    )
    def test_spec_it_cannot_honour_is_rejected_by_field(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SynthSpec(**fields)

    def test_no_adjacent_repeats(self):
        spec = SynthSpec(vocab_size=4, proto_seed=5)
        for u in synth_corpus(spec, 50, seed=4):
            assert all(a != b for a, b in zip(u.transcript, u.transcript[1:]))


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        spec = SynthSpec(vocab_size=4, feature_dim=3, proto_seed=2)
        utts = synth_corpus(spec, 8, seed=5)
        save_corpus(utts, tmp_path)
        loaded = load_corpus(tmp_path)
        assert [u.id for u in loaded] == [u.id for u in utts]
        for a, b in zip(utts, loaded):
            assert a.transcript == b.transcript
            np.testing.assert_allclose(a.features, b.features, atol=1e-6)  # float32 storage

    def test_deterministic_bytes(self, tmp_path):
        spec = SynthSpec(vocab_size=4, proto_seed=2)
        for name in ("a", "b"):
            save_corpus(synth_corpus(spec, 5, seed=5), tmp_path / name)
        a_files = sorted((tmp_path / "a").rglob("*"))
        b_files = sorted((tmp_path / "b").rglob("*"))
        assert [f.name for f in a_files] == [f.name for f in b_files]
        for fa, fb in zip(a_files, b_files):
            if fa.is_file():
                assert fa.read_bytes() == fb.read_bytes()

    def test_truncated_feature_file_named(self, tmp_path):
        spec = SynthSpec(vocab_size=4, feature_dim=3, proto_seed=2)
        save_corpus(synth_corpus(spec, 3, seed=5), tmp_path)
        victim = sorted((tmp_path / "features").glob("*.bin"))[1]
        victim.write_bytes(victim.read_bytes()[:-4])
        with pytest.raises(ValueError, match=f"{victim.name}.*header"):
            load_corpus(tmp_path)
        victim.write_bytes(b"\x01")  # not even a whole header
        with pytest.raises(ValueError, match=victim.name):
            load_corpus(tmp_path)

    def test_ids_holding_unicode_line_breaks_round_trip(self, tmp_path):
        utts = [
            Utterance(id=f"u{c}v", features=np.full((2, 3), i), transcript=("A",)) for i, c in enumerate(UNICODE_BREAKS)
        ]
        save_corpus(utts, tmp_path)
        loaded = load_corpus(tmp_path)
        assert [u.id for u in loaded] == [u.id for u in utts]
        for a, b in zip(utts, loaded):
            np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("utt_id", ["a\tb", "a\nb", "a\rb", "a/b"], ids=["tab", "lf", "cr", "slash"])
    def test_id_it_cannot_read_back_is_named_before_any_file(self, tmp_path, utt_id):
        utts = [Utterance(id="ok", features=np.zeros((2, 3)), transcript=("A",))]
        utts.append(Utterance(id=utt_id, features=np.zeros((2, 3)), transcript=("B",)))
        with pytest.raises(ValueError, match=f"^id {re.escape(repr(utt_id))}: "):
            save_corpus(utts, tmp_path / "c")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("word", ["A\tB", "A B", "A\x0bB", "A\nB", "", " A"], ids=["tab", "space", "vt", "lf", "empty", "leading-space"])
    def test_transcript_word_it_cannot_read_back_is_named_before_any_file(self, tmp_path, word):
        utts = [Utterance(id="ok", features=np.zeros((2, 3)), transcript=("A",))]
        utts.append(Utterance(id="u", features=np.zeros((2, 3)), transcript=("B", word)))
        with pytest.raises(ValueError, match=f"^id 'u': transcript word {re.escape(repr(word))} is empty or holds whitespace"):
            save_corpus(utts, tmp_path / "c")
        assert not (tmp_path / "c").exists()

    def test_lower_case_words_read_back_upper_case(self, tmp_path):
        save_corpus([Utterance(id="u", features=np.zeros((2, 3)), transcript=("the", "Cat"))], tmp_path)
        assert load_corpus(tmp_path)[0].transcript == ("THE", "CAT")

    def test_features_are_held_as_read(self, tmp_path):
        utts = synth_corpus(SynthSpec(vocab_size=4, feature_dim=3, proto_seed=2), 4, seed=5)
        save_corpus(utts, tmp_path)
        for a, b in zip(utts, load_corpus(tmp_path)):
            assert b.features.dtype == np.float32
            np.testing.assert_array_equal(b.features, a.features.astype(np.float32))

    def test_short_corpus_line_named(self, tmp_path):
        save_corpus(synth_corpus(SynthSpec(vocab_size=4, proto_seed=2), 3, seed=5), tmp_path)
        tsv = tmp_path / "corpus.tsv"
        lines = tsv.read_text().splitlines()
        tsv.write_text("\n".join([lines[0], "utt9 A B"] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"corpus\.tsv:2: expected id<TAB>text, got 'utt9 A B'"):
            load_corpus(tmp_path)

    def test_non_utf8_corpus_line_named(self, tmp_path):
        save_corpus(synth_corpus(SynthSpec(vocab_size=4, proto_seed=2), 3, seed=5), tmp_path)
        tsv = tmp_path / "corpus.tsv"
        tsv.write_bytes(tsv.read_bytes().replace(b"\t", b"\t\xff", 1))
        with pytest.raises(ValueError, match=r"corpus\.tsv:1: 'utf-8' codec can't decode byte 0xff"):
            load_corpus(tmp_path)

    def test_repeated_id_names_both_lines(self, tmp_path):
        save_corpus(synth_corpus(SynthSpec(vocab_size=4, proto_seed=2), 3, seed=5), tmp_path)
        tsv = tmp_path / "corpus.tsv"
        lines = tsv.read_text().splitlines()
        tsv.write_text("\n".join(lines + [lines[0]]) + "\n")
        with pytest.raises(ValueError, match=r"corpus\.tsv:4: id 'utt00000' repeats line 1"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "rel, fault", [("", "Is a directory"), ("features/missing.bin", "No such file or directory")], ids=["empty", "missing"]
    )
    def test_bad_feature_path_names_the_corpus_line(self, tmp_path, rel, fault):
        save_corpus(synth_corpus(SynthSpec(vocab_size=4, proto_seed=2), 3, seed=5), tmp_path)
        tsv = tmp_path / "corpus.tsv"
        lines = tsv.read_text().splitlines()
        lines[1] = lines[1].rsplit("\t", 1)[0] + "\t" + rel
        tsv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_corpus(tmp_path)
        assert str(err.value) == f"{tsv}:2: feature path {rel!r}: {fault}"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_the_file(self, tmp_path, value):
        utts = synth_corpus(SynthSpec(vocab_size=4, feature_dim=3, proto_seed=2), 3, seed=5)
        save_corpus(utts, tmp_path)
        victim = tmp_path / "features" / "utt00001.bin"
        raw = bytearray(victim.read_bytes())
        raw[-4:] = np.array([value], dtype="<f4").tobytes()
        victim.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as err:
            load_corpus(tmp_path)
        message = f"{tmp_path / 'corpus.tsv'}:2: {victim}: features of 'utt00001' are not all finite"
        assert str(err.value) == message

    def test_split_is_stable_partition(self):
        utts = make_utts([3] * 40)
        train, heldout = split_by_id_hash(utts, 0.25)
        train2, heldout2 = split_by_id_hash(utts, 0.25)
        assert [u.id for u in train] == [u.id for u in train2]
        assert [u.id for u in heldout] == [u.id for u in heldout2]
        assert len(train) + len(heldout) == len(utts)
        assert heldout  # 40 ids at 25% should catch some


class TestIdTable:
    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\tX Y\r\nb\t\r\n\r\nc\tZ\r\n")
        assert read_table(path, lambda utt_id, text: text) == {"a": "X Y", "b": "", "c": "Z"}

    def test_every_row_it_writes_reads_back(self, tmp_path):
        rows = [(f"u{c}", f"x{c}y") for c in UNICODE_BREAKS] + [("", "A"), ("\x1c", ""), (" ", " ")]
        write_table(tmp_path / "t.tsv", rows)
        assert read_table(tmp_path / "t.tsv", lambda utt_id, text: text) == dict(rows)

    @pytest.mark.parametrize(
        "row", [("a\tb", "X"), ("a\nb", "X"), ("a\rb", "X"), ("a", "X\nY"), ("a", "X\rY")],
        ids=["id-tab", "id-lf", "id-cr", "text-lf", "text-cr"],
    )
    def test_row_it_cannot_read_back_is_named_before_writing(self, tmp_path, row):
        with pytest.raises(ValueError, match=f"^id {re.escape(repr(row[0]))}: "):
            write_table(tmp_path / "t.tsv", [("ok", "X"), row])
        assert not (tmp_path / "t.tsv").exists()


class TestCurriculumOrder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown curriculum order 'sorted'; choose from ascending, descending, random$"):
            sort_and_batch(make_utts([3, 1, 2]), "sorted", 2)

    def test_arrange_does_not_mutate(self):
        utts = make_utts([3, 1, 2])
        ids = [u.id for u in utts]
        for order in ORDERS:
            sort_and_batch(utts, order, 2, seed=1)
            assert [u.id for u in utts] == ids


def test_utterance_validation():
    with pytest.raises(ValueError):
        Utterance(id="bad", features=np.zeros((0, 3)), transcript=())
    with pytest.raises(ValueError):
        Utterance(id="bad", features=np.array([[np.nan]]), transcript=())


def test_utterance_keeps_float32_and_makes_anything_else_float64():
    f32 = np.ones((2, 3), dtype=np.float32)
    assert Utterance(id="a", features=f32, transcript=()).features is f32
    for given in (np.ones((2, 3), dtype=np.float16), np.ones((2, 3), dtype=np.int64), [[1, 2, 3]]):
        assert Utterance(id="a", features=given, transcript=()).features.dtype == np.float64
