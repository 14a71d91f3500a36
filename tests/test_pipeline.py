import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from a2w.pipeline import (
    ASCENDING,
    DESCENDING,
    CurriculumOrder,
    SynthSpec,
    Utterance,
    compute_deltas,
    load_corpus,
    random_order,
    save_corpus,
    sort_and_batch,
    split_by_id_hash,
    stack_decimate,
    synth_corpus,
    synth_vocabulary,
)


def make_utts(lengths, feat_dim=2):
    rng = np.random.default_rng(0)
    return [
        Utterance(id=f"u{i:03d}", features=rng.normal(size=(n, feat_dim)), transcript=("W",))
        for i, n in enumerate(lengths)
    ]


def encode_len(words):
    return [1] * len(words)


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
        batches = sort_and_batch(utts, ASCENDING, 2, encode_len)
        assert [list(b.lengths) for b in batches] == [[1, 2], [3]]
        assert batches[0].padding_waste == pytest.approx(1 - 3 / 4)
        assert batches[1].padding_waste == pytest.approx(0.0)

    def test_descending(self):
        utts = make_utts([3, 1, 2])
        batches = sort_and_batch(utts, DESCENDING, 2, encode_len)
        assert [list(b.lengths) for b in batches] == [[3, 2], [1]]
        assert batches[0].padding_waste == pytest.approx(1 - 5 / 6)

    def test_empty_input(self):
        assert sort_and_batch([], ASCENDING, 4, encode_len) == []

    def test_ties_break_by_id(self):
        utts = make_utts([2, 2, 2])
        batches = sort_and_batch(utts, ASCENDING, 2, encode_len)
        assert batches[0].ids == ("u000", "u001")
        assert batches[1].ids == ("u002",)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        utts = make_utts(rng.integers(1, 12, size=23))
        for order in (ASCENDING, DESCENDING, random_order(5)):
            batches = sort_and_batch(utts, order, 4, encode_len)
            seen = [i for b in batches for i in b.ids]
            assert sorted(seen) == sorted(u.id for u in utts)
            arranged = order.arrange(utts)
            assert seen == [u.id for u in arranged]

    def test_padding_recovery(self):
        utts = make_utts([2, 4, 1], feat_dim=3)
        batches = sort_and_batch(utts, ASCENDING, 2, encode_len)
        by_id = {u.id: u for u in utts}
        for batch in batches:
            for i, utt_id in enumerate(batch.ids):
                np.testing.assert_allclose(
                    batch.features[i, : batch.lengths[i]], by_id[utt_id].features
                )
                np.testing.assert_allclose(batch.features[i, batch.lengths[i] :], 0.0)

    def test_batches_pad_on_access_and_retain_no_copy(self):
        rng = np.random.default_rng(4)
        utts = make_utts(rng.integers(50, 150, size=200), feat_dim=40)  # about 6 MB of features
        corpus_bytes = sum(u.features.nbytes for u in utts)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batches = sort_and_batch(utts, random_order(1), 50, encode_len)
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
        assert [b.features.shape for b in batches] == [(size, t_max, 40) for size, t_max, _ in counts]

    def test_waste_zero_iff_equal_lengths(self):
        equal = sort_and_batch(make_utts([3, 3, 3]), ASCENDING, 3, encode_len)[0]
        assert equal.padding_waste == 0.0
        unequal = sort_and_batch(make_utts([3, 2, 3]), ASCENDING, 3, encode_len)[0]
        assert unequal.padding_waste > 0.0

    def test_random_order_deterministic(self):
        utts = make_utts([5, 1, 3, 2, 4])
        a = [b.ids for b in sort_and_batch(utts, random_order(9), 2, encode_len)]
        b = [b.ids for b in sort_and_batch(utts, random_order(9), 2, encode_len)]
        c = [b.ids for b in sort_and_batch(utts, random_order(10), 2, encode_len)]
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

            def total_cells(order):
                return sum(b.size * b.max_frames for b in sort_and_batch(utts, order, batch_size, encode_len))

            ascending = total_cells(ASCENDING)
            assert ascending <= total_cells(random_order(trial))
            assert ascending == total_cells(DESCENDING)


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

    def test_short_corpus_line_named(self, tmp_path):
        save_corpus(synth_corpus(SynthSpec(vocab_size=4, proto_seed=2), 3, seed=5), tmp_path)
        tsv = tmp_path / "corpus.tsv"
        lines = tsv.read_text().splitlines()
        tsv.write_text("\n".join([lines[0], "utt9 A B"] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"corpus\.tsv:2: expected id, transcript and feature path"):
            load_corpus(tmp_path)

    def test_non_utf8_corpus_line_named(self, tmp_path):
        save_corpus(synth_corpus(SynthSpec(vocab_size=4, proto_seed=2), 3, seed=5), tmp_path)
        tsv = tmp_path / "corpus.tsv"
        tsv.write_bytes(tsv.read_bytes().replace(b"\t", b"\t\xff", 1))
        with pytest.raises(ValueError, match=r"corpus\.tsv: 'utf-8' codec can't decode byte 0xff"):
            load_corpus(tmp_path)

    def test_split_is_stable_partition(self):
        utts = make_utts([3] * 40)
        train, heldout = split_by_id_hash(utts, 0.25)
        train2, heldout2 = split_by_id_hash(utts, 0.25)
        assert [u.id for u in train] == [u.id for u in train2]
        assert [u.id for u in heldout] == [u.id for u in heldout2]
        assert len(train) + len(heldout) == len(utts)
        assert heldout  # 40 ids at 25% should catch some


class TestCurriculumOrder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CurriculumOrder("sorted")

    def test_arrange_does_not_mutate(self):
        utts = make_utts([3, 1])
        ids = [u.id for u in utts]
        ASCENDING.arrange(utts)
        assert [u.id for u in utts] == ids


def test_utterance_validation():
    with pytest.raises(ValueError):
        Utterance(id="bad", features=np.zeros((0, 3)), transcript=())
    with pytest.raises(ValueError):
        Utterance(id="bad", features=np.array([[np.nan]]), transcript=())
