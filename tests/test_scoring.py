import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2w.scoring import EmptyReference, WerReport, corpus_wer, wer
from oracles import brute_force_min_edits, enumerate_min_edits

TOKENS = ("A", "B", "C")


class TestWerExamples:
    def test_identical(self):
        report = wer("a b c".split(), "a b c".split())
        assert (report.substitutions, report.insertions, report.deletions) == (0, 0, 0)
        assert report.wer == 0.0

    def test_single_substitution(self):
        report = wer("a b c".split(), "a x c".split())
        assert (report.substitutions, report.insertions, report.deletions) == (1, 0, 0)
        assert report.wer == pytest.approx(100 / 3)

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReference):
            wer([], ["a"])

    def test_empty_vs_empty(self):
        report = wer([], [])
        assert report.wer == 0.0 and report.errors == 0

    def test_case_normalized(self):
        assert wer(["Cat"], ["cat"]).errors == 0

    def test_insertion_and_deletion_counts(self):
        report = wer("a b".split(), "a x b y".split())
        assert report.errors == 2
        assert report.insertions == 2

    def test_counts_recompute_to_percentage(self):
        report = wer("a b c d".split(), "x b d".split())
        assert report.wer == pytest.approx(100.0 * report.errors / report.ref_words)


class TestWerOracle:
    def test_exhaustive_up_to_length_4(self):
        # the full length-5 sweep runs in the acceptance suite
        sequences = [
            seq
            for length in range(5)
            for seq in itertools.product(TOKENS, repeat=length)
        ]
        for ref in sequences:
            for hyp in sequences:
                if not ref and hyp:
                    continue
                report = wer(list(ref), list(hyp))
                assert report.errors == brute_force_min_edits(ref, hyp), (ref, hyp)

    @given(
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5),
        st.lists(st.sampled_from(TOKENS), max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_sampled_length_5(self, ref, hyp):
        assert wer(ref, hyp).errors == brute_force_min_edits(ref, hyp)

    @given(st.lists(st.sampled_from("ABCD"), max_size=5), st.lists(st.sampled_from("ABCD"), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_memoized_oracle_equals_direct_enumeration(self, ref, hyp):
        # the cache is keyed on the first-occurrence renaming of the pair
        assert brute_force_min_edits(ref, hyp) == enumerate_min_edits.__wrapped__(tuple(ref), tuple(hyp))

    @given(
        st.lists(st.sampled_from(TOKENS), max_size=6),
        st.lists(st.sampled_from(TOKENS), max_size=6),
        st.lists(st.sampled_from(TOKENS), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        def dist(x, y):
            if not x and not y:
                return 0
            # edit distance is symmetric; route around the empty-ref guard
            return wer(x or y, y if x else []).errors if x else len(y)

        assert dist(a, c) <= dist(a, b) + dist(b, c)

    @given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6))
    def test_self_distance_zero(self, seq):
        assert wer(seq, seq).errors == 0


class TestCorpusWer:
    def test_aggregates_counts(self):
        refs = {"u1": ["a", "b"], "u2": ["c"]}
        hyps = {"u1": ["a", "x"], "u2": ["c"]}
        report = corpus_wer(refs, hyps)
        assert report.ref_words == 3
        assert report.substitutions == 1
        assert report.wer == pytest.approx(100 / 3)

    def test_id_mismatch_rejected(self):
        with pytest.raises(KeyError):
            corpus_wer({"u1": ["a"]}, {"u2": ["a"]})


def test_report_addition():
    total = WerReport(1, 0, 0, 2) + WerReport(0, 1, 1, 3)
    assert (total.substitutions, total.insertions, total.deletions, total.ref_words) == (1, 1, 1, 5)
