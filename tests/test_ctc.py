import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2w.ctc import (
    LOGITS,
    PROBABILITIES,
    BlankInTarget,
    InfeasibleAlignment,
    PosteriorLattice,
    ctc_loss,
    expand_target,
    forward_backward,
    min_frames_for,
)
from oracles import OracleTooLarge, ctc_brute_force, ctc_grad_check, reference_ctc_loss, reference_forward_backward


def random_prob_lattice(rng, t, k):
    rows = rng.dirichlet(np.ones(k), size=t)
    return PosteriorLattice(rows, PROBABILITIES)


def random_instance(rng, max_t=8, max_k=5, max_l=3):
    t = int(rng.integers(1, max_t + 1))
    k = int(rng.integers(2, max_k + 1))
    l = int(rng.integers(0, max_l + 1))
    y = [int(v) for v in rng.integers(1, k, size=l)]
    return t, k, y


class TestExpandTarget:
    def test_single_label(self):
        assert expand_target([1]) == (0, 1, 0)

    def test_repeat(self):
        assert expand_target([1, 1]) == (0, 1, 0, 1, 0)

    def test_empty(self):
        assert expand_target([]) == (0,)

    def test_blank_rejected(self):
        with pytest.raises(BlankInTarget):
            expand_target([1, 0, 2])

    @given(st.lists(st.integers(1, 9), max_size=10))
    def test_shape_and_positions(self, y):
        expanded = expand_target(y)
        assert len(expanded) == 2 * len(y) + 1
        assert all(expanded[i] == 0 for i in range(0, len(expanded), 2))
        assert [expanded[i] for i in range(1, len(expanded), 2)] == y


class TestCtcLossHandExamples:
    def test_single_frame_single_label(self):
        lat = PosteriorLattice(np.array([[0.3, 0.7]]), PROBABILITIES)
        assert ctc_loss(lat, [1]).log_loss == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_two_frames_three_paths(self):
        p = np.array([[0.4, 0.6], [0.25, 0.75]])
        lat = PosteriorLattice(p, PROBABILITIES)
        expected = p[0, 1] * p[1, 1] + p[0, 1] * p[1, 0] + p[0, 0] * p[1, 1]
        assert ctc_loss(lat, [1]).log_loss == pytest.approx(-math.log(expected), abs=1e-12)

    def test_repeat_forces_blank(self):
        p = np.array([[0.2, 0.8], [0.9, 0.1], [0.3, 0.7]])
        lat = PosteriorLattice(p, PROBABILITIES)
        expected = p[0, 1] * p[1, 0] * p[2, 1]  # only path: label, blank, label
        assert ctc_loss(lat, [1, 1]).log_loss == pytest.approx(-math.log(expected), abs=1e-12)

    def test_empty_target_is_all_blank(self):
        p = np.array([[0.6, 0.4], [0.5, 0.5]])
        lat = PosteriorLattice(p, PROBABILITIES)
        assert ctc_loss(lat, []).log_loss == pytest.approx(-math.log(0.6 * 0.5), abs=1e-12)

    def test_infeasible_raises(self):
        lat = PosteriorLattice(np.full((2, 3), 1 / 3), PROBABILITIES)
        with pytest.raises(InfeasibleAlignment):
            ctc_loss(lat, [1, 2, 1])
        with pytest.raises(InfeasibleAlignment):
            ctc_loss(lat, [1, 1])  # repeat needs 3 frames

    def test_closed_form_gradient_single_frame(self):
        logits = np.array([[0.3, -1.2, 2.0]])
        lat = PosteriorLattice(logits, LOGITS)
        result = ctc_loss(lat, [1])
        softmax = np.exp(logits[0]) / np.exp(logits[0]).sum()
        expected = softmax - np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(result.grad[0], expected, atol=1e-12)

    def test_empty_target_gradient_sign(self):
        lat = PosteriorLattice(np.zeros((4, 3)), LOGITS)
        grad = ctc_loss(lat, []).grad
        assert np.all(grad[:, 0] < 0)  # blank pushed up
        assert np.all(grad[:, 1:] > 0)  # labels pushed down


class TestBruteForce:
    def test_longer_target_than_frames(self):
        lat = PosteriorLattice(np.full((2, 3), 1 / 3), PROBABILITIES)
        assert ctc_brute_force(lat, [1, 2, 1]) == -math.inf

    def test_uniform_two_frames(self):
        lat = PosteriorLattice(np.full((2, 2), 0.5), PROBABILITIES)
        assert math.exp(ctc_brute_force(lat, [1])) == pytest.approx(0.75, abs=1e-12)

    def test_size_cap(self):
        lat = PosteriorLattice(np.full((11, 2), 0.5), PROBABILITIES)
        with pytest.raises(OracleTooLarge):
            ctc_brute_force(lat, [1])

    def test_agreement_with_dp(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 300:
            t, k, y = random_instance(rng)
            lat = random_prob_lattice(rng, t, k)
            brute = ctc_brute_force(lat, y)
            if t < min_frames_for(y):
                assert brute == -math.inf
                continue
            dp = -ctc_loss(lat, y).log_loss
            assert abs(dp - brute) <= 1e-9
            checked += 1

    def test_total_probability_sums_to_one(self):
        # every frame path collapses to exactly one output sequence
        rng = np.random.default_rng(7)
        for t, k in [(2, 2), (3, 3), (4, 2), (4, 3)]:
            lat = random_prob_lattice(rng, t, k)
            total = 0.0
            labels = list(range(1, k))

            def all_targets(max_len):
                seqs = [[]]
                for _ in range(max_len):
                    seqs = [s + [l] for s in seqs for l in labels] + seqs
                unique = {tuple(s) for s in seqs}
                return unique

            for y in all_targets(t):
                if min_frames_for(y) <= t:
                    total += math.exp(ctc_brute_force(lat, list(y)))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestGradients:
    def test_grad_check_random(self):
        rng = np.random.default_rng(99)
        done = 0
        while done < 25:
            t, k, y = random_instance(rng, max_t=6, max_k=5, max_l=3)
            if t < min_frames_for(y):
                continue
            lat = PosteriorLattice(rng.normal(size=(t, k)), LOGITS)
            assert ctc_grad_check(lat, y, step=1e-5) <= 1e-4
            done += 1

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t, k, y = random_instance(rng, max_t=7)
            if t < min_frames_for(y):
                continue
            lat = PosteriorLattice(rng.normal(size=(t, k)), LOGITS)
            grad = ctc_loss(lat, y).grad
            np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-9)
            prob_lat = random_prob_lattice(rng, t, k)
            np.testing.assert_allclose(ctc_loss(prob_lat, y).grad.sum(axis=1), 0.0, atol=1e-9)

    def test_posterior_gradient_recoverable_by_chain_rule(self):
        # differentiate a test-local path-sum w.r.t. raw probability entries,
        # then push through the softmax Jacobian: g_k = p_k (d_k - sum_j p_j d_j)
        import itertools

        def raw_path_sum(rows, y):
            total = 0.0
            for path in itertools.product(range(rows.shape[1]), repeat=rows.shape[0]):
                collapsed = [l for i, l in enumerate(path) if (i == 0 or l != path[i - 1]) and l != 0]
                if collapsed == list(y):
                    total += math.prod(rows[i, l] for i, l in enumerate(path))
            return total

        rng = np.random.default_rng(21)
        t, k, y = 4, 3, [1, 2]
        lat = random_prob_lattice(rng, t, k)
        analytic = ctc_loss(lat, y).grad
        probs = lat.values
        step = 1e-7
        posterior_grad = np.zeros_like(probs)
        for i in range(t):
            for j in range(k):
                hi, lo = probs.copy(), probs.copy()
                hi[i, j] += step
                lo[i, j] -= step
                posterior_grad[i, j] = (-math.log(raw_path_sum(hi, y)) + math.log(raw_path_sum(lo, y))) / (2 * step)
        projected = probs * (posterior_grad - (probs * posterior_grad).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(projected, analytic, atol=1e-6)

    def test_one_hot_path_has_zero_gradient(self):
        values = np.zeros((3, 3))
        values[0, 1] = 1.0
        values[1, 0] = 1.0
        values[2, 2] = 1.0
        lat = PosteriorLattice(values, PROBABILITIES)
        result = ctc_loss(lat, [1, 2])
        assert result.log_loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(result.grad, 0.0, atol=1e-12)

    def test_interior_lattice_has_nonzero_gradient(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lat = random_prob_lattice(rng, 4, 3)
            grad = ctc_loss(lat, [1]).grad
            assert np.abs(grad).max() > 1e-6


def _log_path_sum(probs, y):
    return -ctc_loss(PosteriorLattice(probs, PROBABILITIES), y).log_loss


class TestInvariants:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_alpha_beta_frame_sums_constant(self, data):
        t = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(2, 4))
        l = data.draw(st.integers(0, 3))
        y = data.draw(st.lists(st.integers(1, k - 1), min_size=l, max_size=l))
        if t < min_frames_for(y):
            t = min_frames_for(y) + data.draw(st.integers(0, 2))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        lat = random_prob_lattice(rng, t, k)
        log_alpha, log_beta, log_total, _, _ = forward_backward(lat, y)
        for frame in range(t):
            with np.errstate(divide="ignore"):
                frame_total = np.logaddexp.reduce(log_alpha[frame] + log_beta[frame])
            assert abs(frame_total - log_total) <= 1e-9

    def test_blank_certain_frame_is_free(self):
        rng = np.random.default_rng(11)
        lat = random_prob_lattice(rng, 4, 3)
        y = [1, 2]
        base = ctc_loss(lat, y).log_loss
        padded_rows = np.vstack([lat.values, np.array([[1.0, 0.0, 0.0]])])
        padded = PosteriorLattice(padded_rows, PROBABILITIES)
        assert ctc_loss(padded, y).log_loss == pytest.approx(base, abs=1e-12)

    def test_feasibility_is_monotone_in_frames(self):
        rng = np.random.default_rng(13)
        y = [1, 1, 2]
        t = min_frames_for(y)
        lat = random_prob_lattice(rng, t, 3)
        assert np.isfinite(ctc_loss(lat, y).log_loss)
        wider = PosteriorLattice(np.vstack([lat.values, np.full((1, 3), 1 / 3)]), PROBABILITIES)
        assert np.isfinite(ctc_loss(wider, y).log_loss)


@st.composite
def sweep_cases(draw):
    """(K, target, T, seed): targets of 0-7 labels, sometimes with an adjacent
    repeat, and T from the minimum frame count up to 9 frames more."""
    k = draw(st.integers(2, 11))
    y = draw(st.lists(st.integers(1, k - 1), max_size=7))
    if len(y) > 1 and draw(st.booleans()):
        at = draw(st.integers(0, len(y) - 2))
        y[at + 1] = y[at]
    t = max(1, min_frames_for(y) + draw(st.integers(0, 9)))
    return k, y, t, draw(st.integers(0, 2**32 - 1))


class TestSweepMatchesTwoLoopReference:
    """The one-sweep recursion against the two-loop code it replaced
    (tests/oracles.py): bitwise on logits lattices."""

    @given(sweep_cases(), st.sampled_from([np.float32, np.float64]), st.sampled_from([1.0, 8.0, 80.0, 1000.0]))
    @example((3, [], 1, 0), np.float64, 1.0)
    @example((4, [2, 2, 3, 3], 6, 1), np.float32, 8.0)
    @example((5, [1, 4, 4, 2, 1, 1, 3], 9, 2), np.float64, 80.0)
    @example((3, [1, 2, 1], 8, 3), np.float64, 1000.0)
    @settings(max_examples=300, deadline=None)
    def test_logits_lattices_are_bitwise_equal(self, case, dtype, scale):
        k, y, t, seed = case
        logits = (np.random.default_rng(seed).standard_normal((t, k)) * scale).astype(dtype)
        lat = PosteriorLattice(logits, LOGITS)
        log_alpha, log_beta, log_total, ext, _ = forward_backward(lat, y)
        ref_alpha, ref_beta, ref_total, ref_ext = reference_forward_backward(lat, y)
        assert np.array_equal(log_alpha, ref_alpha)
        assert np.array_equal(log_beta, ref_beta)
        assert log_total == ref_total
        assert np.array_equal(ext, ref_ext)
        got, want = ctc_loss(lat, y), reference_ctc_loss(lat, y)
        assert got.log_loss == want.log_loss
        assert np.array_equal(got.grad, want.grad, equal_nan=True)

    @given(sweep_cases(), st.booleans())
    @example((3, [], 1, 0), False)
    @example((4, [2, 2, 3], 4, 1), True)
    @settings(max_examples=200, deadline=None)
    def test_probability_lattices_agree(self, case, with_zeros):
        """Same loss; the gradient is exp(log p) - gamma rather than p - gamma,
        which may differ from the reference in the last bit."""
        k, y, t, seed = case
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(k), size=t)
        if with_zeros:
            rows[rng.random(rows.shape) < 0.2] = 0.0
            rows[rows.sum(axis=1) == 0.0, 0] = 1.0
            rows /= rows.sum(axis=1, keepdims=True)
        lat = PosteriorLattice(rows, PROBABILITIES)
        got, want = ctc_loss(lat, y), reference_ctc_loss(lat, y)
        assert got.log_loss == want.log_loss
        np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=2.2e-16)


class TestLatticeValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            PosteriorLattice(np.array([[0.9, 0.3]]), PROBABILITIES)

    def test_rejects_nonfinite_logits(self):
        with pytest.raises(ValueError):
            PosteriorLattice(np.array([[np.inf, 0.0]]), LOGITS)

    def test_rejects_tiny_spaces(self):
        with pytest.raises(ValueError):
            PosteriorLattice(np.ones((1, 1)), LOGITS)

    def test_kind_round_trip(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 4))
        lat = PosteriorLattice(logits, LOGITS)
        probs = np.exp(lat.log_probs())
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(PosteriorLattice(probs, PROBABILITIES).log_probs(), lat.log_probs(), atol=1e-12)
