import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import a2w.network as network
from a2w.ctc import LOGITS, PosteriorLattice, ctc_loss
from a2w.network import (
    BadShape,
    Model,
    ModelConfig,
    NoForwardCache,
    init_model,
    init_uniform_fan_in,
    model_backward,
    model_forward,
    param_shapes,
)
from oracles import reference_backward, reference_forward

TINY = ModelConfig(
    input_dim=5, output_dim=6, num_layers=1, hidden_per_direction=4, projection_dim=3, dropout_rate=0.0
)


def tiny_model(seed=0, config=TINY):
    return init_model(config, np.random.default_rng(seed))


def batch_loss(model, feats, lengths, targets, mask_seed=0):
    """Summed CTC loss over the batch from a training forward with dropout
    masks drawn from ``mask_seed``, and the cache with each utterance's
    loss gradient in its slot."""
    lattices, cache = model_forward(feats, lengths, model, rng=np.random.default_rng(mask_seed))
    total = 0.0
    for i, (lat, y) in enumerate(zip(lattices, targets)):
        result = ctc_loss(lat, y)
        total += result.log_loss
        cache.slot(i)[...] = result.grad
    return total, cache


def train_forward(feats, lengths, model, upstream=None, seed=0):
    """The cache of a training forward, with ``upstream[i]`` written into slot i."""
    _, cache = model_forward(feats, lengths, model, rng=np.random.default_rng(seed))
    for i, g in enumerate(upstream or ()):
        cache.slot(i)[...] = g
    return cache


class TestInit:
    def test_fan_in_bounds_4x4(self):
        m = init_uniform_fan_in((4, 4), np.random.default_rng(0))
        assert np.all(np.abs(m) < 0.5)

    def test_fan_in_bounds_nx1(self):
        m = init_uniform_fan_in((64, 1), np.random.default_rng(0))
        assert np.all(np.abs(m) < 1.0)
        assert np.any(np.abs(m) > 0.5)  # the full range is actually used

    def test_zero_dim_rejected(self):
        with pytest.raises(BadShape):
            init_uniform_fan_in((0, 3), np.random.default_rng(0))

    def test_empirical_std(self):
        # uniform(-eps, eps) has std eps/sqrt(3)
        eps = 1.0 / np.sqrt(25)
        m = init_uniform_fan_in((4000, 25), np.random.default_rng(7))
        assert m.std() == pytest.approx(eps / np.sqrt(3), rel=0.02)

    def test_forget_gate_bias_is_one(self):
        model = tiny_model()
        b = model.params["layers.0.b"]
        h = TINY.hidden_per_direction
        np.testing.assert_array_equal(b[:, h : 2 * h], 1.0)
        np.testing.assert_array_equal(b[:, :h], 0.0)


class TestParameterAccounting:
    def test_projection_factorization_counts(self):
        # V x d plus d x D with a projection, V x D without, and no bias on the output side
        cfg = ModelConfig(input_dim=10, output_dim=50, num_layers=2, hidden_per_direction=8, projection_dim=6)
        params = init_model(cfg, np.random.default_rng(0)).params
        assert sorted(n for n in params if not n.startswith("layers.")) == ["out.W", "proj.W"]
        assert params["proj.W"].shape == (6, 16)
        assert params["out.W"].shape == (50, 6)
        flat = ModelConfig(input_dim=10, output_dim=50, num_layers=2, hidden_per_direction=8, projection_dim=0)
        flat_params = init_model(flat, np.random.default_rng(0)).params
        assert sorted(n for n in flat_params if not n.startswith("layers.")) == ["out.W"]
        assert flat_params["out.W"].shape == (50, 16)

    def test_param_shapes_closed_form(self):
        # per layer W, R, b with fwd/bwd on axis 0; layer 0 reads 7 inputs, the others 2H = 10
        cfg = ModelConfig(input_dim=7, output_dim=9, num_layers=2, hidden_per_direction=5, projection_dim=4)
        assert param_shapes(cfg) == {
            "layers.0.W": (2, 20, 7), "layers.0.R": (2, 20, 5), "layers.0.b": (2, 20),
            "layers.1.W": (2, 20, 10), "layers.1.R": (2, 20, 5), "layers.1.b": (2, 20),
            "proj.W": (4, 10), "out.W": (9, 4),
        }
        flat = dataclasses.replace(cfg, num_layers=1, projection_dim=0)
        assert param_shapes(flat) == {"layers.0.W": (2, 20, 7), "layers.0.R": (2, 20, 5), "layers.0.b": (2, 20),
                                      "out.W": (9, 10)}
        model = init_model(cfg, np.random.default_rng(0))
        assert {name: p.shape for name, p in model.params.items()} == param_shapes(cfg)
        assert len(model.params) == 3 * cfg.num_layers + 2

    def test_total_count_matches_tensors(self):
        cfg = ModelConfig(input_dim=7, output_dim=9, num_layers=3, hidden_per_direction=5, projection_dim=4)
        model = init_model(cfg, np.random.default_rng(0))
        # per direction 4H x (in + H) + 4H; layer 0 reads 7 inputs, the others 2H = 10
        stack = 2 * (20 * (7 + 5) + 20) + 2 * 2 * (20 * (10 + 5) + 20)
        assert sum(p.size for p in model.params.values()) == stack + 9 * 4 + 4 * 10

    def test_projection_dim_bound_enforced(self):
        with pytest.raises(BadShape):
            ModelConfig(input_dim=4, output_dim=5, hidden_per_direction=4, projection_dim=8)


class TestForward:
    def test_zero_input_zero_params_gives_zero_logits(self):
        model = tiny_model()
        for name in model.params:
            model.params[name] = np.zeros_like(model.params[name])
        feats = np.zeros((2, 3, 5))
        lattices, _ = model_forward(feats, [3, 2], model)
        for lat in lattices:
            np.testing.assert_array_equal(lat.values, 0.0)

    def test_batching_neutrality(self):
        model = tiny_model(3)
        rng = np.random.default_rng(1)
        single = rng.normal(size=(1, 1, 5))
        lattices, _ = model_forward(single, [1], model)
        stacked = np.concatenate([single, rng.normal(size=(1, 1, 5))], axis=0)
        lattices2, _ = model_forward(stacked, [1, 1], model)
        np.testing.assert_allclose(lattices2[0].values, lattices[0].values, atol=1e-12)

    def test_padding_does_not_leak(self):
        model = tiny_model(4)
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(1, 4, 5))
        unpadded, _ = model_forward(feats, [4], model)
        padded_feats = np.concatenate([feats, 99.0 * np.ones((1, 3, 5))], axis=1)
        padded, _ = model_forward(padded_feats, [4], model)
        np.testing.assert_allclose(padded[0].values, unpadded[0].values, atol=1e-12)
        assert padded[0].values.shape[0] == 4

    def test_lengths_validated(self):
        model = tiny_model()
        with pytest.raises(BadShape):
            model_forward(np.zeros((1, 2, 5)), [3], model)
        with pytest.raises(BadShape):
            model_forward(np.zeros((1, 2, 4)), [2], model)

    def test_no_cache_memory_does_not_grow_with_depth(self):
        # without a cache only the layer being run and the next layer's input
        # are alive, so a 6-layer stack peaks where a 2-layer one does
        feats = np.random.default_rng(1).normal(size=(8, 50, 16))

        def peak(layers, train):
            cfg = ModelConfig(input_dim=16, output_dim=5, num_layers=layers, hidden_per_direction=8,
                              projection_dim=0, dropout_rate=0.0)
            model = init_model(cfg, np.random.default_rng(0))
            rng = np.random.default_rng(0) if train else None
            tracemalloc.start()
            try:
                model_forward(feats, [50] * 8, model, rng=rng)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(6, False) <= 1.05 * peak(2, False)
        assert peak(6, True) >= 2 * peak(6, False)

    def test_no_cache_forward_keeps_no_cell_states(self):
        # an eval/decode forward writes only h per step: its peak fits in the
        # layer input, gate, h, top and logits buffers plus half of one
        # 2 x (T+1) x B x H cell-state buffer (c and tanh(c) would take two)
        t_max, batch, hidden, in_dim, out_dim = 100, 16, 32, 2, 3
        cfg = ModelConfig(input_dim=in_dim, output_dim=out_dim, num_layers=1, hidden_per_direction=hidden,
                          projection_dim=0, dropout_rate=0.0)
        model = init_model(cfg, np.random.default_rng(0))
        feats = np.random.default_rng(1).normal(size=(batch, t_max, in_dim))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model_forward(feats, [t_max] * batch, model)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        cell = 8 * 2 * (t_max + 1) * batch * hidden
        frames = t_max * batch
        needed = 8 * (2 * frames * (in_dim + 4 * hidden) + frames * (2 * hidden + out_dim)) + cell
        assert peak <= needed + cell // 2

    def test_bidirectionality_mirror(self):
        # swap fwd/bwd parameters (reverse axis 0) and reverse the input:
        # hidden halves swap and the frame order reverses
        cfg = ModelConfig(input_dim=3, output_dim=4, num_layers=1, hidden_per_direction=4,
                          projection_dim=0, dropout_rate=0.0)
        model = tiny_model(5, cfg)
        mirrored = Model(cfg, dict(model.params))
        for tensor in ("W", "R", "b"):
            mirrored.params[f"layers.0.{tensor}"] = model.params[f"layers.0.{tensor}"][::-1].copy()
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(1, 5, 3))
        cache = train_forward(feats, [5], model)
        mirror_cache = train_forward(feats[:, ::-1], [5], mirrored)
        top = cache.head_inputs[0][:, 0]
        mirror_top = mirror_cache.head_inputs[0][:, 0]
        h = cfg.hidden_per_direction
        swapped = np.concatenate([mirror_top[:, h:], mirror_top[:, :h]], axis=1)
        np.testing.assert_allclose(swapped[::-1], top, atol=1e-12)


class TestDropout:
    def test_eval_mode_is_identity(self):
        cfg = ModelConfig(input_dim=5, output_dim=6, num_layers=2, hidden_per_direction=4,
                          projection_dim=3, dropout_rate=0.5)
        model = init_model(cfg, np.random.default_rng(0))
        feats = np.random.default_rng(1).normal(size=(2, 3, 5))
        a, _ = model_forward(feats, [3, 3], model)
        b, _ = model_forward(feats, [3, 3], model)
        for la, lb in zip(a, b):
            np.testing.assert_array_equal(la.values, lb.values)

    def test_train_mode_expectation_preserved(self):
        # inverted dropout: the masked unit's mean over draws recovers its
        # eval value; compare the dropped layer-1 input against the undropped
        # one, from a forward of the same parameters at rate 0
        cfg = ModelConfig(input_dim=4, output_dim=5, num_layers=2, hidden_per_direction=3,
                          projection_dim=0, dropout_rate=0.25)
        model = init_model(cfg, np.random.default_rng(3))
        feats = np.random.default_rng(4).normal(size=(1, 2, 4))
        undropped_model = Model(dataclasses.replace(cfg, dropout_rate=0.0), model.params)
        undropped = train_forward(feats, [2], undropped_model).directions[1].x[0]
        rng = np.random.default_rng(99)
        draws = 10_000
        acc = np.zeros_like(undropped)
        for _ in range(draws):
            _, cache = model_forward(feats, [2], model, rng=rng)
            acc += cache.directions[1].x[0]
        mean = acc / draws
        scale = np.abs(undropped).max()
        assert np.abs(mean - undropped).max() <= 0.02 * scale

    def test_rate_zero_equals_all_ones_mask(self):
        cfg = ModelConfig(input_dim=5, output_dim=6, num_layers=2, hidden_per_direction=4,
                          projection_dim=3, dropout_rate=0.0)
        model = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(2, 4, 5))
        targets = [[1, 2], [3]]
        loss_train, cache_train = batch_loss(model, feats, [4, 3], targets, mask_seed=5)
        loss_eval, cache_eval = batch_loss(model, feats, [4, 3], targets)
        assert loss_train == loss_eval
        ga = model_backward(cache_train)
        gb = model_backward(cache_eval)
        for name in ga:
            np.testing.assert_array_equal(ga[name], gb[name])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        model = tiny_model(1)
        feats = np.random.default_rng(0).normal(size=(2, 3, 5))
        cache = train_forward(feats, [3, 2], model, [np.zeros((3, 6)), np.zeros((2, 6))])
        grads = model_backward(cache)
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_missing_cache_raises(self):
        model = tiny_model()
        with pytest.raises(NoForwardCache):
            model_backward(None)

    def test_cache_backs_one_backward(self):
        # backward reuses the cache's buffers for its gradients
        model = tiny_model(1)
        feats = np.random.default_rng(0).normal(size=(2, 3, 5))
        cache = train_forward(feats, [3, 2], model, [np.ones((3, 6)), np.ones((2, 6))])
        model_backward(cache)
        with pytest.raises(NoForwardCache, match="already consumed"):
            model_backward(cache)

    def test_finite_difference_full_model(self):
        # acceptance runs the bigger sweep; keep a quick spot check here
        cfg = ModelConfig(input_dim=3, output_dim=4, num_layers=1, hidden_per_direction=3,
                          projection_dim=2, dropout_rate=0.25)
        model = init_model(cfg, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(2, 3, 3))
        lengths = [3, 2]
        targets = [[1, 2], [3]]

        def loss_at(params):
            total, _ = batch_loss(Model(cfg, params), feats, lengths, targets, mask_seed=77)
            return total

        _, cache = batch_loss(model, feats, lengths, targets, mask_seed=77)
        grads = model_backward(cache)
        step = 1e-4
        worst = 0.0
        for name, param in model.params.items():
            flat_grad = grads[name].ravel()
            for idx in range(param.size):
                hi_params = {k: v.copy() for k, v in model.params.items()}
                hi_params[name].ravel()[idx] += step
                lo_params = {k: v.copy() for k, v in model.params.items()}
                lo_params[name].ravel()[idx] -= step
                numeric = (loss_at(hi_params) - loss_at(lo_params)) / (2 * step)
                err = abs(flat_grad[idx] - numeric) / max(1.0, abs(flat_grad[idx]))
                worst = max(worst, err)
        assert worst <= 1e-3


def _max_rel_err(actual, expected):
    """Largest |actual - expected| over paired arrays, relative to the largest |expected|.

    One scale for the whole set (every logit of a batch, every gradient
    entry of a model): a small tensor whose entries cancel carries float32
    rounding of about 1e-5 of its own size in either implementation.
    """
    scale = max(float(np.max(np.abs(e))) for e in expected)
    diff = max(float(np.max(np.abs(a - e))) for a, e in zip(actual, expected))
    return diff / max(scale, np.finfo(expected[0].dtype).tiny)


def _term_sizes(state, model):
    """Per logit, the sum of the absolute terms behind it: the reference's
    |head input| pushed through |W|.T of each head matrix, in float64."""
    size = np.abs(state["concat_top"].astype(np.float64))
    for name in ("proj.W", "out.W") if model.config.projection_dim else ("out.W",):
        size = size @ np.abs(model.params[name].astype(np.float64)).T
    return size


def _max_term_rel_err(actual, expected, sizes):
    """Largest |actual - expected| over paired logit arrays, each logit's
    relative to the size of its terms (``sizes``, paired too), but never to
    less than the largest |expected|, the scale ``_max_rel_err`` takes.

    Logits that cancel to ~1e-5 of their terms carry float32 rounding of
    about 1e-5 of themselves in either implementation, which a measure
    against the largest |logit| reads as a fault when every logit cancels.
    The floor stays because rounding in a hidden state that cancels below
    the head is not bounded by that frame's head terms.
    """
    floor = max(max(float(np.max(np.abs(e))) for e in expected), np.finfo(np.float64).tiny)
    return max(float(np.max(np.abs(a - e) / np.maximum(size, floor))) for a, e, size in zip(actual, expected, sizes))


class TestFusedAgainstReference:
    """The fused BLSTM against the per-direction time loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 4),
        t_max=st.integers(1, 7),
        layers=st.integers(1, 3),
        hidden=st.integers(1, 5),
        in_dim=st.integers(1, 6),
        out_dim=st.integers(2, 6),
        projection=st.booleans(),
        dropout=st.sampled_from([0.0, 0.3]),
        dtype=st.sampled_from(["float64", "float32"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(batch=1, t_max=3, layers=3, hidden=3, in_dim=3, out_dim=2, projection=True, dropout=0.3,
             dtype="float32", seed=1_143_710_761)  # every logit cancels to ~1e-5 of its terms
    def test_logits_and_gradients_match(self, batch, t_max, layers, hidden, in_dim, out_dim, projection,
                                        dropout, dtype, seed):
        cfg = ModelConfig(input_dim=in_dim, output_dim=out_dim, num_layers=layers, hidden_per_direction=hidden,
                          projection_dim=1 if projection else 0, dropout_rate=dropout, dtype=dtype)
        model = init_model(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        feats = rng.normal(size=(batch, t_max, in_dim))
        lengths = rng.integers(1, t_max + 1, size=batch)
        upstream = [rng.normal(size=(n, out_dim)) for n in lengths]
        tol = 1e-12 if dtype == "float64" else 1e-5

        lattices, cache = model_forward(feats, lengths, model, rng=np.random.default_rng(seed + 2))
        ref_logits, state = reference_forward(feats, lengths, model, rng=np.random.default_rng(seed + 2))
        ref_lattices = [ref_logits[i, : lengths[i]].astype(np.float64) for i in range(batch)]
        if dtype == "float64":
            assert _max_rel_err([lat.values for lat in lattices], ref_lattices) <= tol
        else:
            sizes = [size[: n] for size, n in zip(_term_sizes(state, model), lengths)]
            assert _max_term_rel_err([lat.values for lat in lattices], ref_lattices, sizes) <= tol

        for i, g in enumerate(upstream):
            cache.slot(i)[...] = g
        grads = model_backward(cache)
        dlogits = np.zeros((batch, t_max, out_dim), dtype=dtype)
        for i, g in enumerate(upstream):
            dlogits[i, : lengths[i]] = g
        ref_grads = reference_backward(dlogits, state, model)
        assert list(grads) == list(ref_grads)
        assert all(grads[name].shape == g.shape and grads[name].dtype == g.dtype for name, g in ref_grads.items())
        assert _max_rel_err([grads[name] for name in ref_grads], list(ref_grads.values())) <= tol


class TestBatchesSideBySide:
    """k batches in one no-cache forward against one forward per batch."""

    @settings(max_examples=60, deadline=None)
    @given(
        layers=st.integers(1, 3),
        hidden=st.integers(1, 8),
        projection=st.booleans(),
        batch=st.integers(1, 5),
        k=st.integers(1, 5),
        max_len=st.integers(1, 9),
        dtype=st.sampled_from(["float64", "float32"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_each_batch_equals_its_own_forward_bit_for_bit(self, layers, hidden, projection, batch, k, max_len,
                                                           dtype, seed):
        cfg = ModelConfig(input_dim=3, output_dim=4, num_layers=layers, hidden_per_direction=hidden,
                          projection_dim=1 if projection else 0, dtype=dtype)
        model = init_model(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        lengths = rng.integers(1, max_len + 1, size=(k, batch))
        feats = np.zeros((k * batch, lengths.max(), 3))  # as long as the longest batch
        expected = []
        for j, own_lengths in enumerate(lengths):
            own = rng.normal(size=(batch, own_lengths.max(), 3))
            feats[j * batch : (j + 1) * batch, : own_lengths.max()] = own
            expected += model_forward(own, own_lengths, model)[0]
        lattices, cache = model_forward(feats, lengths.ravel(), model, batch_size=batch)
        assert cache is None
        assert all(np.array_equal(a.values, b.values) for a, b in zip(lattices, expected, strict=True))

    def test_batch_size_must_divide_the_rows_and_a_training_forward_runs_one_batch(self):
        model = tiny_model()
        with pytest.raises(BadShape, match="^batch_size=2 must divide the 3 rows"):
            model_forward(np.zeros((3, 2, 5)), [2, 2, 2], model, batch_size=2)
        with pytest.raises(BadShape, match="^batch_size=1 must divide the 2 rows, and a training forward runs one"):
            model_forward(np.zeros((2, 2, 5)), [2, 2], model, rng=np.random.default_rng(0), batch_size=1)


class TestFloat32:
    def test_float32_end_to_end(self, monkeypatch):
        cfg = ModelConfig(input_dim=5, output_dim=6, num_layers=2, hidden_per_direction=4,
                          projection_dim=3, dropout_rate=0.25, dtype="float32")
        model = init_model(cfg, np.random.default_rng(0))
        seen = []
        lattice = network.PosteriorLattice

        def recording_lattice(values, kind):
            seen.append(values.dtype)  # the logits as the network computed them
            return lattice(values, kind)

        monkeypatch.setattr(network, "PosteriorLattice", recording_lattice)
        feats = np.random.default_rng(1).normal(size=(2, 4, 5))
        _, cache = model_forward(feats, [4, 3], model, rng=np.random.default_rng(2))
        assert seen == [np.float32, np.float32]
        buffers = [*cache.head_inputs, cache.logits]
        for layer in cache.directions:
            buffers += [layer.x, layer.gates, layer.c, layer.h]
        assert all(b.dtype == np.float32 for b in buffers)
        masks = [m for m in cache.dropout_masks if m is not None]
        assert len(masks) == 1 and all(m.dtype == np.bool_ for m in masks)
        for i, g in enumerate([np.ones((4, 6)), np.ones((3, 6))]):
            cache.slot(i)[...] = g
        grads = model_backward(cache)
        assert all(g.dtype == np.float32 for g in grads.values())

    def test_float32_lattices_are_views_of_the_logits(self):
        cfg = ModelConfig(input_dim=5, output_dim=6, num_layers=2, hidden_per_direction=4,
                          projection_dim=3, dropout_rate=0.25, dtype="float32")
        model = init_model(cfg, np.random.default_rng(0))
        feats = np.random.default_rng(1).normal(size=(2, 4, 5))
        lattices, cache = model_forward(feats, [4, 3], model, rng=np.random.default_rng(2))
        for lattice in lattices:
            assert lattice.values.dtype == np.float32
            assert np.shares_memory(lattice.values, cache.logits)
            # CTC reads the float32 values in float64, as from a float64 copy
            a = ctc_loss(lattice, [1, 2])
            b = ctc_loss(PosteriorLattice(lattice.values.astype(np.float64), LOGITS), [1, 2])
            assert a.log_loss == b.log_loss and np.array_equal(a.grad, b.grad)
