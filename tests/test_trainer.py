import json
import math
import tracemalloc

import numpy as np
import pytest

from a2w.checkpoint import load_checkpoint, save_checkpoint
from a2w.config import TrainConfig
from a2w.ctc import InfeasibleAlignment
from a2w.network import init_model
from a2w.pipeline import ASCENDING, SynthSpec, Utterance, random_order, sort_and_batch, synth_corpus
from a2w.trainer import (
    DivergedGradient,
    LrSchedule,
    OptimizerState,
    build_model_config,
    check_feasible,
    clip_global_norm,
    lr_at,
    make_checkpoint,
    model_from_checkpoint,
    nesterov_step,
    open_run,
    prepare_corpus,
    run_training,
    train,
    transform_features,
)

TOY = dict(layers=1, hidden=6, projection=4, dropout=0.1, epochs=3, batch_size=8,
           lr=0.005, seed=77, min_count=1, deltas=False, stacking=False)


def toy_corpora():
    spec = SynthSpec(vocab_size=5, feature_dim=4, min_words=1, max_words=3, proto_seed=1)
    return synth_corpus(spec, 24, seed=2), synth_corpus(spec, 8, seed=3, id_prefix="held")


class TestLrSchedule:
    def test_flat_then_decay(self):
        sched = LrSchedule(base_lr=0.01, flat_epochs=10)
        assert lr_at(5, sched) == 0.01
        assert lr_at(10, sched) == 0.01
        assert lr_at(11, sched) == pytest.approx(0.01 * math.sqrt(0.5), rel=1e-15)
        assert lr_at(12, sched) == pytest.approx(0.005, rel=1e-15)
        assert lr_at(20, sched) == pytest.approx(0.01 * 0.5**5, rel=1e-15)

    def test_non_increasing(self):
        sched = LrSchedule(base_lr=0.02, flat_epochs=4)
        rates = [lr_at(e, sched) for e in range(1, 40)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_even_offsets_are_exact_halvings(self):
        sched = LrSchedule(base_lr=0.01, flat_epochs=10)
        for k in range(0, 12):
            assert lr_at(10 + 2 * k, sched) == 0.01 * 0.5**k

    def test_epochs_one_based(self):
        with pytest.raises(ValueError):
            lr_at(0, LrSchedule())


def quadratic_grad_fn(params):
    # f(theta) = 0.5 * theta^2
    theta = params["theta"]
    return float(0.5 * np.sum(theta**2)), {"theta": theta.copy()}


class TestNesterovStep:
    def test_hand_iteration_matches(self):
        params = {"theta": np.array([1.0])}
        state = OptimizerState.zeros_like(params, rho=0.9)
        nesterov_step(params, quadratic_grad_fn, state, lr=0.1)
        assert params["theta"][0] == pytest.approx(0.9, abs=1e-15)
        assert state.velocity["theta"][0] == pytest.approx(0.1, abs=1e-15)
        nesterov_step(params, quadratic_grad_fn, state, lr=0.1)
        # v2 = 0.9*0.1 + 0.1*(0.9 + 0.09) = 0.189; theta2 = 0.9 - 0.189
        assert state.velocity["theta"][0] == pytest.approx(0.189, abs=1e-12)
        assert params["theta"][0] == pytest.approx(0.711, abs=1e-12)

    def test_rho_zero_is_bitwise_plain_sgd(self):
        rng = np.random.default_rng(0)
        start = rng.normal(size=7)
        params = {"theta": start.copy()}
        state = OptimizerState.zeros_like(params, rho=0.0)
        reference = start.copy()
        for _ in range(100):
            nesterov_step(params, quadratic_grad_fn, state, lr=0.01)
            reference = reference - 0.01 * reference
        np.testing.assert_array_equal(params["theta"], reference)

    def test_zero_gradient_scales_velocity_by_rho(self):
        def zero_grad(params):
            return 0.0, {"theta": np.zeros_like(params["theta"])}

        params = {"theta": np.array([2.0])}
        state = OptimizerState(velocity={"theta": np.array([0.5])}, rho=0.9)
        nesterov_step(params, zero_grad, state, lr=0.1)
        assert state.velocity["theta"][0] == pytest.approx(0.45)
        assert params["theta"][0] == pytest.approx(2.0 - 0.45)

        params = {"theta": np.array([2.0])}
        state = OptimizerState.zeros_like(params, rho=0.9)
        nesterov_step(params, zero_grad, state, lr=0.1)
        assert params["theta"][0] == 2.0  # unchanged iff velocity was zero

    def test_momentum_beats_plain_sgd_on_quadratic_bowl(self):
        # momentum's acceleration shows at small learning rates, where the
        # velocity effectively multiplies the step by 1/(1-rho)
        def bowl(params):
            theta = params["theta"]
            return float(0.5 * np.sum(theta**2)), {"theta": theta.copy()}

        def steps_to_converge(rho):
            params = {"theta": np.array([1.0, -1.5])}
            state = OptimizerState.zeros_like(params, rho=rho)
            for step in range(1, 2000):
                loss, _ = bowl(params)
                if loss <= 1e-6:
                    return step
                nesterov_step(params, bowl, state, lr=0.01)
            return 2000

        assert steps_to_converge(0.9) < steps_to_converge(0.0)

    def test_nonfinite_gradient_raises(self):
        def bad(params):
            return math.nan, {"theta": np.array([math.nan])}

        params = {"theta": np.array([1.0])}
        state = OptimizerState.zeros_like(params)
        with pytest.raises(DivergedGradient):
            nesterov_step(params, bad, state, lr=0.1)

    def test_nonfinite_gradient_is_named_with_clipping_on(self):
        # a NaN global norm must not spread to the finite tensors before the check
        def bad(params):
            return 0.0, clip_global_norm({"a": np.array([3.0]), "b": np.array([math.nan])}, 1.0)

        params = {"a": np.array([1.0]), "b": np.array([1.0])}
        with pytest.raises(DivergedGradient, match="non-finite gradient in b$"):
            nesterov_step(params, bad, OptimizerState.zeros_like(params), lr=0.1)

    def test_small_step_does_not_increase_batch_loss(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            start = rng.normal(size=5)
            params = {"theta": start.copy()}
            state = OptimizerState.zeros_like(params, rho=0.9)
            before, _ = quadratic_grad_fn(params)
            nesterov_step(params, quadratic_grad_fn, state, lr=1e-4)
            after, _ = quadratic_grad_fn(params)
            assert after <= before


def out_of_place_nesterov_step(params, grad_fn, state, lr):
    """The update as it was written before it ran in place: the reference
    the in-place step must equal bit for bit."""
    rho = state.rho
    lookahead = {name: params[name] + rho * state.velocity[name] for name in params}
    loss, grads = grad_fn(lookahead)
    for name in params:
        state.velocity[name] = rho * state.velocity[name] + lr * grads[name]
        params[name] = params[name] - state.velocity[name]
    return loss


class TestInPlaceStep:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("clip", [0.0, 0.5])
    def test_bitwise_equal_to_the_out_of_place_update(self, dtype, clip):
        rng = np.random.default_rng(5)
        shapes = {"a": (3, 4), "b": (2, 5, 3), "c": (7,)}
        start = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}

        def grad_fn(point):
            # a gradient that depends on the point, as a real one does
            grads = {k: np.sin(v) * 3 + v * v for k, v in point.items()}
            return float(sum(np.sum(g) for g in grads.values())), clip_global_norm(grads, clip)

        params = {k: v.copy() for k, v in start.items()}
        state = OptimizerState.zeros_like(params, rho=0.9)
        ref_params = {k: v.copy() for k, v in start.items()}
        ref_state = OptimizerState.zeros_like(ref_params, rho=0.9)
        for step in range(20):
            lr = 0.05 / (1 + step)
            _, _, loss = nesterov_step(params, grad_fn, state, lr)
            assert loss == out_of_place_nesterov_step(ref_params, grad_fn, ref_state, lr)
        for name in shapes:
            assert params[name].dtype == np.dtype(dtype)
            np.testing.assert_array_equal(params[name], ref_params[name])
            np.testing.assert_array_equal(state.velocity[name], ref_state.velocity[name])

    def test_lookahead_buffers_persist_and_alias_nothing_the_caller_holds(self):
        params = {"a": np.ones(3), "b": np.ones((2, 2))}
        state = OptimizerState.zeros_like(params)
        points = []

        def grad_fn(point):
            points.append({k: v for k, v in point.items()})
            return 0.0, {k: np.ones_like(v) for k, v in point.items()}

        nesterov_step(params, grad_fn, state, lr=0.1)
        nesterov_step(params, grad_fn, state, lr=0.1)
        for name in params:
            assert points[0][name] is points[1][name] is state.lookahead[name]
            for other in (params[name], state.velocity[name]):
                assert not np.shares_memory(state.lookahead[name], other)

    def test_clip_scales_in_place_as_a_product_would(self):
        rng = np.random.default_rng(6)
        grads = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        want = {k: g * (0.5 / total) for k, g in grads.items()}
        arrays = dict(grads)
        assert clip_global_norm(grads, 0.5) is grads
        for name, g in grads.items():
            assert g is arrays[name]
            np.testing.assert_array_equal(g, want[name])

    def test_finite_gradients_whose_sum_overflows_pass(self):
        def huge(params):
            return 0.0, {"a": np.array([1e308]), "b": np.array([1e308])}

        params = {"a": np.array([0.0]), "b": np.array([0.0])}
        nesterov_step(params, huge, OptimizerState.zeros_like(params), lr=1e-300)
        assert np.all(np.isfinite(params["a"])) and np.all(np.isfinite(params["b"]))


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 4.0])}
    clipped = clip_global_norm(grads, 1.0)
    assert np.linalg.norm(clipped["a"]) == pytest.approx(1.0)
    untouched = clip_global_norm(grads, 10.0)
    np.testing.assert_array_equal(untouched["a"], grads["a"])
    disabled = clip_global_norm(grads, 0.0)
    np.testing.assert_array_equal(disabled["a"], grads["a"])


class TestTrainLoop:
    def test_records_and_checkpoints(self, tmp_path):
        train_utts, held = toy_corpora()
        cfg = TrainConfig(**TOY)
        artifacts = run_training(cfg, train_utts, held, tmp_path)
        run = artifacts.run
        assert [r.epoch for r in run.records] == [1, 2, 3]
        assert len(run.checkpoint_paths) == 3
        lines = (tmp_path / "train_run.jsonl").read_text().splitlines()
        assert len(lines) == 3
        parsed = json.loads(lines[-1])
        assert parsed["epoch"] == 3
        assert (tmp_path / "vocab.txt").exists()
        assert (tmp_path / "config.txt").exists()

    def test_same_seed_identical_records(self, tmp_path):
        train_utts, held = toy_corpora()
        runs = []
        for name in ("a", "b"):
            artifacts = run_training(TrainConfig(**TOY), train_utts, held, tmp_path / name)
            runs.append([r.deterministic_fields() for r in artifacts.run.records])
        assert runs[0] == runs[1]

    def test_resume_equivalence(self, tmp_path):
        train_utts, held = toy_corpora()
        full_cfg = TrainConfig(**{**TOY, "epochs": 5})
        full = run_training(full_cfg, train_utts, held, tmp_path / "full")

        short_cfg = TrainConfig(**{**TOY, "epochs": 3})
        run_training(short_cfg, train_utts, held, tmp_path / "resumed")
        resumed = run_training(
            full_cfg, train_utts, held, tmp_path / "resumed",
            resume_from=tmp_path / "resumed" / "epoch003.ckpt",
        )
        tail = [r.deterministic_fields() for r in resumed.run.records]
        assert tail == [r.deterministic_fields() for r in full.run.records[3:]]
        # the records file accumulated all five epochs
        lines = (tmp_path / "resumed" / "train_run.jsonl").read_text().splitlines()
        assert [json.loads(l)["epoch"] for l in lines] == [1, 2, 3, 4, 5]

    def test_resume_from_earlier_epoch_keeps_one_record_per_epoch(self, tmp_path):
        train_utts, held = toy_corpora()
        cfg = TrainConfig(**{**TOY, "epochs": 4})
        first = run_training(cfg, train_utts, held, tmp_path)
        before = (tmp_path / "train_run.jsonl").read_text().splitlines()
        resumed = run_training(cfg, train_utts, held, tmp_path, resume_from=tmp_path / "epoch002.ckpt")
        after = (tmp_path / "train_run.jsonl").read_text().splitlines()
        assert [json.loads(l)["epoch"] for l in after] == [1, 2, 3, 4]
        assert after[:2] == before[:2]
        tail = [r.deterministic_fields() for r in resumed.run.records]
        assert tail == [r.deterministic_fields() for r in first.run.records[2:]]

    def test_checkpoint_contains_velocity_and_config(self, tmp_path):
        train_utts, held = toy_corpora()
        artifacts = run_training(TrainConfig(**TOY), train_utts, held, tmp_path)
        ckpt = load_checkpoint(artifacts.run.checkpoint_paths[-1])
        assert ckpt.epoch == 3
        assert any(k.startswith("opt.v.") for k in ckpt.tensors)
        assert ckpt.config["order"] == "ascending"
        assert int(ckpt.config["output_dim"]) == artifacts.model.config.output_dim

    def test_model_from_checkpoint_inverts_make_checkpoint(self, tmp_path):
        cfg = TrainConfig(**{**TOY, "dtype": "float32", "order": "random", "targets": "sar",
                             "grad_clip": 2.5, "warm_ckpt": "warm dir/epoch001.ckpt"})
        model = init_model(build_model_config(cfg, input_dim=4, output_dim=9), np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_checkpoint(model, OptimizerState.zeros_like(model.params), cfg, epoch=2), path)
        back_cfg, back = model_from_checkpoint(path)
        assert back_cfg == cfg
        assert back.config == model.config
        assert back.params.keys() == model.params.keys()
        for name, value in model.params.items():
            assert back.params[name].dtype == value.dtype
            np.testing.assert_array_equal(back.params[name], value)

    def test_resume_steps_the_loaded_velocity_in_place(self, tmp_path):
        # checkpoint tensors are views of the buffer the file was read into;
        # they are writable, so a resume's in-place update of the velocity
        # is the update the out-of-place code made
        train_utts, held = toy_corpora()
        run_training(TrainConfig(**{**TOY, "epochs": 1}), train_utts, held, tmp_path)
        ckpt = load_checkpoint(tmp_path / "epoch001.ckpt")
        velocity = ckpt.velocity_tensors()
        assert velocity and all(v.flags.writeable for v in velocity.values())
        params = {k: v.copy() for k, v in ckpt.model_tensors().items()}
        ref_params = {k: v.copy() for k, v in params.items()}
        ref_state = OptimizerState({k: v.copy() for k, v in velocity.items()})
        state = OptimizerState(velocity)

        def grad_fn(point):
            return 0.0, {k: np.cos(v) for k, v in point.items()}

        nesterov_step(params, grad_fn, state, lr=0.01)
        out_of_place_nesterov_step(ref_params, grad_fn, ref_state, lr=0.01)
        for name, v in velocity.items():
            assert state.velocity[name] is v
            np.testing.assert_array_equal(v, ref_state.velocity[name])
            np.testing.assert_array_equal(params[name], ref_params[name])

    def test_infeasible_utterance_reported_by_id(self):
        train_utts, _ = toy_corpora()
        cfg = TrainConfig(**{**TOY, "stacking": True})  # halve frames twice over
        prepared = prepare_corpus(prepare_corpus(train_utts, cfg), cfg)
        space_encode = lambda words: [1] * (4 * len(words))  # absurdly long targets
        with pytest.raises(InfeasibleAlignment) as err:
            check_feasible(prepared, space_encode)
        assert "utt" in str(err.value)

    def test_small_step_reduces_model_batch_loss(self):
        # one tiny momentum step on a fixed batch never increases its loss
        from a2w.ctc import ctc_loss
        from a2w.network import Model, ModelConfig, init_model, model_backward, model_forward
        from a2w.pipeline import ASCENDING, sort_and_batch

        train_utts, _ = toy_corpora()
        cfg = ModelConfig(input_dim=4, output_dim=7, num_layers=1, hidden_per_direction=6,
                          projection_dim=4, dropout_rate=0.0)
        for seed in (1, 2, 3):
            model = init_model(cfg, np.random.default_rng(seed))
            batch = sort_and_batch(train_utts, ASCENDING, 8, lambda ws: [1 + len(w) % 6 for w in ws])[0]

            def grad_fn(point):
                probe = Model(cfg, point)
                lattices, cache = model_forward(batch.features, batch.lengths, probe, rng=np.random.default_rng(0))
                total = 0.0
                for i, (lat, y) in enumerate(zip(lattices, batch.targets)):
                    res = ctc_loss(lat, y)
                    total += res.log_loss
                    cache.slot(i)[...] = res.grad
                return total, model_backward(cache)

            state = OptimizerState.zeros_like(model.params, rho=0.9)
            before, _ = grad_fn(model.params)
            nesterov_step(model.params, grad_fn, state, lr=1e-4)
            after, _ = grad_fn(model.params)
            assert after <= before

    def test_warm_start_from_checkpoint(self, tmp_path):
        train_utts, held = toy_corpora()
        first = run_training(TrainConfig(**TOY), train_utts, held, tmp_path / "src")
        warm_cfg = TrainConfig(**{**TOY, "warm_ckpt": first.run.checkpoint_paths[-1], "seed": 88})
        warm = run_training(warm_cfg, train_utts, held, tmp_path / "warm")
        cold = run_training(TrainConfig(**{**TOY, "seed": 88}), train_utts, held, tmp_path / "cold")
        assert (tmp_path / "warm" / "warm_start.txt").exists()

        # warm start reaches the cold run's best training loss in fewer epochs
        target = min(r.train_loss for r in cold.run.records)

        def epochs_to(run):
            for record in run.run.records:
                if record.train_loss <= target:
                    return record.epoch
            return len(run.run.records) + 1

        assert epochs_to(warm) < epochs_to(cold)
        assert warm.run.records[0].train_loss < cold.run.records[0].train_loss

    def test_empty_split_rejected(self, tmp_path):
        train_utts, held = toy_corpora()
        with pytest.raises(ValueError):
            run_training(TrainConfig(**TOY), train_utts, [], tmp_path)
        with pytest.raises(ValueError):
            run_training(TrainConfig(**TOY), [], held, tmp_path)


def eager_copy(utts, cfg, times=1):
    """The prepared corpus as it used to be built: transformed up front."""
    for _ in range(times):
        utts = [Utterance(u.id, transform_features(u.features, cfg), u.transcript) for u in utts]
    return utts


def encode_words(words):
    return [1 + len(w) % 5 for w in words]


class TestPreparedCorpus:
    @pytest.mark.parametrize("times", [1, 2])
    @pytest.mark.parametrize("frames", [7, 8])
    @pytest.mark.parametrize("deltas, stacking", [(False, False), (True, False), (False, True), (True, True)])
    def test_reads_equal_the_eager_transform(self, deltas, stacking, frames, times):
        rng = np.random.default_rng(frames)
        utts = [Utterance(f"u{k}", rng.normal(size=(frames + k, 3)), ("W", str(k))) for k in range(3)]
        cfg = TrainConfig(**{**TOY, "deltas": deltas, "stacking": stacking})
        prepared = utts
        for _ in range(times):
            prepared = prepare_corpus(prepared, cfg)
        for got, want in zip(prepared, eager_copy(utts, cfg, times), strict=True):
            assert (got.id, got.transcript) == (want.id, want.transcript)
            features = got.features
            assert np.array_equal(features, want.features)
            assert got.num_frames == features.shape[0] == want.num_frames

    def test_batch_features_equal_padding_of_the_eager_copy(self):
        rng = np.random.default_rng(8)
        utts = [Utterance(f"u{k:02d}", rng.normal(size=(n, 4)), ("W",) * (1 + k % 3))
                for k, n in enumerate(rng.integers(5, 30, size=11))]
        cfg = TrainConfig(**{**TOY, "deltas": True, "stacking": True})
        for order in (ASCENDING, random_order(3)):
            lazy = sort_and_batch(prepare_corpus(utts, cfg), order, 4, encode_words)
            eager = sort_and_batch(eager_copy(utts, cfg), order, 4, encode_words)
            assert len(lazy) == len(eager) == 3
            for got, want in zip(lazy, eager):
                assert (got.ids, got.targets) == (want.ids, want.targets)
                np.testing.assert_array_equal(got.lengths, want.lengths)
                assert np.array_equal(got.features, want.features)

    def test_prepared_corpus_and_batches_hold_no_transformed_copy(self):
        rng = np.random.default_rng(9)
        utts = [Utterance(f"u{k:03d}", rng.normal(size=(n, 40)), ("W",))
                for k, n in enumerate(rng.integers(50, 150, size=200))]
        cfg = TrainConfig(**{**TOY, "deltas": True, "stacking": True})
        # the 40 -> 240 front end: 3x the raw bytes, about 18 MB here
        transformed_bytes = sum(8 * 240 * ((u.num_frames + 1) // 2) for u in utts)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prepared = prepare_corpus(utts, cfg)
            batches = sort_and_batch(prepared, random_order(1), 16, encode_words)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 0.1 * transformed_bytes
        assert batches[0].features.shape[2] == 240

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_transform_that_is_not_finite_is_named(self, tmp_path):
        # raw values this large are finite, but their delta differences overflow
        train_utts, held = toy_corpora()
        source = train_utts[5]
        frames = source.features.copy()
        frames[0], frames[1] = 1e308, -1e308
        train_utts[5] = bad = Utterance(source.id, frames, source.transcript)
        cfg = TrainConfig(**{**TOY, "deltas": True})
        message = f"^{bad.id}: features must be finite$"
        with pytest.raises(ValueError, match=message):
            run_training(cfg, train_utts, held, tmp_path / "run")
        assert not (tmp_path / "run").exists()
        batch = sort_and_batch(prepare_corpus([bad], cfg), ASCENDING, 1, encode_words)[0]
        with pytest.raises(ValueError, match=message):
            batch.features

    @pytest.mark.parametrize("split", ["train", "heldout"])
    def test_utterance_of_another_width_is_named(self, tmp_path, split):
        train_utts, held = toy_corpora()
        utts = train_utts if split == "train" else held
        source = utts[-1]
        width = source.features.shape[1]
        utts[-1] = Utterance(source.id, source.features[:, :-1], source.transcript)
        with pytest.raises(ValueError, match=f"^{source.id}: features are {width - 1} wide, not {width}$"):
            run_training(TrainConfig(**TOY), train_utts, held, tmp_path / "run")
        assert not (tmp_path / "run").exists()


class TestOpenRun:
    @pytest.mark.parametrize("targets", ["word", "sar"])
    def test_reopens_what_run_training_wrote(self, tmp_path, targets):
        spec = SynthSpec(vocab_size=4, feature_dim=4, min_words=1, max_words=2, min_frames=12, max_frames=16,
                         proto_seed=1)
        train_utts, held = synth_corpus(spec, 12, seed=2), synth_corpus(spec, 4, seed=3, id_prefix="held")
        cfg = TrainConfig(**{**TOY, "epochs": 2, "targets": targets})
        artifacts = run_training(cfg, train_utts, held, tmp_path)
        back_cfg, model, space = open_run(tmp_path)
        assert back_cfg == cfg
        assert model.config == artifacts.model.config
        for name, value in artifacts.model.params.items():
            np.testing.assert_array_equal(model.params[name], value)
        assert (space.vocab, space.joint) == (artifacts.label_space.vocab, artifacts.label_space.joint)
        assert list(space.encode(held[0].transcript)) == list(artifacts.label_space.encode(held[0].transcript))
        _, first, _ = open_run(tmp_path, epoch=1)
        expected = load_checkpoint(tmp_path / "epoch001.ckpt").model_tensors()
        for name, value in expected.items():
            np.testing.assert_array_equal(first.params[name], value)

    def test_missing_checkpoint_names_the_run(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=f"{tmp_path}: no checkpoint matches epoch\\*\\.ckpt"):
            open_run(tmp_path)
        train_utts, held = toy_corpora()
        run_training(TrainConfig(**{**TOY, "epochs": 1}), train_utts, held, tmp_path)
        with pytest.raises(FileNotFoundError, match=f"{tmp_path}: no checkpoint matches epoch004\\.ckpt"):
            open_run(tmp_path, epoch=4)


def test_step_holds_at_most_one_logits_sized_array_above_the_forward_cache(tmp_path, monkeypatch):
    # With V large and H small a T x B x V array dominates the step. The CTC
    # gradients are written over the cache's logits buffer and backward uses
    # that buffer as dlogits, so from the end of the forward to the end of
    # backward the step allocates less than one more such array. (Keeping
    # the per-utterance gradients and a separate zeroed dlogits takes two.)
    import a2w.trainer as trainer

    t_max, batch, vocab = 40, 16, 2000
    rng = np.random.default_rng(0)
    utts = [Utterance(f"u{k}", rng.normal(size=(t_max, 3)), tuple(str(w) for w in rng.integers(1, vocab, size=5)))
            for k in range(batch)]
    cfg = TrainConfig(layers=1, hidden=4, projection=0, dropout=0.0, epochs=1, batch_size=batch,
                      deltas=False, stacking=False)
    model = init_model(build_model_config(cfg, 3, vocab), np.random.default_rng(1))
    marks = {}
    forward, backward = trainer.model_forward, trainer.model_backward

    def marked_forward(*args, **kwargs):
        result = forward(*args, **kwargs)
        if kwargs.get("rng") is not None:
            tracemalloc.reset_peak()
            marks["cache"] = tracemalloc.get_traced_memory()[0]
        return result

    def marked_backward(*args):
        grads = backward(*args)
        marks["peak"] = tracemalloc.get_traced_memory()[1]
        return grads

    monkeypatch.setattr(trainer, "model_forward", marked_forward)
    monkeypatch.setattr(trainer, "model_backward", marked_backward)
    tracemalloc.start()
    try:
        train(model, utts, utts[:1], cfg, tmp_path, lambda words: [int(w) for w in words])
    finally:
        tracemalloc.stop()
    assert marks["peak"] - marks["cache"] <= t_max * batch * vocab * 8
