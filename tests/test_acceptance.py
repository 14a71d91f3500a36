"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The end-to-end training criteria are seed-fixed and
deterministic; the whole module takes a few minutes, dominated by the
2000-utterance training run.
"""

import itertools
import math
import time

import numpy as np

from a2w.alphabet import (
    JointAlphabet,
    UNK_WORD,
    build_charset,
    build_sar_targets,
    build_vocabulary,
    spell_word,
)
from a2w.checkpoint import load_checkpoint, save_checkpoint
from a2w.config import TrainConfig
from a2w.ctc import (
    LOGITS,
    PROBABILITIES,
    PosteriorLattice,
    ctc_loss,
    min_frames_for,
)
from a2w.decoder import (
    decode_utterances,
    one_hot_lattice,
    sar_decode_chars,
    sar_decode_switched,
    sar_decode_word,
)
from a2w.network import Model, ModelConfig, init_model, model_backward, model_forward
from a2w.pipeline import SynthSpec, Utterance, sort_and_batch, synth_corpus
from a2w.scoring import corpus_wer, wer
from a2w.trainer import OptimizerState, lr_at, nesterov_step, prepare_corpus, run_training
from oracles import brute_force_min_edits, ctc_brute_force, ctc_grad_check


def report(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS  ({text})", flush=True)


# criterion 6 configuration, frozen after tuning; see notes on the init
# gain: a cold 6-layer stack needs roughly unit forward gain to leave the
# uniform-output CTC plateau within the epoch budget
E2E_SPEC = SynthSpec(
    vocab_size=20, feature_dim=8, min_frames=4, max_frames=8,
    min_words=2, max_words=5, noise=0.1, proto_seed=42,
)
E2E_CONFIG = dict(
    layers=6, hidden=32, projection=32, dropout=0.25, epochs=30, flat_epochs=20,
    lr=0.03, grad_clip=2.0, batch_size=4, seed=5, min_count=1,
    init="uniform-fan-in-gain:3",
)


def heldout_wer(trained, heldout, cfg):
    prepared = prepare_corpus(heldout, cfg)
    rows = decode_utterances(
        trained.model, prepared, trained.space.vocab,
        joint=trained.space.joint, mode="word", batch_size=16,
    )
    refs = {u.id: list(u.transcript) for u in heldout}
    return corpus_wer(refs, {utt_id: words for utt_id, words, _ in rows})


def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 1000:
        t = int(rng.integers(1, 9))
        k = int(rng.integers(2, 6))
        l = int(rng.integers(0, 4))
        y = [int(v) for v in rng.integers(1, k, size=l)]
        if rng.random() < 0.5:
            lattice = PosteriorLattice(rng.dirichlet(np.ones(k), size=t), PROBABILITIES)
        else:
            lattice = PosteriorLattice(rng.normal(size=(t, k)), LOGITS)
        brute = ctc_brute_force(lattice, y)
        if t < min_frames_for(y):
            assert brute == -math.inf
            continue
        dp = -ctc_loss(lattice, y).log_loss
        worst = max(worst, abs(dp - brute))
        assert abs(dp - brute) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    report(1, f"1000 instances, max |dp - brute| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_ctc_gradient_check():
    rng = np.random.default_rng(20240502)
    checked = 0
    worst = 0.0
    while checked < 100:
        t = int(rng.integers(1, 7))
        k = int(rng.integers(2, 6))
        l = int(rng.integers(0, 4))
        y = [int(v) for v in rng.integers(1, k, size=l)]
        if t < min_frames_for(y):
            continue
        lattice = PosteriorLattice(rng.normal(size=(t, k)), LOGITS)
        err = ctc_grad_check(lattice, y, step=1e-5)
        worst = max(worst, err)
        assert err <= 1e-4
        checked += 1
    report(2, f"100 lattices, max relative error = {worst:.2e}")


def test_criterion_3_full_model_gradient_check():
    cfg = ModelConfig(
        input_dim=5, output_dim=6, num_layers=1, hidden_per_direction=4,
        projection_dim=3, dropout_rate=0.25,
    )
    model = init_model(cfg, np.random.default_rng(31))
    rng = np.random.default_rng(32)
    feats = rng.normal(size=(2, 3, 5))
    lengths = [3, 2]
    targets = [[1, 2], [3]]
    mask_seed = 77  # identical dropout masks for every evaluation

    def loss_and_grads(params):
        probe = Model(cfg, params)
        lattices, cache = model_forward(feats, lengths, probe, rng=np.random.default_rng(mask_seed))
        total = 0.0
        for i, (lat, y) in enumerate(zip(lattices, targets)):
            result = ctc_loss(lat, y)
            total += result.log_loss
            cache.slot(i)[...] = result.grad
        return total, model_backward(cache)

    _, grads = loss_and_grads(model.params)
    step = 1e-4
    worst = 0.0
    for name, param in model.params.items():
        for idx in range(param.size):
            hi = {k: v.copy() for k, v in model.params.items()}
            hi[name].ravel()[idx] += step
            lo = {k: v.copy() for k, v in model.params.items()}
            lo[name].ravel()[idx] -= step
            numeric = (loss_and_grads(hi)[0] - loss_and_grads(lo)[0]) / (2 * step)
            analytic = grads[name].ravel()[idx]
            worst = max(worst, abs(analytic - numeric) / max(1.0, abs(analytic)))
    assert worst <= 1e-3
    report(3, f"{sum(p.size for p in model.params.values())} parameters, max relative error = {worst:.2e}")


def test_criterion_4_nesterov_exactness():
    def quad(params):
        theta = params["theta"]
        return float(0.5 * np.sum(theta**2)), {"theta": theta.copy()}

    params = {"theta": np.array([1.0])}
    state = OptimizerState.zeros_like(params, rho=0.9)
    nesterov_step(params, quad, state, lr=0.1)
    nesterov_step(params, quad, state, lr=0.1)
    assert abs(params["theta"][0] - 0.711) <= 1e-12

    rng = np.random.default_rng(41)
    start = rng.normal(size=11)
    momentum_off = {"theta": start.copy()}
    state0 = OptimizerState.zeros_like(momentum_off, rho=0.0)
    reference = start.copy()
    for _ in range(100):
        nesterov_step(momentum_off, quad, state0, lr=0.03)
        reference = reference - 0.03 * reference
    np.testing.assert_array_equal(momentum_off["theta"], reference)
    report(4, "theta2 = 0.711 within 1e-12; rho=0 bitwise-equal to SGD over 100 steps")


def test_criterion_5_lr_schedule():
    base = 0.01
    cfg = TrainConfig(lr=base, flat_epochs=10)
    expected = {
        1: base,
        10: base,
        11: base * math.sqrt(0.5),
        12: base * 0.5,
        20: base * 0.5**5,
    }
    for epoch, value in expected.items():
        got = lr_at(epoch, cfg)
        assert abs(got - value) / value <= 1e-15, (epoch, got, value)
    report(5, "epochs {1,10,11,12,20} exact within 1e-15 relative")


def test_criterion_6_toy_end_to_end(tmp_path):
    train_utts = synth_corpus(E2E_SPEC, 2000, seed=11)
    heldout = synth_corpus(E2E_SPEC, 200, seed=22, id_prefix="held")
    cfg = TrainConfig(**E2E_CONFIG)
    started = time.perf_counter()
    run, trained = run_training(cfg, train_utts, heldout, tmp_path / "e2e")
    elapsed = time.perf_counter() - started
    result = heldout_wer(trained, heldout, cfg)
    assert result.wer <= 2.0, str(result)
    assert len(run.records) <= 30
    assert elapsed <= 600.0
    report(6, f"heldout {result}, {len(run.records)} epochs, {elapsed:.0f}s")


def test_criterion_7_curriculum_trend(tmp_path):
    # hard part: with full batches, the sorted orders never pad more than a
    # random shuffle (total padded cells; equal between the two sorted orders)
    rng = np.random.default_rng(71)
    feat = np.zeros((1, 1))
    for trial in range(100):
        batch_size = int(rng.integers(2, 6))
        count = int(rng.integers(2, 8)) * batch_size
        utts = [
            Utterance(id=f"u{i:03d}", features=np.zeros((int(n), 1)), transcript=("W",))
            for i, n in enumerate(rng.integers(1, 50, size=count))
        ]

        def total_cells(order, seed=0):
            batches = sort_and_batch(utts, order, batch_size, seed)
            return sum(b.size * b.max_frames for b in batches)

        ascending = total_cells("ascending")
        assert ascending <= total_cells("random", 1000 + trial)
        assert ascending == total_cells("descending")

    # soft part: mean heldout WER ascending <= descending over 3 seeds
    spec = SynthSpec(vocab_size=10, feature_dim=8, min_frames=4, max_frames=8,
                     min_words=2, max_words=6, proto_seed=13)
    train_utts = synth_corpus(spec, 320, seed=31)
    heldout = synth_corpus(spec, 120, seed=32, id_prefix="held")
    means = {}
    for order in ("ascending", "descending"):
        wers = []
        for seed in (101, 102, 103):
            cfg = TrainConfig(layers=2, hidden=24, projection=16, dropout=0.1, epochs=10,
                              flat_epochs=10, lr=0.02, grad_clip=2.0, batch_size=8,
                              seed=seed, min_count=1, order=order,
                              init="uniform-fan-in-gain:2")
            _, trained = run_training(cfg, train_utts, heldout, tmp_path / f"{order}-{seed}")
            wers.append(heldout_wer(trained, heldout, cfg).wer)
        means[order] = sum(wers) / len(wers)
    if means["ascending"] <= means["descending"]:
        report(7, f"waste inequality on 100 sets; mean WER asc {means['ascending']:.2f}% <= desc {means['descending']:.2f}%")
    else:
        print(
            f"[acceptance] criterion 7: FLAG  soft curriculum trend not reproduced "
            f"(asc {means['ascending']:.2f}% > desc {means['descending']:.2f}%); "
            f"padding-waste inequality held on all 100 sets",
            flush=True,
        )


def test_criterion_8_dropout_overfit_signature(tmp_path):
    spec = SynthSpec(vocab_size=10, feature_dim=6, min_frames=4, max_frames=8,
                     min_words=2, max_words=5, noise=0.5, proto_seed=23)
    train_utts = synth_corpus(spec, 120, seed=41)
    heldout = synth_corpus(spec, 100, seed=42, id_prefix="held")
    gaps = {}
    for dropout in (0.0, 0.25):
        cfg = TrainConfig(layers=2, hidden=24, projection=16, dropout=dropout, epochs=22,
                          flat_epochs=22, lr=0.02, grad_clip=2.0, batch_size=8, seed=9,
                          min_count=1, init="uniform-fan-in-gain:2")
        run, _ = run_training(cfg, train_utts, heldout, tmp_path / f"do{dropout}")
        losses = [r.heldout_loss for r in run.records]
        gaps[dropout] = losses[-1] / min(losses)
    assert gaps[0.0] >= 1.01, gaps
    assert gaps[0.25] < gaps[0.0], gaps
    report(8, f"final/min heldout loss: {gaps[0.0]:.3f} without dropout vs {gaps[0.25]:.3f} with 0.25")


def test_criterion_9_sar_round_trip():
    rng = np.random.default_rng(91)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = set()
    while len(words) < 220:
        length = int(rng.integers(1, 9))
        words.add("".join(rng.choice(letters, size=length)).upper())
    words = sorted(words)
    in_vocab, oov_pool = words[:200], words[200:]
    vocab = build_vocabulary([" ".join(in_vocab)], min_count=1)
    joint = JointAlphabet(vocab=vocab, charset=build_charset("positional"))

    for word in in_vocab:
        lattice = one_hot_lattice(list(build_sar_targets([word], joint).labels), joint.size)
        assert sar_decode_word(lattice, joint.vocab) == [word]
        chars = sar_decode_chars(lattice, joint)
        assert chars.words == [word]
        expected_spelling = tuple(
            joint.charset.symbol_of(i).text for i in spell_word(word, joint.charset)
        )
        assert chars.entries[0].spelling == expected_spelling
        assert sar_decode_switched(lattice, joint).words == sar_decode_word(lattice, joint.vocab)

    # transcripts mixing vocabulary words with injected OOVs
    oov_checked = 0
    for _ in range(50):
        length = int(rng.integers(1, 6))
        transcript, has_oov = [], []
        for _ in range(length):
            if rng.random() < 0.3:
                transcript.append(oov_pool[int(rng.integers(len(oov_pool)))])
                has_oov.append(True)
            else:
                transcript.append(in_vocab[int(rng.integers(len(in_vocab)))])
                has_oov.append(False)
        lattice = one_hot_lattice(list(build_sar_targets(transcript, joint).labels), joint.size)
        word_decode = sar_decode_word(lattice, joint.vocab)
        switched = sar_decode_switched(lattice, joint)
        assert word_decode == [UNK_WORD if oov else w for w, oov in zip(transcript, has_oov)]
        assert switched.words == transcript  # spelling fallback recovers OOVs
        oov_checked += sum(has_oov)
    assert oov_checked > 0
    report(9, f"200-word fuzzed vocabulary, all three decodes; {oov_checked} OOV tokens recovered by spelling")


def test_criterion_10_wer_oracle_exhaustive():
    tokens = ("A", "B", "C")
    sequences = [seq for length in range(6) for seq in itertools.product(tokens, repeat=length)]
    pairs = 0
    for ref in sequences:
        for hyp in sequences:
            if not ref and hyp:
                continue
            assert wer(list(ref), list(hyp)).errors == brute_force_min_edits(ref, hyp)
            pairs += 1
    report(10, f"{pairs} pairs up to length 5 over a 3-symbol alphabet")


def test_criterion_11_checkpoint_determinism(tmp_path):
    spec = SynthSpec(vocab_size=5, feature_dim=4, min_words=1, max_words=3, proto_seed=1)
    train_utts = synth_corpus(spec, 24, seed=2)
    heldout = synth_corpus(spec, 8, seed=3, id_prefix="held")
    toy = dict(layers=1, hidden=6, projection=4, dropout=0.1, batch_size=8,
               lr=0.005, seed=77, min_count=1, deltas=False, stacking=False)

    full, _ = run_training(TrainConfig(**toy, epochs=5), train_utts, heldout, tmp_path / "full")
    ckpt_path = full.checkpoint_paths[-1]
    reloaded = load_checkpoint(ckpt_path)
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(reloaded, resaved)
    import pathlib

    assert pathlib.Path(ckpt_path).read_bytes() == resaved.read_bytes()

    run_training(TrainConfig(**toy, epochs=3), train_utts, heldout, tmp_path / "split")
    resumed, _ = run_training(
        TrainConfig(**toy, epochs=5), train_utts, heldout, tmp_path / "split",
        resume_from=tmp_path / "split" / "epoch003.ckpt",
    )
    tail = [r.deterministic_fields() for r in resumed.records]
    assert tail == [r.deterministic_fields() for r in full.records[3:]]
    report(11, "save/load/save byte-identical; 5 epochs == 3 + 2 resumed")
