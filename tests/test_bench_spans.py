"""The benchmark's call-time contract: ``perfbench/spans.py`` times a2w by
replacing module attributes that a2w looks up when it runs. A name that a2w
binds at import instead, or stops calling, leaves its per-layer metric at 0
on working code, so every name in ``spans.TARGETS`` must be reached by a
training epoch, a switched decode and a WER score."""

import dataclasses
import sys
from pathlib import Path

import numpy as np

from a2w.config import TrainConfig
from a2w.decoder import decode_utterances
from a2w.network import init_model
from a2w.pipeline import SynthSpec, synth_corpus
from a2w.scoring import corpus_wer
from a2w.trainer import build_label_space, build_model_config, prepare_corpus, train

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_traced_name_is_reached(tmp_path):
    spec = SynthSpec(vocab_size=4, feature_dim=4, min_frames=6, max_frames=8, min_words=1, max_words=2)
    utts = synth_corpus(spec, 8, seed=3)
    cfg = TrainConfig(layers=1, hidden=4, projection=0, epochs=1, batch_size=4, min_count=1,
                      deltas=False, stacking=False)
    sar_cfg = dataclasses.replace(cfg, targets="sar")
    rng = np.random.Generator(np.random.PCG64(5))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        prepared = prepare_corpus(utts, cfg)
        space = build_label_space(prepared, cfg)
        model = init_model(build_model_config(cfg, spec.feature_dim, space.size), rng)
        train(model, prepared[:6], prepared[6:], cfg, tmp_path, space.encode)

        sar = build_label_space(prepared, sar_cfg)
        sar_model = init_model(build_model_config(sar_cfg, spec.feature_dim, sar.size), rng)
        rows = decode_utterances(sar_model, prepared, sar.vocab, joint=sar.joint, mode="switched", batch_size=4)
        corpus_wer({u.id: list(u.transcript) for u in utts}, {utt_id: words for utt_id, words, _ in rows})
    recorded = {span.name for span in tracer.spans}
    missing = sorted({name for _, _, name, _ in spans.TARGETS} - recorded)
    assert not missing, f"no span recorded for {missing}"
