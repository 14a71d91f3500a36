#!/usr/bin/env python3
"""Spell-and-recognize walkthrough.

Builds a joint word+character alphabet, constructs the interleaved target
for a transcript, then decodes a perfect lattice under all three modes,
including an out-of-vocabulary word that the word track can only call UNK
but the character track spells out. With --train it also trains a small
joint model on a synthetic corpus whose heldout split contains words never
seen with their word labels, and prints the trained model's annotated
decodes (about half a minute).

    python scripts/sar_demo.py [--transcript "THE CAT IS BLACK"] [--oov MURDERING] [--train]
"""

import argparse
import dataclasses
import tempfile

from a2w.alphabet import JointAlphabet, build_charset, build_sar_targets, build_vocabulary
from a2w.decoder import (
    one_hot_lattice,
    render_hypothesis,
    sar_decode_chars,
    sar_decode_switched,
    sar_decode_word,
)

VOCAB_CORPUS = [
    "THE CAT IS BLACK",
    "THE DOG IS SMALL",
    "A COP OR A JUDGE",
    "SUCH AS LIKE THE",
]


def label_text(joint, label):
    if joint.is_char_id(label):
        return joint.char_symbol(label).text
    return joint.vocab.word_of(label)


def trained_model_demo():
    from a2w.config import TrainConfig
    from a2w.pipeline import SynthSpec, synth_corpus
    from a2w.scoring import corpus_wer
    from a2w.trainer import run_training

    # rare pool words appear in training too, but below the vocabulary
    # threshold: their word labels collapse to UNK while their spellings
    # stay intact, which is exactly what teaches the model to spell what
    # it cannot name
    spec = SynthSpec(vocab_size=8, feature_dim=8, min_frames=10, max_frames=14,
                     min_words=1, max_words=3, oov_pool_size=6, oov_rate=0.15,
                     proto_seed=77)
    train_utts = synth_corpus(spec, 600, seed=51)
    held_spec = dataclasses.replace(spec, oov_rate=0.25)
    heldout = synth_corpus(held_spec, 60, seed=52, id_prefix="held")
    cfg = TrainConfig(layers=2, hidden=32, projection=24, dropout=0.1, epochs=14,
                      flat_epochs=14, lr=0.02, grad_clip=2.0, batch_size=8, seed=5,
                      min_count=60, targets="sar", charset="positional", stacking=False,
                      init="uniform-fan-in-gain:2")
    print("\ntraining a small joint word+character model (600 utterances)...")
    with tempfile.TemporaryDirectory() as work:
        run, trained = run_training(cfg, train_utts, heldout, work)
        print(f"  heldout loss {run.records[0].heldout_loss:.2f} -> "
              f"{run.records[-1].heldout_loss:.2f} over {cfg.epochs} epochs")
        refs = {u.id: list(u.transcript) for u in heldout}
        decodes = {}
        for mode in ("word", "chars", "switched"):
            rows = decodes[mode] = trained.decode(heldout, mode)
            report = corpus_wer(refs, {utt_id: words for utt_id, words, _ in rows})
            print(f"  {mode:<8} decode: {report}")
        vocab = trained.space.vocab
        shown = 0
        for (utt_id, word_words, _), (_, _, switched_hyp) in zip(decodes["word"], decodes["switched"]):
            if "UNK" in word_words and shown < 3:
                print(f"\n  {utt_id}  REF: {' '.join(refs[utt_id])}")
                print(f"    word decode:     {' '.join(word_words)}")
                print(f"    switched decode: {' '.join(switched_hyp.words)}")
                print(f"    annotated:       {render_hypothesis(switched_hyp)}")
                shown += 1
        oov = [w for u in heldout for w in u.transcript if w not in vocab]
        print(f"\n  {len(oov)} out-of-vocabulary tokens in the heldout references")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transcript", default="THE CAT IS BLACK")
    parser.add_argument("--oov", default="MURDERING", help="word to inject that is outside the vocabulary")
    parser.add_argument("--train", action="store_true", help="also train a small joint model and decode with it")
    args = parser.parse_args()

    vocab = build_vocabulary(VOCAB_CORPUS, min_count=1)
    joint = JointAlphabet(vocab=vocab, charset=build_charset("positional"))
    print(f"vocabulary: {len(vocab.words)} words + UNK; joint label space size {joint.size}")

    transcript = args.transcript.upper().split()
    target = build_sar_targets(transcript, joint)
    print(f"\ntarget for {' '.join(transcript)!r}:")
    print("  " + " ".join(label_text(joint, l) for l in target.labels))

    with_oov = transcript[:1] + [args.oov.upper()] + transcript[1:]
    target = build_sar_targets(with_oov, joint)
    lattice = one_hot_lattice(list(target.labels), joint.size)
    print(f"\ndecodes of a perfect lattice for {' '.join(with_oov)!r}:")
    print(f"  word:     {' '.join(sar_decode_word(lattice, joint.vocab))}")
    print(f"  chars:    {' '.join(sar_decode_chars(lattice, joint).words)}")
    switched = sar_decode_switched(lattice, joint)
    print(f"  switched: {' '.join(switched.words)}")
    print(f"\nannotated rendering:\n  {render_hypothesis(switched)}")

    if args.train:
        trained_model_demo()


if __name__ == "__main__":
    main()
