"""Tests of the benchmark's own logic: self times, summaries and failure
accounting. Run with ``python -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from a2w.alphabet import build_charset  # noqa: E402
from a2w.decoder import TAG_FROM_CHARS, TAG_FROM_WORD, SarHypothesis, SarWord  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from stats import summarize  # noqa: E402


def _tree() -> Tracer:
    """train(0..100) holding one step and one heldout eval, in seconds:

    nesterov_step 0..40: forward 2..12, ctc 12..17, backward 17..32, clip 32..34
    evaluate_loss 50..80: forward 52..70, ctc 70..76
    save_checkpoint 85..90
    """
    t = Tracer()
    t.spans = [
        Span("trainer.train", 0, 100, None, 0),
        Span("trainer.nesterov_step", 0, 40, 0, 0),
        Span("network.model_forward", 2, 12, 1, 0),
        Span("ctc.ctc_loss", 12, 17, 1, 0),
        Span("network.model_backward", 17, 32, 1, 0),
        Span("trainer.clip_global_norm", 32, 34, 1, 0),
        Span("trainer.evaluate_loss", 50, 80, 0, 0),
        Span("network.model_forward", 52, 70, 6, 0),
        Span("ctc.ctc_loss", 70, 76, 6, 0),
        Span("checkpoint.save_checkpoint", 85, 90, 0, 0),
    ]
    return t


def test_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {**spans.PER_LAYER, "trace.overhead_pct": "%"}
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_self_times_subtract_covered_children():
    selfs = self_times(_tree().spans)
    assert selfs == [100 - 40 - 30 - 5, 40 - 32, 10, 5, 15, 2, 30 - 24, 18, 6, 5]


def test_self_time_counts_overlapping_children_once():
    tree = [Span("a", 0, 10, None, 0), Span("b", 1, 5, 0, 0), Span("c", 3, 8, 0, 0), Span("d", 9, 12, 0, 0)]
    assert self_times(tree)[0] == pytest.approx(10 - 7 - 1)


def test_layer_metrics_from_span_tree():
    m = layer_metrics(_tree(), 0)
    assert m["trainer.step_ms"] == 40e3
    assert m["trainer.optimizer_self_ms"] == 8e3
    assert m["trainer.eval_ms"] == 30e3
    assert m["network.forward_ms"] == 28e3  # the step's forward plus the eval's nested one
    assert m["network.forward_calls"] == 2
    assert m["ctc.loss_ms"] == 11e3 and m["ctc.calls"] == 2
    assert m["trainer.clip_ms"] == 2e3 and m["checkpoint.save_ms"] == 5e3
    assert m["trainer.steps"] == 1
    assert m["decoder.decode_ms"] == 0 and m["pipeline.padding_waste"] == 0
    assert set(m) == set(spans.PER_LAYER)


def test_layer_metrics_keep_run_ids_apart():
    t = _tree()
    t.spans.append(Span("trainer.nesterov_step", 200, 203, None, 1))
    assert layer_metrics(t, 0)["trainer.steps"] == 1
    assert layer_metrics(t, 1)["trainer.step_ms"] == pytest.approx(3e3)


def test_wrappers_record_nesting_and_restore_attributes():
    import a2w.trainer

    original = a2w.trainer.nesterov_step
    tracer = Tracer()
    with spans.installed(tracer):
        assert a2w.trainer.nesterov_step is not original
        with tracer.span("trainer.train"):
            a2w.trainer.clip_global_norm({}, 1.0)
    assert a2w.trainer.nesterov_step is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("trainer.train", None), ("trainer.clip_global_norm", 0)]


def test_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = summarize(values)
    assert s["n"] == 10
    assert s["median"] == statistics.median(values)
    assert (s["q1"], s["q3"]) == (q1, q3)
    assert s["spread"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert summarize([2.5]) == {"n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5, "spread": 0.0}
    with pytest.raises(ValueError):
        summarize([])


def test_epoch_failures():
    ref = ((1, 0.03, 2.0, 3.0), 4, "digest")
    assert workloads.epoch_failures(500, (2.0, 3.0), ref, ref, True) == 0
    assert workloads.epoch_failures(500, (math.inf, 3.0), ref, ref, True) == 500
    assert workloads.epoch_failures(500, (2.0, math.nan), ref, None, True) == 500
    assert workloads.epoch_failures(500, (2.0, 3.0), ref, ref, False) == 500
    assert workloads.epoch_failures(500, (2.0, 3.0), ((1, 0.03, 2.0, 3.1), 4, "digest"), ref, True) == 500


def test_utterance_failures_count_bad_hypotheses():
    charset = build_charset("positional")
    good = SarHypothesis((SarWord("CAT", ("b-c", "a", "e-t"), TAG_FROM_WORD),))
    spelled = SarHypothesis((SarWord("DOG", ("b-d", "o", "e-g"), TAG_FROM_CHARS),))
    reference = [("u1", ["CAT"], good), ("u2", ["DOG"], spelled), ("u3", ["CAT"], good)]
    assert workloads.utterance_failures(reference, reference, {"u1": (["CAT"], good)}, charset) == 0

    wrong_word = [("u1", ["CAT"], good), ("u2", ["DIG"], spelled), ("u3", ["CAT"], good)]
    assert workloads.utterance_failures(wrong_word, reference, {}, charset) == 1
    # a spelled word whose text disagrees with its spelling parses back as CAT
    unparsable = SarHypothesis((SarWord("DOG", ("b-c", "a", "e-t"), TAG_FROM_CHARS),))
    rows = [("u1", ["DOG"], unparsable)] + reference[1:]
    assert workloads.utterance_failures(rows, rows, {}, charset) == 1
    # batched and one-at-a-time decodes disagree
    assert workloads.utterance_failures(reference, reference, {"u3": (["DOG"], spelled)}, charset) == 1


def test_nonfinite_loss_fails_the_epochs_steps(tmp_path, monkeypatch):
    import a2w.trainer

    original = a2w.trainer.ctc_loss

    def poisoned(lattice, target):
        return dataclasses.replace(original(lattice, target), log_loss=math.nan)

    monkeypatch.setattr(a2w.trainer, "ctc_loss", poisoned)
    rep = workloads.TrainWorkload(workloads._WARM_UP, 0, tmp_path).rep(None)
    assert (rep.attempted, rep.failed) == (4, 4)


class _FakeWorkload:
    name, seed = "fake", 0

    def __init__(self, failures):
        self.failures = list(failures)
        self.setup_samples = [0.5]

    def rep(self, tracer):
        return workloads.Rep(epoch_s=1.0, utts_per_s=10.0, attempted=4, failed=self.failures.pop(0))

    def heldout_loss(self):
        return 2.0


def test_measure_counts_failed_ops():
    result = run.measure(_FakeWorkload([0, 4, 0]), seconds=0.0, trace=False)
    assert (result["attempted"], result["failed"], result["reps"]) == (8, 4, 2)
    assert set(result["metrics"]) == set(run.END_TO_END)
