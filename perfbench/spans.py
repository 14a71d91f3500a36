"""Spans and counters recorded from outside the program.

The traced run replaces module attributes that a2w looks up at call time
(``a2w.trainer.model_forward`` and so on) with wrappers that record one
span per call: name, start, end, parent span and run id. Spans stay in
memory and are written out when the benchmark ends. Counters are recorded
at the same call boundaries, so ratios such as padding waste are measured
where the work happens. An untraced run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.run_id))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.run_id][name] += amount

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans],
            "counts": {str(run): dict(c) for run, c in self.counts.items()},
        }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[idx], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


# -- counters recorded at the wrapped boundaries ---------------------------


def _count_batches(tracer: Tracer, args, batches) -> None:
    tracer.count("pipeline.batches", len(batches))
    for batch in batches:
        slots = batch.size * batch.max_frames
        tracer.count("pipeline.slots", slots)
        tracer.count("pipeline.unused_slots", slots - int(batch.lengths.sum()))


def _count_forward(tracer: Tracer, args, result) -> None:
    batch, t_max = args[0].shape[:2]
    tracer.count("network.forward_slots", batch * t_max)


def _count_ctc(tracer: Tracer, args, result) -> None:
    lattice, target = args[0], args[1]
    tracer.count("ctc.cells", lattice.num_frames * (2 * len(target) + 1))
    if not math.isfinite(result.log_loss):
        tracer.count("ctc.nonfinite")


def _count_collapse(tracer: Tracer, args, labels) -> None:
    tracer.count("decoder.labels_emitted", len(labels))


def _count_wer(tracer: Tracer, args, report) -> None:
    tracer.count("scoring.dp_cells", len(args[0]) * len(args[1]))


def _count_save(tracer: Tracer, args, result) -> None:
    tracer.count("checkpoint.save_bytes", os.path.getsize(args[1]))


# (module, attribute, span name, counter): the call-time lookups a2w makes.
TARGETS = [
    ("a2w.trainer", "sort_and_batch", "pipeline.sort_and_batch", _count_batches),
    ("a2w.trainer", "model_forward", "network.model_forward", _count_forward),
    ("a2w.trainer", "ctc_loss", "ctc.ctc_loss", _count_ctc),
    ("a2w.trainer", "model_backward", "network.model_backward", None),
    ("a2w.trainer", "clip_global_norm", "trainer.clip_global_norm", None),
    ("a2w.trainer", "nesterov_step", "trainer.nesterov_step", None),
    ("a2w.trainer", "evaluate_loss", "trainer.evaluate_loss", None),
    ("a2w.trainer", "save_checkpoint", "checkpoint.save_checkpoint", _count_save),
    ("a2w.decoder", "sort_and_batch", "pipeline.sort_and_batch", _count_batches),
    ("a2w.decoder", "model_forward", "network.model_forward", _count_forward),
    ("a2w.decoder", "greedy_collapse", "decoder.greedy_collapse", _count_collapse),
    ("a2w.decoder", "sar_decode_switched", "decoder.sar_decode_switched", None),
    ("a2w.scoring", "wer", "scoring.wer", _count_wer),
]


@contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers in for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer metrics ------------------------------------------------------

# per-layer metric -> unit
PER_LAYER = {
    "pipeline.batch_ms": "ms",
    "pipeline.batches": "count",
    "pipeline.padding_waste": "ratio",
    "network.forward_ms": "ms",
    "network.forward_calls": "count",
    "network.forward_slots": "count",
    "network.backward_ms": "ms",
    "ctc.loss_ms": "ms",
    "ctc.calls": "count",
    "ctc.cells": "count",
    "ctc.nonfinite": "count",
    "trainer.steps": "count",
    "trainer.step_ms": "ms",
    "trainer.optimizer_self_ms": "ms",
    "trainer.clip_ms": "ms",
    "trainer.eval_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.save_bytes": "bytes",
    "checkpoint.load_ms": "ms",
    "decoder.decode_ms": "ms",
    "decoder.sar_switched_ms": "ms",
    "decoder.collapse_ms": "ms",
    "decoder.labels_emitted": "count",
    "scoring.wer_ms": "ms",
    "scoring.dp_cells": "count",
}

# per-layer metric -> span whose inclusive time (ms) it reports
_INCLUSIVE_MS = {
    "pipeline.batch_ms": "pipeline.sort_and_batch",
    "network.forward_ms": "network.model_forward",
    "network.backward_ms": "network.model_backward",
    "ctc.loss_ms": "ctc.ctc_loss",
    "trainer.step_ms": "trainer.nesterov_step",
    "trainer.clip_ms": "trainer.clip_global_norm",
    "trainer.eval_ms": "trainer.evaluate_loss",
    "checkpoint.save_ms": "checkpoint.save_checkpoint",
    "checkpoint.load_ms": "checkpoint.load_checkpoint",
    "decoder.decode_ms": "decoder.decode_utterances",
    "decoder.sar_switched_ms": "decoder.sar_decode_switched",
    "decoder.collapse_ms": "decoder.greedy_collapse",
    "scoring.wer_ms": "scoring.wer",
}

# per-layer metric -> span whose call count it reports
_CALLS = {
    "network.forward_calls": "network.model_forward",
    "ctc.calls": "ctc.ctc_loss",
    "trainer.steps": "trainer.nesterov_step",
}


def layer_metrics(tracer: Tracer, run_id: int) -> dict[str, float]:
    """Every per-layer metric for one traced run id; absent layers read 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, self_s in zip(spans, selfs):
        if span.run_id == run_id:
            inclusive[span.name] += span.duration
            own[span.name] += self_s
            calls[span.name] += 1
    counts = tracer.counts[run_id]
    out = {metric: 1e3 * inclusive[name] for metric, name in _INCLUSIVE_MS.items()}
    out.update({metric: calls[name] for metric, name in _CALLS.items()})
    out["trainer.optimizer_self_ms"] = 1e3 * own["trainer.nesterov_step"]
    slots = counts.get("pipeline.slots", 0)
    out["pipeline.padding_waste"] = counts.get("pipeline.unused_slots", 0) / slots if slots else 0.0
    for name in ("pipeline.batches", "network.forward_slots", "ctc.cells", "ctc.nonfinite",
                 "checkpoint.save_bytes", "decoder.labels_emitted", "scoring.dp_cells"):
        out[name] = counts.get(name, 0)
    return {name: out[name] for name in PER_LAYER}
