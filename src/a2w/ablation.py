"""Recipe ablation harness: train one model per (component toggle, seed),
score the heldout split, and tabulate.

The standard sweep removes one ingredient at a time from the base recipe:
data order, momentum, dropout, the output projection, warm starting, and
one layer of depth ("small" model).
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .config import TrainConfig
from .decoder import decode_utterances
from .pipeline import Utterance
from .scoring import corpus_wer
from .trainer import prepare_corpus, run_training


@dataclass(frozen=True)
class AblationSpec:
    """One recipe variant; every field names the component it keeps or drops."""

    order: str = "ascending"  # ascending | descending | random
    momentum: bool = True
    dropout: bool = True
    projection: bool = True
    warm_start: bool = True
    size: str = "big"  # big | small (one fewer layer)

    @property
    def name(self) -> str:
        flags = [
            f"order-{self.order}",
            f"momentum-{'on' if self.momentum else 'off'}",
            f"dropout-{'on' if self.dropout else 'off'}",
            f"projection-{'on' if self.projection else 'off'}",
            f"warm-{'on' if self.warm_start else 'off'}",
            f"size-{self.size}",
        ]
        return "_".join(flags)

    def apply(self, base: TrainConfig, seed: int) -> TrainConfig:
        cfg = dataclasses.replace(base, seed=seed, order=self.order)
        if not self.momentum:
            cfg.momentum = 0.0
        if not self.dropout:
            cfg.dropout = 0.0
        if not self.projection:
            cfg.projection = 0
        if not self.warm_start:
            cfg.warm_ckpt = ""
        if self.size == "small":
            cfg.layers = max(1, base.layers - 1)
        elif self.size != "big":
            raise ValueError(f"unknown model size {self.size!r}")
        return cfg


def named_specs(base: TrainConfig) -> dict[str, AblationSpec]:
    """Full recipe plus one spec per removed component, keyed by CLI alias."""
    full = AblationSpec(warm_start=bool(base.warm_ckpt))
    return {
        "full": full,
        "descending": dataclasses.replace(full, order="descending"),
        "random": dataclasses.replace(full, order="random"),
        "no-momentum": dataclasses.replace(full, momentum=False),
        "no-dropout": dataclasses.replace(full, dropout=False),
        "no-projection": dataclasses.replace(full, projection=False),
        "small": dataclasses.replace(full, size="small"),
        "no-warm": dataclasses.replace(full, warm_start=False),
    }


def standard_specs(base: TrainConfig) -> list[AblationSpec]:
    """The named specs in order; ``no-warm`` only when the base warm-starts."""
    specs = named_specs(base)
    if not base.warm_ckpt:
        del specs["no-warm"]
    return list(specs.values())


@dataclass
class AblationCell:
    spec_name: str
    seed: int
    wer: float = float("nan")
    final_heldout: float = float("nan")
    best_epoch: int = -1
    error: str = ""


@dataclass
class AblationRow:
    spec_name: str
    mean_wer: float
    wer_spread: float  # max - min over seeds
    mean_final_heldout: float
    mean_best_epoch: float
    failures: int


@dataclass
class AblationResult:
    cells: list[AblationCell]

    def rows(self) -> list[AblationRow]:
        by_spec: dict[str, list[AblationCell]] = {}
        for cell in self.cells:
            by_spec.setdefault(cell.spec_name, []).append(cell)
        rows = []
        for name, cells in by_spec.items():
            good = [c for c in cells if not c.error]
            if good:
                wers = [c.wer for c in good]
                rows.append(
                    AblationRow(
                        spec_name=name,
                        mean_wer=sum(wers) / len(wers),
                        wer_spread=max(wers) - min(wers),
                        mean_final_heldout=sum(c.final_heldout for c in good) / len(good),
                        mean_best_epoch=sum(c.best_epoch for c in good) / len(good),
                        failures=len(cells) - len(good),
                    )
                )
            else:
                rows.append(AblationRow(name, float("inf"), 0.0, float("inf"), -1, len(cells)))
        rows.sort(key=lambda r: (r.mean_wer, r.spec_name))
        return rows

    def render_text(self) -> str:
        rows = self.rows()
        width = max([len(r.spec_name) for r in rows] + [4])
        lines = [f"{'spec':<{width}}  mean_wer  spread  heldout   best_ep  fail"]
        for r in rows:
            lines.append(
                f"{r.spec_name:<{width}}  {r.mean_wer:8.3f}  {r.wer_spread:6.3f}  "
                f"{r.mean_final_heldout:8.4f}  {r.mean_best_epoch:7.1f}  {r.failures:4d}"
            )
        return "\n".join(lines)

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["spec", "mean_wer", "wer_spread", "mean_final_heldout", "mean_best_epoch", "failures"])
            for r in self.rows():
                writer.writerow([r.spec_name, r.mean_wer, r.wer_spread, r.mean_final_heldout, r.mean_best_epoch, r.failures])


def run_ablation(
    base: TrainConfig,
    specs: Sequence[AblationSpec],
    train_utts: Sequence[Utterance],
    heldout_utts: Sequence[Utterance],
    out_dir: str | Path,
    seeds: Sequence[int],
) -> AblationResult:
    """Train and score every (spec, seed) cell; failures are recorded and the
    sweep continues. Each cell gets its own run directory, so two specs
    with the same name are rejected before anything trains."""
    names = [spec.name for spec in specs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"ablation specs repeat {', '.join(repeated)}; each spec must differ")
    out_dir = Path(out_dir)
    cells = []
    refs = {u.id: list(u.transcript) for u in heldout_utts}
    for spec in specs:
        for seed in seeds:
            cell = AblationCell(spec_name=spec.name, seed=seed)
            try:
                cfg = spec.apply(base, seed)
                run_dir = out_dir / spec.name / f"seed{seed}"
                artifacts = run_training(cfg, train_utts, heldout_utts, run_dir)
                prepared = prepare_corpus(heldout_utts, cfg)
                rows = decode_utterances(
                    artifacts.model,
                    prepared,
                    artifacts.label_space.vocab,
                    joint=artifacts.label_space.joint,
                    mode="word",
                    batch_size=cfg.batch_size,
                )
                report = corpus_wer(refs, {utt_id: words for utt_id, words, _ in rows})
                cell.wer = report.wer
                cell.final_heldout = artifacts.run.records[-1].heldout_loss
                cell.best_epoch = artifacts.run.best_heldout_epoch()
            except Exception as exc:  # keep sweeping, report per cell
                cell.error = f"{type(exc).__name__}: {exc}"
            cells.append(cell)
    return AblationResult(cells=cells)
