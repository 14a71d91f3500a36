"""Recipe ablation harness: train one model per (recipe variant, seed),
score the heldout split, and tabulate.

The standard sweep removes one ingredient at a time from the base recipe:
data order, momentum, dropout, the output projection, warm starting, and
one layer of depth ("small" model). A variant whose config equals an
earlier one's (e.g. ``no-warm`` when the base does not warm-start) is
skipped.
"""

from __future__ import annotations

import csv
import dataclasses
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .config import TrainConfig
from .pipeline import Utterance
from .scoring import corpus_wer
from .trainer import run_training


def _with(**edit) -> Callable[[TrainConfig], TrainConfig]:
    return lambda cfg: dataclasses.replace(cfg, **edit)


# CLI alias -> the edit that variant makes to the base recipe. Every variant
# starts from the base with its seed set and ``order="ascending"`` pinned.
VARIANTS: dict[str, Callable[[TrainConfig], TrainConfig]] = {
    "full": _with(),
    "descending": _with(order="descending"),
    "random": _with(order="random"),
    "no-momentum": _with(momentum=0.0),
    "no-dropout": _with(dropout=0.0),
    "no-projection": _with(projection=0),
    "small": lambda cfg: dataclasses.replace(cfg, layers=max(1, cfg.layers - 1)),
    "no-warm": _with(warm_ckpt=""),
}


def variant_config(alias: str, base: TrainConfig, seed: int) -> TrainConfig:
    return VARIANTS[alias](dataclasses.replace(base, seed=seed, order="ascending"))


def default_aliases(base: TrainConfig) -> list[str]:
    """Every alias whose config differs from all earlier ones."""
    configs = [variant_config(alias, base, base.seed) for alias in VARIANTS]
    return [alias for i, alias in enumerate(VARIANTS) if configs[i] not in configs[:i]]


@dataclass
class AblationCell:
    spec_name: str
    seed: int
    wer: float = float("nan")
    final_heldout: float = float("nan")
    best_epoch: int = -1
    error: str = ""


# (table.csv header, table.txt header, table.txt width and format) of each
# column after the spec name
COLUMNS = (
    ("mean_wer", "mean_wer", 8, ".3f"),
    ("wer_spread", "spread", 6, ".3f"),  # max - min over seeds
    ("mean_final_heldout", "heldout", 8, ".4f"),
    ("mean_best_epoch", "best_ep", 7, ".1f"),
    ("failures", "fail", 4, "d"),
)
AblationRow = namedtuple("AblationRow", ["spec_name", *(name for name, *_ in COLUMNS)])


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
                mean_heldout = sum(c.final_heldout for c in good) / len(good)
                mean_best = sum(c.best_epoch for c in good) / len(good)
                row = (sum(wers) / len(wers), max(wers) - min(wers), mean_heldout, mean_best, len(cells) - len(good))
            else:
                row = (float("inf"), 0.0, float("inf"), -1, len(cells))
            rows.append(AblationRow(name, *row))
        return sorted(rows, key=lambda r: (r.mean_wer, r.spec_name))

    def render_text(self) -> str:
        rows = self.rows()
        width = max([len(r.spec_name) for r in rows] + [4])
        lines = ["  ".join([f"{'spec':<{width}}", *(f"{title:<{w}}" for _, title, w, _ in COLUMNS)])]
        for r in rows:
            cells = (f"{value:{w}{fmt}}" for value, (_, _, w, fmt) in zip(r[1:], COLUMNS))
            lines.append("  ".join([f"{r.spec_name:<{width}}", *cells]))
        return "\n".join(lines)

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["spec", *(name for name, *_ in COLUMNS)])
            writer.writerows(self.rows())


def run_ablation(
    base: TrainConfig,
    aliases: Sequence[str],
    train_utts: Sequence[Utterance],
    heldout_utts: Sequence[Utterance],
    out_dir: str | Path,
    seeds: Sequence[int],
) -> AblationResult:
    """Train and score every (variant, seed) cell; failures are recorded and
    the sweep continues. Each cell gets its own run directory, so two
    aliases giving the same config are rejected before anything trains."""
    configs = [variant_config(alias, base, base.seed) for alias in aliases]
    for i, cfg in enumerate(configs):
        if cfg in configs[:i]:
            twin = aliases[configs.index(cfg)]
            raise ValueError(f"ablation variants {twin!r} and {aliases[i]!r} give the same config; each must differ")
    out_dir = Path(out_dir)
    cells = []
    refs = {u.id: list(u.transcript) for u in heldout_utts}
    for alias in aliases:
        for seed in seeds:
            cell = AblationCell(spec_name=alias, seed=seed)
            try:
                cfg = variant_config(alias, base, seed)
                run_dir = out_dir / alias / f"seed{seed}"
                run, trained = run_training(cfg, train_utts, heldout_utts, run_dir)
                cell.wer = corpus_wer(refs, {utt_id: words for utt_id, words, _ in trained.decode(heldout_utts)}).wer
                cell.final_heldout = run.records[-1].heldout_loss
                cell.best_epoch = run.best_heldout_epoch()
            except Exception as exc:  # keep sweeping, report per cell
                cell.error = f"{type(exc).__name__}: {exc}"
            cells.append(cell)
    return AblationResult(cells=cells)
