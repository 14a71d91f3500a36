"""Flat key=value run configuration, shared by the trainer and the CLI.

A config file holds one ``key=value`` per line ('#' starts a comment);
every key can also be overridden by a CLI flag of the same name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path


@dataclass
class TrainConfig:
    # model
    layers: int = 6
    hidden: int = 512
    projection: int = 256  # 0 disables the output bottleneck
    dropout: float = 0.25
    grad_clip: float = 0.0  # max global gradient norm, 0 = off
    init: str = "uniform-fan-in"  # or uniform-fan-in-gain:<G> for cold deep stacks
    dtype: str = "float64"
    # optimization
    lr: float = 0.01
    momentum: float = 0.9
    flat_epochs: int = 10
    epochs: int = 30
    batch_size: int = 16
    order: str = "ascending"  # ascending | descending | random
    seed: int = 1234
    # data and targets
    deltas: bool = True
    stacking: bool = True
    min_count: int = 1
    targets: str = "word"  # word | sar
    charset: str = "positional"
    heldout_fraction: float = 0.05
    warm_ckpt: str = ""


def _coerce(raw: str, typ: type):
    if typ is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return typ(raw)


def config_from_items(items: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    cfg = dataclasses.replace(base) if base else TrainConfig()
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    concrete = {"int": int, "float": float, "str": str, "bool": bool}
    for key, raw in items.items():
        if key not in types:
            raise KeyError(f"unknown config key {key!r}")
        typ = types[key]
        typ = concrete[typ] if isinstance(typ, str) else typ
        setattr(cfg, key, _coerce(raw, typ))
    return cfg


def load_config(path: str | Path, base: TrainConfig | None = None) -> TrainConfig:
    cfg = dataclasses.replace(base) if base else TrainConfig()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        try:
            cfg = config_from_items({key.strip(): value.strip()}, cfg)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {stripped!r}: {exc.args[0]}") from None
    return cfg


def save_config(cfg: TrainConfig, path: str | Path) -> None:
    lines = [f"{key}={value}" for key, value in config_to_items(cfg).items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_to_items(cfg: TrainConfig) -> dict[str, str]:
    return {f.name: str(getattr(cfg, f.name)) for f in dataclasses.fields(TrainConfig)}
