"""Flat key=value run configuration, shared by the trainer and the CLI.

A config file holds one ``key=value`` per line ('#' starts a comment);
every key can also be overridden by a CLI flag of the same name. Each
``TrainConfig`` field sets its key's type, default and rule, and every
way a config is built (a config file line, a CLI flag, a checkpoint's
config record, an ablation variant, a Python call) rejects a bad value
with one error naming the key and the value: ``lr=-1.0: must be finite
and > 0``. seed, deltas, stacking and warm_ckpt take any value of their
type.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .alphabet import CHARSETS
from .network import init_gain
from .pipeline import ORDERS


def _rule(default, text: str, test: Callable):
    """A config key's field: its default, and its rule in words and as a
    test. A test that raises ValueError fails the value."""
    return field(default=default, metadata={"rule": (text, test)})


def _one_of(default: str, names):
    return _rule(default, "one of " + ", ".join(names), lambda v: v in names)


def _fraction(default: float):
    return _rule(default, "in [0, 1)", lambda v: 0 <= v < 1)


def _at_least(default: int, low: int):
    return _rule(default, f">= {low}", lambda v: v >= low)


@dataclass(frozen=True)
class TrainConfig:
    # model
    layers: int = _at_least(6, 1)
    hidden: int = _at_least(512, 1)
    projection: int = _at_least(256, 0)  # 0 disables the output bottleneck
    dropout: float = _fraction(0.25)
    grad_clip: float = _rule(0.0, "finite and >= 0", lambda v: 0 <= v < math.inf)  # max global gradient norm, 0 = off
    init: str = _rule("uniform-fan-in", "uniform-fan-in or uniform-fan-in-gain:G with finite G > 0", init_gain)
    dtype: str = _one_of("float64", ("float64", "float32"))
    # optimization
    lr: float = _rule(0.01, "finite and > 0", lambda v: 0 < v < math.inf)
    momentum: float = _fraction(0.9)
    flat_epochs: int = _at_least(10, 0)
    epochs: int = _at_least(30, 1)
    batch_size: int = _at_least(16, 1)
    order: str = _one_of("ascending", ORDERS)
    seed: int = 1234
    # data and targets
    deltas: bool = True
    stacking: bool = True
    min_count: int = _at_least(1, 1)
    targets: str = _one_of("word", ("word", "sar"))  # word targets, or spell-and-recognize
    charset: str = _one_of("positional", tuple(CHARSETS))
    heldout_fraction: float = _fraction(0.05)  # 0 is a real run when a heldout corpus is given
    warm_ckpt: str = ""

    def __post_init__(self):
        for key in DEFAULTS:
            check_value(key, getattr(self, key))


DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
RULES = {f.name: f.metadata["rule"] for f in dataclasses.fields(TrainConfig) if f.metadata}


def check_value(key: str, value) -> None:
    """Raise ValueError naming the key and the value unless the value has the
    key's type, fits on one config file line if it is a string, and passes
    the key's rule."""
    kind = type(DEFAULTS[key])
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ValueError(f"{key}={value!r}: must be of type {kind.__name__}")
    if kind is str and (value != value.strip() or "#" in value or len(value.splitlines()) > 1):
        raise ValueError(f"{key}={value!r}: must be one line, without '#' or surrounding whitespace")
    text, test = RULES.get(key, ("", None))
    with contextlib.suppress(ValueError):
        if test is None or test(value):
            return
    raise ValueError(f"{key}={value!r}: must be {text}")


_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def parse_value(key: str, raw: str):
    """One config value from its text, checked against its key's rule."""
    if key not in DEFAULTS:
        raise KeyError(f"unknown config key {key!r}")
    kind = type(DEFAULTS[key])
    try:
        value = _BOOLS[raw.strip().lower()] if kind is bool else kind(raw)
    except KeyError:
        raise ValueError(f"{key}={raw!r}: must be one of {', '.join(_BOOLS)}") from None
    except ValueError as exc:
        raise ValueError(f"{key}={raw!r}: {exc}") from None
    check_value(key, value)
    return value


def config_from_items(items: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    return dataclasses.replace(base or TrainConfig(), **{key: parse_value(key, raw) for key, raw in items.items()})


def load_config(path: str | Path) -> TrainConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    cfg = TrainConfig()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        try:
            cfg = config_from_items({key.strip(): value.strip()}, cfg)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
    return cfg


def save_config(cfg: TrainConfig, path: str | Path) -> None:
    lines = [f"{key}={value}" for key, value in config_to_items(cfg).items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_to_items(cfg: TrainConfig) -> dict[str, str]:
    return {key: str(getattr(cfg, key)) for key in DEFAULTS}
