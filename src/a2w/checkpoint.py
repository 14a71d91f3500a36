"""Self-describing binary checkpoint container.

Layout, all little-endian:

    bytes 0..7    magic ``A2WCKPT1``
    bytes 8..15   uint64 byte length of the manifest text
    manifest      UTF-8 text, one record per line:
                      epoch <n>
                      config <key>=<value>    (a TrainConfig key, input_dim or output_dim)
                      tensor <name> <d0>x<d1>x... <byte offset into data>
    data          the tensors' float64 values, row-major, back to back

The epoch comes first, then config keys and tensor names ascending, each once, each
tensor's data where the one before ends; the reader requires that order, so save -> load
-> save is byte-identical. Tensors load as read-only views of the file: copy one to step it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import parse_value

MAGIC = b"A2WCKPT1"


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    config: dict[str, str] = field(default_factory=dict)
    epoch: int = 0

    def manifest_text(self) -> str:
        lines = [f"epoch {self.epoch}"]
        for key in sorted(self.config):
            lines.append(f"config {key}={self.config[key]}")
        offset = 0
        for name in sorted(self.tensors):
            tensor = self.tensors[name]
            dims = "x".join(str(d) for d in tensor.shape) or "1"
            lines.append(f"tensor {name} {dims} {offset}")
            offset += tensor.size * 8
        return "\n".join(lines) + "\n"

    def model_tensors(self) -> dict[str, np.ndarray]:
        """Parameter tensors with the ``model.`` prefix stripped."""
        return {k.removeprefix("model."): v for k, v in self.tensors.items() if k.startswith("model.")}


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Atomic write: the file appears complete or not at all.

    The header, the manifest and each tensor are streamed into a ``.tmp``
    file beside ``path``, which then replaces it; no copy of the whole
    file is built in memory.
    """
    path = Path(path)
    manifest = ckpt.manifest_text().encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(len(manifest).to_bytes(8, "little"))
        f.write(manifest)
        for name in sorted(ckpt.tensors):
            f.write(np.ascontiguousarray(ckpt.tensors[name], dtype="<f8"))
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Any malformed part of the file raises ``ValueError("<path>: ...")``.

    The tensors are read-only views of one buffer holding the file, not copies.
    """
    try:
        return _parse_checkpoint(memoryview(Path(path).read_bytes()))
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise ValueError(f"{path}: {exc}") from None


def _parse_checkpoint(raw: memoryview) -> Checkpoint:
    if raw[:8] != MAGIC:
        raise ValueError("bad magic, not a checkpoint")
    manifest_len = int.from_bytes(raw[8:16], "little")
    if 16 + manifest_len > len(raw):
        raise ValueError(f"manifest length {manifest_len} runs past the end of the file")
    manifest = str(raw[16 : 16 + manifest_len], "utf-8")
    data = raw[16 + manifest_len :]
    ckpt = Checkpoint()
    rank = {"epoch": 0, "config": 1, "tensor": 2}
    last = (-1, "")  # the (rank, name) of the record before
    offset = 0  # where the tensors read so far end
    for line in manifest.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "epoch":
            if not rest.isdecimal():
                raise ValueError(f"malformed manifest record {line!r}")
            ckpt.epoch = int(rest)
            name = ""
        elif kind == "config":
            name, sep, value = rest.partition("=")
            if not sep:
                raise ValueError(f"malformed manifest record {line!r}")
            try:
                if name not in ("input_dim", "output_dim"):
                    parse_value(name, value)
                elif not (value.isdecimal() and int(value) > 0):
                    raise ValueError(f"{name}={value!r}: must be a positive integer")
            except (KeyError, ValueError) as exc:
                raise ValueError(f"malformed manifest record {line!r}: {exc.args[0]}") from None
            ckpt.config[name] = value
        elif kind == "tensor":
            try:
                name, dims, start = rest.rsplit(" ", 2)
                shape = tuple(int(d) for d in dims.split("x"))
            except ValueError:
                raise ValueError(f"malformed manifest record {line!r}") from None
            if any(d < 1 for d in shape):
                raise ValueError(f"tensor {name} has a non-positive dimension in {dims}")
            if start != str(offset):
                raise ValueError(f"tensor {name} data starts at {start}, not at {offset} where the one before ends")
            count = math.prod(shape)
            if offset + 8 * count > len(data):
                raise ValueError(f"tensor {name} data is truncated")
            ckpt.tensors[name] = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
            offset += 8 * count
        else:
            raise ValueError(f"unknown manifest record {kind!r}")
        if (rank[kind], name) <= last or last[0] < 0 < rank[kind]:  # the epoch, then config keys, then tensors
            raise ValueError(f"manifest record {line!r} is repeated or out of order")
        last = (rank[kind], name)
    if offset != len(data):
        raise ValueError(f"tensors cover {offset} of the {len(data)} data bytes")
    return ckpt
