"""Self-describing binary checkpoint container.

Layout, all little-endian:

    bytes 0..7    magic ``A2WCKPT1``
    bytes 8..15   uint64 byte length of the manifest text
    manifest      UTF-8 text, one record per line:
                      epoch <n>
                      config <key>=<value>
                      tensor <name> <d0>x<d1>x... <byte offset into data>
    data          the tensors' float64 values, row-major, back to back

Tensors are written in sorted name order and the manifest keys are sorted,
so save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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

    def velocity_tensors(self) -> dict[str, np.ndarray]:
        return {k.removeprefix("opt.v."): v for k, v in self.tensors.items() if k.startswith("opt.v.")}


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Atomic write: the file appears complete or not at all."""
    path = Path(path)
    manifest = ckpt.manifest_text().encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += len(manifest).to_bytes(8, "little")
    blob += manifest
    for name in sorted(ckpt.tensors):
        blob += np.ascontiguousarray(ckpt.tensors[name], dtype="<f8").tobytes()
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(bytes(blob))
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Any malformed part of the file raises ``ValueError("<path>: ...")``."""
    try:
        return _parse_checkpoint(Path(path).read_bytes())
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise ValueError(f"{path}: {exc}") from None


def _parse_checkpoint(raw: bytes) -> Checkpoint:
    if raw[:8] != MAGIC:
        raise ValueError("bad magic, not a checkpoint")
    manifest_len = int.from_bytes(raw[8:16], "little")
    if 16 + manifest_len > len(raw):
        raise ValueError(f"manifest length {manifest_len} runs past the end of the file")
    manifest = raw[16 : 16 + manifest_len].decode("utf-8")
    data = raw[16 + manifest_len :]
    ckpt = Checkpoint()
    spans: list[tuple[int, int, str]] = []  # data byte range of each tensor read so far
    for line in manifest.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "epoch":
            if not rest.isdecimal():
                raise ValueError(f"malformed manifest record {line!r}")
            ckpt.epoch = int(rest)
        elif kind == "config":
            key, _, value = rest.partition("=")
            ckpt.config[key] = value
        elif kind == "tensor":
            try:
                name, dims, offset = rest.rsplit(" ", 2)
                shape, start = tuple(int(d) for d in dims.split("x")), int(offset)
            except ValueError:
                raise ValueError(f"malformed manifest record {line!r}") from None
            count = math.prod(shape)
            if any(d < 1 for d in shape):
                raise ValueError(f"tensor {name} has a non-positive dimension in {dims}")
            if start < 0:
                raise ValueError(f"tensor {name} has negative data offset {start}")
            end = start + 8 * count
            if end > len(data):
                raise ValueError(f"tensor {name} data is truncated")
            if name in ckpt.tensors:
                raise ValueError(f"tensor {name} is listed twice")
            for lo, hi, other in spans:
                if start < hi and lo < end:
                    raise ValueError(f"tensor {name} data [{start}, {end}) overlaps tensor {other} [{lo}, {hi})")
            spans.append((start, end, name))
            values = np.frombuffer(data, dtype="<f8", count=count, offset=start)
            ckpt.tensors[name] = values.reshape(shape).copy()
        else:
            raise ValueError(f"unknown manifest record {kind!r}")
    covered = sum(hi - lo for lo, hi, _ in spans)
    if covered != len(data):
        raise ValueError(f"tensors cover {covered} of the {len(data)} data bytes")
    return ckpt
