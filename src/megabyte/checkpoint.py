"""Binary checkpoint format.

Layout (all integers little-endian):
  magic "MBCP" | u32 version | u32 config length | config key=value text |
  u32 tensor count | per tensor: u16 name length, UTF-8 name, u8 rank,
  u32 dims, u8 dtype code, raw little-endian IEEE-754 data.

Code 0 is float64, the only code written. Code 1 (float32), which older
files carry, is still read and converted exactly to float64. Round trips
are bit-exact. On load, the tensor name set must match the config's
expected parameter inventory, and every value must be finite.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .config import ConfigError, config_to_text, configs_from_values, parse_config_text
from .model import ModelConfig, Parameters, parameter_spec
from .tensor import Tensor
from .training import TrainConfig

MAGIC = b"MBCP"
VERSION = 1

_DTYPE_BY_CODE = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, model_cfg: ModelConfig, train_cfg: TrainConfig,
                    params: Parameters, window_stride: int = 0) -> None:
    """Write into a temp file beside `path`, then rename it over `path`, so
    a save that fails partway leaves any earlier checkpoint intact."""
    config_text = config_to_text(model_cfg, train_cfg, window_stride).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(config_text)))
            fh.write(config_text)
            fh.write(struct.pack("<I", len(params)))
            for name, t in params.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", t.data.ndim))
                for dim in t.data.shape:
                    fh.write(struct.pack("<I", dim))
                if t.data.dtype != np.float64:
                    raise CheckpointError(f"parameter {name!r} has unsupported dtype {t.data.dtype}")
                fh.write(struct.pack("<B", 0))
                fh.write(np.ascontiguousarray(t.data, dtype=_DTYPE_BY_CODE[0]).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated payload")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path) -> tuple[ModelConfig, TrainConfig, Parameters, int]:
    """Read a checkpoint, rebuild the configs and the parameter set, and
    verify the tensor inventory against the model config."""
    with open(path, "rb") as fh:
        blob = fh.read()
    rd = _Reader(blob)
    if rd.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = rd.u32()
    if version != VERSION:
        raise CheckpointError(f"version mismatch: file has {version}, reader supports {VERSION}")
    config_blob = rd.take(rd.u32())
    try:
        config_text = config_blob.decode("utf-8")
        model_cfg, train_cfg, stride = configs_from_values(parse_config_text(config_text))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CheckpointError(f"bad embedded config: {exc}") from exc

    decay_by_name = {name: decay for name, _, decay, _ in parameter_spec(model_cfg)}
    count = rd.u32()
    params = Parameters()
    for _ in range(count):
        raw_name = rd.take(rd.u16())
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8: {raw_name!r}") from exc
        rank = rd.u8()
        shape = tuple(rd.u32() for _ in range(rank))
        code = rd.u8()
        if code not in _DTYPE_BY_CODE:
            raise CheckpointError(f"unknown dtype code {code}")
        dtype = _DTYPE_BY_CODE[code]
        n = 1
        for dim in shape:
            n *= dim
        data = np.frombuffer(rd.take(n * dtype.itemsize), dtype=dtype).reshape(shape)
        decay = decay_by_name.pop(name, None)  # popped, so a repeated name fails too
        if decay is None:
            raise CheckpointError(f"unexpected or repeated tensor {name!r} for this config")
        if not np.isfinite(data).all():
            raise CheckpointError(f"tensor {name!r} holds inf or NaN values")
        params.add(name, Tensor(data.astype(np.float64)), decay)
    if rd.pos != len(blob):
        raise CheckpointError("trailing bytes after the last tensor")
    try:
        params.check_against(model_cfg)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    return model_cfg, train_cfg, params, stride
