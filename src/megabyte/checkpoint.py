"""Checkpoints are numpy `.npz` archives: uncompressed zip files in which
zip keeps a CRC-32 per member.

Members: one float64 `.npy` per parameter, named as in `parameter_spec`,
and `config`, the `config_to_text` UTF-8 bytes of both configs as a 1-d
uint8 array. A load returns the two configs and the parameters. Round
trips are bit-exact, and two saves of the same run are byte-identical,
because zipfile stamps every member 1980-01-01.

A load checks every member's CRC (`testzip`) before it reads any member,
then refuses repeated member names and pickled data. The member set must
equal the config's inventory plus `config`, and every tensor must be
exactly float64, of its `parameter_spec` shape, with finite values. Any
failure, including whatever zipfile or the `.npy` header parser raises,
ends in `CheckpointError`.
"""

from __future__ import annotations

import os

import numpy as np

from .config import ConfigError, config_to_text, parse_config
from .model import ModelConfig, Parameters, parameter_spec
from .tensor import Tensor
from .training import TrainConfig


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, model_cfg: ModelConfig, train_cfg: TrainConfig,
                    params: Parameters) -> None:
    """Write into a temp file beside `path`, fsync it, then rename it over
    `path`, so a save that fails partway leaves any earlier checkpoint intact."""
    config_text = config_to_text(model_cfg, train_cfg).encode("utf-8")
    members = {"config": np.frombuffer(config_text, dtype=np.uint8)}
    for name, t in params.items():
        if t.data.dtype != np.float64:
            raise CheckpointError(f"parameter {name!r} has unsupported dtype {t.data.dtype}")
        members[name] = t.data
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, allow_pickle=False, **members)  # a file object: no `.npz` appended
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[ModelConfig, TrainConfig, Parameters]:
    """Read a checkpoint, rebuild the configs and the parameter set, and
    verify every member against the model config."""
    member = None
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as npz:
                corrupt = npz.zip.testzip()
                if corrupt is not None:
                    raise CheckpointError(f"member {corrupt!r} fails its CRC-32 check")
                members = {}
                for member in npz.files:
                    if member in members:
                        raise CheckpointError("the name is repeated")
                    members[member] = np.asarray(npz[member])  # a non-`.npy` member reads as bytes
        except Exception as exc:  # zipfile and the .npy header parser raise many types
            at = "" if member is None else f" (member {member!r})"
            raise CheckpointError(f"{path} is not a .npz checkpoint{at}: {exc}") from exc

    config = members.pop("config", None)
    if config is None or config.dtype != np.uint8 or config.ndim != 1:
        raise CheckpointError("member 'config' is missing or not a 1-d uint8 array")
    try:
        model_cfg, train_cfg = parse_config(config.tobytes())
    except ConfigError as exc:
        raise CheckpointError(f"bad embedded config: {exc}") from exc

    decays = {name: decay for name, _, decay, _ in parameter_spec(model_cfg)}
    params = Parameters()
    for name, data in members.items():
        if name not in decays:
            raise CheckpointError(f"unexpected member {name!r} for this config")
        if data.dtype != np.float64:
            raise CheckpointError(f"member {name!r} is {data.dtype}, expected float64")
        if not np.isfinite(data).all():
            raise CheckpointError(f"tensor {name!r} holds inf or NaN values")
        params.add(name, Tensor(data), decays[name])
    try:
        params.check_against(model_cfg)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    return model_cfg, train_cfg, params
