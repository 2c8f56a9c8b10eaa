"""Multiscale byte-level autoregressive decoding.

A byte sequence is split into patches; a large global transformer runs
once per patch and a small local transformer predicts bytes within each
patch. The package bundles the minimal autodiff engine the model runs on,
the training recipe, evaluation and generation modes, analytical compute
cost models, and byte-level data handling.
"""

import os as _os

# MEGABYTE_THREADS bounds internal (BLAS) parallelism; it must land in the
# environment before numpy loads, so it is applied at package import.
_threads = _os.environ.get("MEGABYTE_THREADS", "")
if _threads.isdigit() and int(_threads) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import costmodel, data, inference, tensor, training  # noqa: E402
from .checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from .config import ConfigError, load_config  # noqa: E402
from .inference import EvalReport, GenTrace, evaluate_bpb, generate  # noqa: E402
from .model import MegabyteDecoder, ModelConfig, Parameters, prepare_local_input  # noqa: E402
from .tensor import Tensor  # noqa: E402
from .training import TrainConfig, init_weights, train  # noqa: E402

__all__ = [
    "ConfigError",
    "EvalReport",
    "GenTrace",
    "MegabyteDecoder",
    "ModelConfig",
    "Parameters",
    "Tensor",
    "TrainConfig",
    "costmodel",
    "data",
    "evaluate_bpb",
    "generate",
    "inference",
    "init_weights",
    "load_checkpoint",
    "load_config",
    "prepare_local_input",
    "save_checkpoint",
    "tensor",
    "train",
    "training",
]
