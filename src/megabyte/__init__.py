"""Multiscale byte-level autoregressive decoding.

A byte sequence is split into patches; a large global transformer runs
once per patch and a small local transformer predicts bytes within each
patch. The package bundles the minimal autodiff engine the model runs on,
the training recipe, evaluation and generation modes, analytical compute
cost models, and byte-level data handling.
"""

from . import costmodel, data, inference, tensor, training
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, load_config
from .inference import EvalReport, GenTrace, evaluate_bpb, generate
from .model import MegabyteDecoder, ModelConfig, Parameters, prepare_local_input
from .tensor import Tensor
from .training import TrainConfig, init_weights, train

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
