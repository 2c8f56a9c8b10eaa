"""Deterministic training loop: truncated-normal init, linear warmup with
polynomial (power 1) decay, global-norm clipping, and decoupled-decay Adam
with beta = (0.9, 0.98). Loss is cross entropy in bits per byte over
unmasked positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .model import MegabyteDecoder, ModelConfig, Parameters, parameter_spec
from .tensor import Tensor

INIT_STD = 0.006
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-8
LN2 = math.log(2.0)


class TrainingDiverged(FloatingPointError):
    """Raised on a non-finite loss or grad norm; carries the failing step."""


@dataclass
class TrainConfig:
    """Optimizer and schedule settings. Update counts, rates, weight_decay,
    dropout, seed and window_stride must be finite and >= 0, warmup_updates
    <= total_updates, batch_size >= 1, each Adam beta in [0, 1) and
    clip_norm and adam_eps finite and > 0, so NaN and inf are rejected.
    window_stride is the step between training windows (0 = context length)."""

    peak_lr: float
    total_updates: int
    batch_size: int
    warmup_updates: int = 500
    end_lr: float = 0.0
    clip_norm: float = 1.0
    weight_decay: float = 0.1
    dropout: float = 0.1
    seed: int = 0
    # Surfaced for checkpoint auditability; defaults are the recipe values.
    adam_beta1: float = ADAM_BETA1
    adam_beta2: float = ADAM_BETA2
    adam_eps: float = ADAM_EPS

    window_stride: int = 0

    def __post_init__(self):
        for name in ("total_updates", "warmup_updates", "peak_lr", "end_lr",
                     "weight_decay", "dropout", "seed", "window_stride"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        for name in ("clip_norm", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.warmup_updates > self.total_updates:
            raise ValueError("warmup_updates must be <= total_updates")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def init_weights(cfg: ModelConfig, seed: int) -> Parameters:
    """Seeded parameter init: weights ~ N(0, 0.006^2) truncated at 2 sigma
    by rejection sampling; norm gains 1; biases and local positions 0."""
    rng = np.random.default_rng(seed)
    params = Parameters()
    for name, shape, decay, init in parameter_spec(cfg):
        if init == "normal":
            data = _trunc_normal(rng, shape, INIT_STD, 2.0)
        elif init == "ones":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        params.add(name, Tensor(data), decay)
    return params


def _trunc_normal(rng: np.random.Generator, shape, std: float, bound_sigmas: float) -> np.ndarray:
    """Redraw entries beyond bound_sigmas * std, re-testing only those redrawn."""
    out = rng.normal(0.0, std, size=shape)
    flat, bound = out.reshape(-1), bound_sigmas * std
    redraw = np.flatnonzero(np.abs(flat) > bound)
    while redraw.size:
        flat[redraw] = rng.normal(0.0, std, size=redraw.size)
        redraw = redraw[np.abs(flat[redraw]) > bound]
    return out


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> peak over warmup, then linear decay peak -> end_lr."""
    if not 0 <= step <= cfg.total_updates:
        raise ValueError("step out of range")
    if cfg.warmup_updates > 0 and step <= cfg.warmup_updates:
        return cfg.peak_lr * step / cfg.warmup_updates
    decay_span = cfg.total_updates - cfg.warmup_updates
    if decay_span == 0:
        return cfg.end_lr
    frac = (cfg.total_updates - step) / decay_span
    return cfg.end_lr + (cfg.peak_lr - cfg.end_lr) * frac


def grad_global_norm(params: Parameters) -> float:
    total = 0.0
    for _, t in params.items():
        if t.grad is not None:
            # C order, so the sum's rounding does not depend on memory layout.
            total += float(np.sum(np.square(np.ascontiguousarray(t.grad), dtype=np.float64)))
    return math.sqrt(total)


def clip_gradients(params: Parameters, max_norm: float = 1.0, norm: float | None = None) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm;
    norm is that L2 norm when the caller already has it; max_norm > 0.

    Returns the scale applied (1.0 when already under the limit).
    """
    if norm is None:
        norm = grad_global_norm(params)
    if norm <= max_norm:
        return 1.0
    scale = max_norm / norm
    for _, t in params.items():
        if t.grad is not None:
            t.grad *= scale
    return scale


class OptimState:
    """Adam moments per parameter plus the shared step counter."""

    def __init__(self, params: Parameters):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(params: Parameters, state: OptimState, lr: float, weight_decay: float,
              betas: tuple[float, float] = (ADAM_BETA1, ADAM_BETA2),
              eps: float = ADAM_EPS) -> None:
    """Bias-corrected Adam update with decoupled weight decay.

    Decay applies only to weight matrices, never to layer-norm parameters,
    biases, or embeddings (the decay flag in the parameter registry).
    Each parameter updates through one scratch buffer, in the order of
    (m / bc1) / (sqrt(v / bc2) + eps) [+ decay * w], times lr; t.data is
    rebound to the result, never written, as a caller may hold the old one.
    """
    b1, b2 = betas
    state.step += 1
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, t in params.items():
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        m = state.m[name]
        v = state.v[name]
        buf = g * (1.0 - b1)
        m *= b1
        m += buf
        np.multiply(g, 1.0 - b2, out=buf)
        buf *= g
        v *= b2
        v += buf
        np.sqrt(np.divide(v, bc2, out=buf), out=buf)
        buf += eps
        update = m / bc1
        update /= buf
        if weight_decay > 0.0 and params.decays(name):
            np.multiply(t.data, weight_decay, out=buf)
            update += buf
        update *= lr
        t.data = np.subtract(t.data, update, out=update)


def sequence_loss_bits(log_probs: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log2-likelihood of targets over unmasked positions:
    targets and mask share log_probs' leading shape, and each kept
    position's log-probability of its target is picked by index."""
    targets, mask = np.asarray(targets), np.asarray(mask)
    if not targets.shape == mask.shape == log_probs.shape[:-1]:
        raise ValueError(f"targets {targets.shape} and mask {mask.shape} must both have "
                         f"log_probs' leading shape {log_probs.shape[:-1]}")
    kept = np.nonzero(mask)
    n = kept[0].size
    if n == 0:
        raise ValueError("loss mask selects no positions")
    picked = log_probs[kept + (targets[kept],)]
    return picked.sum() * (-1.0 / (LN2 * n))


@T.checked_once
def _step_gradients(model: MegabyteDecoder, inputs, mask, rng, rng_state) -> tuple[float, float]:
    """Loss and global grad norm of one batch, from zero grads and dropout
    state rng_state; FloatingPointError if either is non-finite."""
    rng.bit_generator.state = rng_state
    model.params.zero_grad()
    loss = sequence_loss_bits(model.forward(inputs, rng=rng), inputs, mask)
    loss_bits = loss.item()
    if not math.isfinite(loss_bits):
        raise FloatingPointError("non-finite loss")
    loss.backward()
    norm = grad_global_norm(model.params)
    if not math.isfinite(norm):
        raise FloatingPointError("non-finite gradient norm")
    return loss_bits, norm


@dataclass
class StepRecord:
    step: int        # updates completed before this step's forward pass
    lr: float        # rate applied by this step's update
    loss_bits: float
    grad_norm: float


def train(model: MegabyteDecoder, windows, cfg: TrainConfig,
          log_every: int = 0) -> list[StepRecord]:
    """Run the full update budget over the window list, in seeded-shuffle
    order, and return the per-step loss curve.

    Each record holds the batch loss measured before that step's update,
    so record 0 is the untrained-model loss. Raises TrainingDiverged on a
    non-finite loss or grad norm, before that step's update.
    """
    if not windows:
        raise ValueError("no training windows")
    order_rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng(cfg.seed + 1)
    order = order_rng.permutation(len(windows))
    cursor = 0

    # The training-time dropout rate governs; eval always disables.
    active = model
    if cfg.dropout != model.config.dropout:
        active = MegabyteDecoder(replace(model.config, dropout=cfg.dropout), model.params)

    state = OptimState(model.params)
    curve: list[StepRecord] = []
    for step in range(cfg.total_updates):
        rows = []
        for _ in range(cfg.batch_size):
            if cursor == len(order):
                order = order_rng.permutation(len(windows))
                cursor = 0
            rows.append(windows[order[cursor]])
            cursor += 1
        inputs = np.stack([w.bytes for w in rows])
        mask = np.stack([w.mask for w in rows])

        try:
            loss_bits, norm = _step_gradients(active, inputs, mask, dropout_rng,
                                              dropout_rng.bit_generator.state)
        except FloatingPointError as exc:
            raise TrainingDiverged(f"step {step}: {exc}") from exc

        clip_gradients(model.params, cfg.clip_norm, norm)
        lr = lr_at(step + 1, cfg)
        adam_step(model.params, state, lr, cfg.weight_decay,
                  betas=(cfg.adam_beta1, cfg.adam_beta2), eps=cfg.adam_eps)

        curve.append(StepRecord(step, lr, loss_bits, norm))
        if log_every and step % log_every == 0:
            print(f"step {step:5d}  lr {lr:.3e}  loss {loss_bits:.4f} bpb  grad {norm:.3f}")
    return curve


def curve_to_csv(curve: list[StepRecord]) -> str:
    lines = ["step,lr,loss_bits_per_byte,grad_norm"]
    for r in curve:
        lines.append(f"{r.step},{r.lr!r},{r.loss_bits!r},{r.grad_norm!r}")
    return "\n".join(lines) + "\n"
