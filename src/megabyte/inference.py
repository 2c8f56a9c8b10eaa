"""Evaluation and generation.

Evaluation reports bits per byte under four modes: basic (each window
scored once), sliding (overlapping windows keep their later half), strided
(two patch-offset passes, each position scored in the first half of a
patch), and their combination. Every global layer runs on every patch of a
pass's window, but the last one computes queries only for the patches
kept, and the local half, head and log-softmax run only on the patches and
within-patch positions kept; under cross-patch attention every patch is
kept through the global half and the local stack, since each patch's slots
read the patch before. Generation decodes autoregressively with a
per-patch global cache and a per-byte local cache, through the model's own
input builders (`embed_global`, `combine_for_local`); the prompt and the
first decoded byte share one global call. `generate` counts the modeled
serial steps of each decoded byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Document, make_windows
from .model import KVCache, MegabyteDecoder
from .tensor import Tensor

LN2 = math.log(2.0)

# Forward passes per byte relative to basic inference.
MODE_COST = {"basic": 1, "sliding": 2, "strided": 2, "sliding+strided": 4}


@dataclass
class EvalReport:
    bpb: float
    per_position_loss: np.ndarray    # mean bits at each within-patch index (scoring frame)
    per_position_count: np.ndarray
    mode: str
    cost_multiplier: int

    def summary(self) -> str:
        lines = [f"mode={self.mode}  bpb={self.bpb:.6f}  cost={self.cost_multiplier}X",
                 "within-patch position losses (bits):"]
        for i, (loss, n) in enumerate(zip(self.per_position_loss, self.per_position_count)):
            shown = f"{loss:.6f}" if n else "-"
            lines.append(f"  p={i}: {shown}  (n={int(n)})")
        return "\n".join(lines)


@dataclass
class GenTrace:
    data: bytes                  # generated bytes (prompt excluded)
    logprobs: np.ndarray         # model log-prob of each emitted byte
    serial_steps: np.ndarray     # cumulative modeled serial steps per byte
    total_serial_steps: int


def strided_partition(t: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions supplied by pass A (original alignment) and pass B (offset
    by P/2): exactly those in the first half of one of the two patch frames."""
    if p % 2 != 0:
        raise ValueError("strided inference requires an even patch size")
    pos = np.arange(t)
    from_a = (pos % p) < p // 2
    return pos[from_a], pos[~from_a]


@T.checked_once
def _window_scores(model: MegabyteDecoder, ids: np.ndarray, strided: bool,
                   start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forced log p(x_t | x_<t) at positions start.. of one window
    of whole patches, and each position's within-patch index in the frame
    that scored it.

    Strided inference takes the positions strided_partition gives pass B
    from a second pass over the window shifted left by P/2, where byte t
    sits at frame position t - P/2. Each pass asks `forward` for the
    smallest range of patches and within-patch positions that holds the
    frame positions it scores: every global layer runs on every patch,
    but the last one computes queries only for the patches kept, and the
    local half runs only on the rows kept (under cross-patch attention,
    whose slots read the patch before, both run on every row).
    """
    p = model.config.patch_size
    pos = np.arange(start, len(ids))
    shift = np.zeros_like(pos)
    if strided:
        _, from_b = strided_partition(len(ids), p)
        shift[from_b[from_b >= start] - start] = p // 2
    frame = pos - shift
    logp = np.empty(len(pos))
    with T.no_grad():
        for s in np.unique(shift):
            sel = shift == s
            f = frame[sel]
            k0, stop = int(f[0]) // p, int((f % p).max()) + 1
            window = np.concatenate([ids[s:], np.zeros(s, dtype=ids.dtype)])
            rows = (f // p - k0) * stop + f % p
            logp[sel] = model.forward(window, k0=k0, stop=stop).data[rows, ids[pos[sel]]]
    T._check_finite(logp, "scoring")
    return logp, frame % p


def evaluate_bpb(model: MegabyteDecoder, docs: list[Document], mode: str = "basic") -> EvalReport:
    """Score a corpus under the chosen inference mode.

    Each window runs alone, cut to the whole patches that hold its real
    bytes; the model is causal, so the padding it drops changes no score.
    A sliding window after a document's first scores only its later half,
    and a strided pass only the first half of each patch of its frame, so
    the local half of each forward runs only on those rows.
    """
    if mode not in MODE_COST:
        raise ValueError(f"mode must be one of {sorted(MODE_COST)}")
    cfg = model.config
    t, p = cfg.context_len, cfg.patch_size
    total_real = sum(len(d.data) for d in docs)
    if total_real < p:
        raise ValueError("corpus shorter than one patch")

    sliding = mode in ("sliding", "sliding+strided")
    strided = mode in ("strided", "sliding+strided")
    if sliding and t % 2 != 0:
        raise ValueError("sliding evaluation requires an even context length")

    # Sliding windows overlap by half; every window after a document's
    # first scores only its later half, which no earlier window scored.
    overlap = t // 2 if sliding else 0
    pos_bits = np.zeros(p)
    pos_count = np.zeros(p, dtype=np.int64)
    for w in make_windows(docs, t, stride=t - overlap):
        n = w.real_length
        start = overlap if w.offset else 0
        logp, frame_pos = _window_scores(model, w.bytes[:-(-n // p) * p], strided, start)
        keep = slice(0, n - start)
        pos_bits += np.bincount(frame_pos[keep], weights=-logp[keep] / LN2, minlength=p)
        pos_count += np.bincount(frame_pos[keep], minlength=p)

    mean_pos = np.divide(pos_bits, pos_count, out=np.zeros_like(pos_bits),
                         where=pos_count > 0)
    return EvalReport(bpb=float(pos_bits.sum() / pos_count.sum()), per_position_loss=mean_pos,
                      per_position_count=pos_count, mode=mode,
                      cost_multiplier=MODE_COST[mode])


# -- incremental generation -------------------------------------------------


class _Decoder:
    """Incremental state of one generation stream: the known bytes, a K/V
    cache per layer in use, the next position to run and the tail patch's
    global conditioning. Each local cache holds one patch, led by its r
    cross-patch slots (`KVCache(P, lead=r)`). The inputs and the layer math
    are the model's own, and every decoded byte goes through one `advance`;
    the first byte's call also runs the whole prompt."""

    def __init__(self, model: MegabyteDecoder, prompt: bytes):
        self.model = model
        # (1, context) ids: the bytes known so far, then zeros.
        self.ids = np.zeros((1, model.config.context_len), dtype=np.int64)
        self.ids[0, :len(prompt)] = np.frombuffer(prompt, dtype=np.uint8)
        self.pos = 0
        p = model.config.patch_size
        self.global_kv = [KVCache(model.config.context_len // p) for _ in range(model._depth("g"))]
        r = model.config.cross_patch_window if model.config.cross_patch_active else 0
        self.local_kv = [KVCache(p, lead=r) for _ in range(model._depth("l"))]
        self.slices: Tensor | None = None   # (1, 1, P, D_L) projected global output

    def advance(self, end: int) -> np.ndarray:
        """Run positions pos..end-1 (end > pos) and return the log-prob row of
        position end - 1. Position t reads the bytes before it.

        Every patch that starts in [pos, end) goes through one
        `embed_global` and one global call, since its input bytes are all
        known: the prompt and the first decoded byte share one call, and a
        later byte that starts a patch is the one-row case. Every global
        layer caches the keys and values of every new patch, but the last
        one computes queries only for the patches read. The local stack
        runs only on rows a later position or the returned row reads: those
        of the tail patch. Under cross-patch attention each patch's slots
        are the local keys and values of the patch before, so there it runs
        once on every patch that [pos, end) touches, and reads each one's
        global output.
        """
        model, p = self.model, self.model.config.patch_size
        start, self.pos = self.pos, end
        k0, k1 = -(-start // p), -(-end // p)
        last = (end - 1) // p
        first = start // p if model.config.cross_patch_active else last
        kq = max(first, k0)   # the first new patch whose global output is read
        g = None
        if k1 > k0 and model.config.global_active:
            x = model.embed_global(self.ids[:, :(k1 - 1) * p], k0, k1)
            g = model.project_global(model.global_forward(x, caches=self.global_kv, k0=kq - k0))
        for k in range(first, last + 1):
            if g is not None and k >= kq:
                self.slices = g[:, k - kq:k - kq + 1]
            r0, r1 = max(start - k * p, 0), min(end - k * p, p)
            if r0 == 0:
                for cache in self.local_kv:
                    cache.restart()
            slices = None if self.slices is None else self.slices[:, :, r0:r1]
            x = model.combine_for_local(slices, self.ids[:, k * p:(k + 1) * p], r0, r1)
            h = model._stack("l", [x], caches=self.local_kv)
        return model.output_head(h[:, :, -1:]).data.reshape(-1)


@T.checked_once
def generate(model: MegabyteDecoder, prompt: bytes, n_bytes: int,
             temperature: float = 1.0, seed: int = 0) -> GenTrace:
    """Sample n_bytes autoregressively after the prompt.

    temperature 0 is greedy (deterministic); the global model advances
    once per patch against its cache, the local model once per byte. The
    first byte's call runs the prompt too: all of their patches in one
    global call, and the local model only on the patch the first byte is in
    (every patch under cross-patch attention). n_bytes = 0 runs no model
    call. Each decoded byte at position t adds L_L modeled serial steps,
    plus L_G when t starts a patch; the prompt adds none. A non-finite
    decoded row reruns the call (same seed) to name the op.
    """
    cfg = model.config
    if n_bytes < 0:
        raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature!r}")
    if len(prompt) + n_bytes > cfg.context_len:
        raise ValueError(f"prompt {len(prompt)} + length {n_bytes} > context {cfg.context_len}")
    rng = np.random.default_rng(seed)
    out: list[int] = []
    logprobs: list[float] = []
    cum_steps: list[int] = []
    steps = 0

    with T.no_grad():
        dec = _Decoder(model, prompt)
        for t in range(len(prompt), len(prompt) + n_bytes):
            steps += len(dec.local_kv) + len(dec.global_kv) * (t % cfg.patch_size == 0)
            row = dec.advance(t + 1)
            T._check_finite(row, "decoding")
            if temperature == 0.0:
                byte = int(np.argmax(row))
            else:
                # Shifting before dividing keeps the top entry at 0, so a tiny
                # temperature sends the rest to -inf instead of making inf - inf.
                with np.errstate(over="ignore"):
                    probs = np.exp((row - row.max()) / temperature)
                probs /= probs.sum()
                byte = int(rng.choice(cfg.vocab_size, p=probs))
            out.append(byte)
            logprobs.append(float(row[byte]))
            cum_steps.append(steps)
            dec.ids[0, t] = byte

    return GenTrace(data=bytes(out), logprobs=np.asarray(logprobs),
                    serial_steps=np.asarray(cum_steps, dtype=np.int64),
                    total_serial_steps=steps)
