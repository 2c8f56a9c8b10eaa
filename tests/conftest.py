"""Shared oracles: central finite differences and independent reference
implementations kept deliberately separate from the library code paths;
the helpers the finiteness-check tests share; a recorder of the shapes
attention runs on, from which the cost law's work is counted; and the
traced allocation peak the memory tests bound."""

from __future__ import annotations

import math
import tracemalloc
from typing import NamedTuple

import numpy as np


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * h)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-5) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(n), floor)
    return float(np.max(np.abs(a - n) / denom))


def ref_rotate(vec: np.ndarray, pos: float, base: float = 10000.0) -> np.ndarray:
    """Rotary rotation of one vector via complex multiplication (independent
    of the library's sin/cos formulation)."""
    d = vec.shape[-1]
    half = d // 2
    freqs = base ** (-np.arange(half) * 2.0 / d)
    z = vec[0::2] + 1j * vec[1::2]
    z = z * np.exp(1j * pos * freqs)
    out = np.empty_like(vec)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def ref_attention(q, k, v, extra_k=None, extra_v=None, rotary=False, q_start=None):
    """Dense masked-softmax attention, one query at a time, by explicit loops."""
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    t_q, d = q.shape[-2], q.shape[-1]
    t_k = k.shape[-2]
    r = 0 if extra_k is None else extra_k.shape[-2]
    if q_start is None:
        q_start = t_k - t_q
    out = np.zeros(q.shape[:-1] + (v.shape[-1],))
    for lead in np.ndindex(q.shape[:-2]):
        for i in range(t_q):
            qi = q[lead + (i,)]
            if rotary:
                qi = ref_rotate(qi, q_start + i)
            keys, vals = [], []
            for e in range(r):
                ke = extra_k[lead + (e,)]
                if rotary:
                    ke = ref_rotate(ke, e - r)
                keys.append(ke)
                vals.append(extra_v[lead + (e,)])
            for j in range(t_k):
                if j > q_start + i:
                    continue
                kj = k[lead + (j,)]
                if rotary:
                    kj = ref_rotate(kj, j)
                keys.append(kj)
                vals.append(v[lead + (j,)])
            scores = np.array([float(qi @ kj) for kj in keys]) / np.sqrt(d)
            w = np.exp(scores - scores.max())
            w = w / w.sum()
            out[lead + (i,)] = sum(wi * vi for wi, vi in zip(w, vals))
    return out


def prepare_generic_point(model, ids, make_params, h, max_tries=50):
    """Re-draw jittered parameters until no +-h step of any single parameter
    entry flips the sign of any ReLU pre-activation.

    A central difference whose two evaluations fall on different sides of a
    ReLU kink disagrees with the analytic gradient; when every sign mask
    `z > 0` (the mask `relu` uses in backward) is the same at theta and at
    theta +- h for each entry, both evaluations see the same linear piece.

    make_params(try_index) must install fresh parameters on the model.
    Returns the index of the accepted attempt. Tensor.relu and every
    parameter value are restored before returning.
    """
    from megabyte.tensor import Tensor, no_grad

    ids = np.asarray(ids)
    orig_relu = Tensor.relu
    masks: list[np.ndarray] = []

    def spying(self):
        masks.append(self.data > 0)
        return orig_relu(self)

    def forward_masks():
        masks.clear()
        model.forward(ids)
        return list(masks)

    flip = None
    Tensor.relu = spying
    try:
        with no_grad():
            for attempt in range(max_tries):
                make_params(attempt)
                base = forward_masks()
                flip = _first_sign_flip(model, forward_masks, base, h)
                if flip is None:
                    return attempt
    finally:
        Tensor.relu = orig_relu
    name, index, step = flip
    raise AssertionError(
        f"could not find a parameter point free of ReLU sign flips under +-{h:g} "
        f"steps after {max_tries} draws; in the last draw a {step:+g} step of "
        f"{name}[{index}] flipped a ReLU sign")


def _first_sign_flip(model, forward_masks, base, h):
    """(name, flat index, step) of the first +-h parameter step whose forward
    pass changes a ReLU sign mask from `base`, or None if none does."""
    for name, t in model.params.items():
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            try:
                for step in (h, -h):
                    flat[i] = orig + step
                    if any(not np.array_equal(m, b)
                           for m, b in zip(forward_masks(), base)):
                        return name, i, step
            finally:
                flat[i] = orig
    return None


def ref_causal_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Direct loop convolution: out[i] sums kernel taps against x[<= i]."""
    w, c_in, c_out = kernel.shape
    t = x.shape[0]
    out = np.zeros((t, c_out))
    for i in range(t):
        for j in range(w):
            src = i - (w - 1) + j
            if src < 0:
                continue
            for a in range(c_in):
                for b in range(c_out):
                    out[i, b] += x[src, a] * kernel[j, a, b]
    return out


def overflow_local_ff(params):
    """Scale the first local layer's feed-forward weights by 1e200, so that
    its second matmul overflows on any input; returns params."""
    for name in ("l0.ff.w1", "l0.ff.w2"):
        params[name].data = params[name].data * 1e200
    return params


def count_scans(monkeypatch) -> list[str]:
    """Record the op name of every finiteness scan from here on."""
    from megabyte import tensor as T

    calls = []
    real = T._check_finite

    def counting(data, op):
        calls.append(op)
        real(data, op)

    monkeypatch.setattr(T, "_check_finite", counting)
    return calls


class AttentionCall(NamedTuple):
    """The shapes of one `causal_attention` call: the queries' leading dims
    (global (B,), local (B, K)), the head count, and query and key rows."""
    lead: tuple[int, ...]
    heads: int
    t_q: int
    t_k: int

    @property
    def pairs(self) -> int:
        """Query-key pairs over sequence positions, masked ones included;
        heads split the width and do not multiply them."""
        return math.prod(self.lead) * self.t_q * self.t_k


def record_attention(monkeypatch) -> list[AttentionCall]:
    """Record every `causal_attention` call from here on."""
    from megabyte import tensor as T

    calls = []
    real = T.causal_attention

    def recorded(q, k, v, heads=1, rotary=False):
        calls.append(AttentionCall(q.shape[:-2], heads, q.shape[-2], k.shape[-2]))
        return real(q, k, v, heads, rotary)

    monkeypatch.setattr(T, "causal_attention", recorded)
    return calls


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc counts while fn() runs, above those live
    when it starts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
