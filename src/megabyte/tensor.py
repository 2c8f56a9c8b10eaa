"""Dense tensors with reverse-mode automatic differentiation.

Covers exactly the operations the decoder needs. Tensor methods:
broadcast + and *, relu, reshape, transpose, slicing (which also takes
integer-array picks, as the loss reads each target's log-probability)
and sum (of every entry). Functions: matmul (rows by a 2-D matrix, plus
an optional (n,) bias added into the product as one node), concat
(broadcasting its inputs off the join axis), embedding (row lookup),
log_softmax_last, layer_norm, causal_attention (fused, on
(..., t, heads * d) rows whose heads it splits as numpy views, with
optional rotary positions) and dropout.
Every product with a weight matrix, the conv encoder's filter taps
included, runs in matmul.
Every array is float64, the precision the gradient checks are stated for.

Op contract: an op computes its output and its backward, a closure
`_bp(g)` that adds the output's gradient g into its inputs' grads, and
hands both to `_result`, which keeps the backward only when it records
(grad on, some input tracked); a value only backward needs is computed
in `_bp`. The closure exists before its output, so it cannot refer to
the node that holds it, and reference counting frees every graph.
The array g that backward hands to a `_bp` belongs to that call: relu,
mul (for its left operand), log_softmax_last and layer_norm overwrite g
in place and hand it on. A `_bp` never writes into any tensor's .data.

A tensor is immutable after creation except for gradient accumulation,
and one compute graph belongs to a single logical thread. The exception
is the decode key/value buffers of `model.KVCache`: `append` and
`restart`'s slot copy write them in place, only under no_grad, and never
into a view still in use (each is read by one attention call, then
dropped). `causal_attention`'s softmax runs in place in its score
buffer, but that buffer is written before any tensor holds it, so it is
no exception. After backward, only leaves (tensors built directly, not
by an op) keep a .grad; each intermediate's gradient is freed once it has
been passed to its inputs.

Finiteness: a bare op raises FloatingPointError naming itself on inf or
nan output. A training step, an eval window and a generate call skip that
scan (`checked_once`), check what they return, and on a failure rerun with it on.
The rerun names the op by scanning outputs, not by numpy's floating-point flags:
OpenBLAS worker threads do not report those flags to the calling thread.
"""

from __future__ import annotations

import functools
import math

import numpy as np

LN_EPS = 1e-5      # added to the variance in layer_norm
_GRAD_ENABLED = True
_CHECK_OPS = True   # whether each op scans its output (off inside checked_once)


class no_grad:
    """Context manager that disables graph recording (eval / generation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise FloatingPointError(f"non-finite values produced by {op}")


def checked_once(fn):
    """Decorate an entry point that raises FloatingPointError if what it
    returns is non-finite: run it with the per-op scan off, and after that
    error once more with the scan on, to name the op. fn must repeat exactly."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        global _CHECK_OPS
        saved, _CHECK_OPS = _CHECK_OPS, False
        try:
            return fn(*args, **kwargs)
        except FloatingPointError:
            pass
        finally:
            _CHECK_OPS = saved
        return fn(*args, **kwargs)
    return run


class Tensor:
    """A dense n-dimensional array node in a compute graph."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backprop", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._prev: tuple[Tensor, ...] = ()
        self._backprop = None
        self._backward_done = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        # A first gradient that owns its memory is adopted: no backward keeps
        # an array it hands over, or hands it twice, so no one else holds it
        # and this node's _bp may later write into it. Any other is copied in
        # its own layout.
        if self.grad is not None:
            self.grad += g
        elif g.flags.owndata and g.flags.writeable:
            self.grad = g
        else:
            self.grad = np.copy(g)

    def backward(self) -> None:
        """Populate the grads of every reachable leaf by reverse traversal.

        Each intermediate node's .grad is freed as soon as it has been
        passed to the node's inputs, so afterwards only leaves hold one.
        The loss must be scalar, and a graph can be walked only once;
        build a fresh forward graph for another pass.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        if self._backward_done:
            raise RuntimeError("backward already ran on this graph; rebuild the forward pass first")
        self._backward_done = True

        # Iterative post-order: each node appended exactly once.
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backprop is not None:
                # node.grad is this node's alone (see _accum): the _bp owns g.
                g, node.grad = node.grad, None
                node._backprop(g)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        def _bp(g):
            gs = None
            if _tracked(self):
                gs = _unbroadcast(g, self.shape)
                self._accum(gs)
            if _tracked(other):
                go = _unbroadcast(g, other.shape)
                # _accum may adopt gs, so other must not get the same array.
                other._accum(go.copy() if go is gs else go)
        return _result(np.add(self.data, other.data), (self, other), "add", _bp)

    def __mul__(self, other):
        other = _as_tensor(other)
        def _bp(g):
            # other's term first, from g before self's term overwrites it
            if _tracked(other):
                other._accum(_unbroadcast(g * self.data, other.shape))
            if _tracked(self):
                g *= other.data
                self._accum(_unbroadcast(g, self.shape))
        return _result(np.multiply(self.data, other.data), (self, other), "mul", _bp)

    def relu(self) -> "Tensor":
        def _bp(g):
            g *= self.data > 0
            self._accum(g)
        return _result(np.maximum(self.data, 0.0), (self,), "relu", _bp)

    def reshape(self, *shape: int) -> "Tensor":
        def _bp(g):
            self._accum(g.reshape(self.shape))
        return _result(self.data.reshape(shape), (self,), "reshape", _bp)

    def transpose(self, axes: tuple[int, ...]) -> "Tensor":
        def _bp(g):
            self._accum(np.transpose(g, np.argsort(axes)))
        return _result(np.transpose(self.data, axes), (self,), "transpose", _bp)

    def __getitem__(self, key) -> "Tensor":
        # The backward adds g in place to the parent's grad, which _accum owns
        # alone. `+=` adds once per element, so the key must pick each at most
        # once, as basic slices and the loss's (position, target) pairs do.
        def _bp(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[key] += g
        return _result(self.data[key], (self,), "slice", _bp)

    def sum(self) -> "Tensor":
        def _bp(g):
            self._accum(np.full(self.shape, g))
        return _result(self.data.sum(), (self,), "sum", _bp)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or bool(t._prev)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], op: str, backprop) -> Tensor:
    if _CHECK_OPS:
        _check_finite(data, op)
    out = Tensor(data)
    if _GRAD_ENABLED and any(_tracked(p) for p in parents):
        out._prev = parents
        out._backprop = backprop
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Rows of a (..., k) times one 2-D matrix b (k, n), plus bias (n,) if
    given, added into the product in place; b's and bias's gradients are
    one flattened GEMM and one column sum."""
    a, b = _as_tensor(a), _as_tensor(b)
    if b.ndim != 2 or a.shape[-1:] != b.shape[:1]:
        raise ValueError(f"matmul needs (..., k) @ (k, n), got {a.shape} @ {b.shape}")
    k, n = b.shape
    data = np.matmul(a.data, b.data)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (n,):
            raise ValueError(f"matmul bias must be ({n},) for {a.shape} @ {b.shape}, got {bias.shape}")
        data += bias.data
    def _bp(g):
        if _tracked(a):
            a._accum(g @ b.data.T)
        g2 = g.reshape(-1, n)
        if _tracked(b):
            b._accum(a.data.reshape(-1, k).T @ g2)
        if bias is not None and _tracked(bias):
            bias._accum(g2.sum(axis=0))
    return _result(data, (a, b) if bias is None else (a, b, bias), "matmul", _bp)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """Join tensors of one rank along axis. Off that axis each input is
    broadcast, by numpy's rules, to the others' shape, so a (1, ..., n, 1)
    block leads every row; its gradient sums back over the broadcast."""
    tensors = [_as_tensor(t) for t in tensors]
    shapes = [t.shape for t in tensors]
    ranks = {len(s) for s in shapes}
    if len(ranks) != 1 or not -min(ranks) <= axis < min(ranks):
        raise ValueError(f"concat needs inputs of one rank that has axis {axis}, got {shapes}")
    a = axis % len(shapes[0])
    try:
        shape = list(np.broadcast_shapes(*(s[:a] + (1,) + s[a + 1:] for s in shapes)))
    except ValueError:
        raise ValueError(f"concat cannot broadcast {shapes} off axis {axis}") from None
    ends = np.cumsum([s[a] for s in shapes]).tolist()
    shape[a] = ends[-1]
    keys = [(slice(None),) * a + (slice(e - s[a], e),) for s, e in zip(shapes, ends)]
    data = np.empty(shape)
    for t, key in zip(tensors, keys):
        data[key] = t.data
    def _bp(g):
        for t, key in zip(tensors, keys):
            if _tracked(t):
                t._accum(_unbroadcast(g[key], t.shape))
    return _result(data, tuple(tensors), "concat", _bp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup table[ids]; ids is a plain integer array of any shape."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError("embedding id out of range")
    def _bp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        table._accum(gt)
    return _result(table.data[ids], (table,), "embedding", _bp)


def log_softmax_last(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - logz
    def _bp(g):
        e = np.exp(data)
        g -= np.multiply(e, g.sum(axis=-1, keepdims=True), out=e)
        x._accum(g)
    return _result(data, (x,), "log_softmax_last", _bp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-slice normalization over the last axis, then affine. The slice
    is centred once and that serves both the variance and xhat."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    var = np.add.reduce(np.square(xhat), axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    # An overflowed (inf) variance would make inv 0 and the output the bias;
    # this makes it nan instead, and leaves a finite variance's inv exact.
    inv += var * 0.0
    xhat *= inv
    data = xhat * gain.data
    data += bias.data
    def _bp(g):
        lead = tuple(range(x.ndim - 1))
        if _tracked(gain):
            gain._accum((g * xhat).sum(axis=lead))
        if _tracked(bias):
            bias._accum(g.sum(axis=lead))
        if _tracked(x):
            # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), in place
            gh = np.multiply(g, gain.data, out=g)
            t = gh * xhat
            m = np.add.reduce(t, axis=-1, keepdims=True) / d
            np.multiply(xhat, m, out=t)
            gh -= np.add.reduce(gh, axis=-1, keepdims=True) / d
            gh -= t
            gh *= inv
            x._accum(gh)
    return _result(data, (x, gain, bias), "layer_norm", _bp)


def _rotation(positions: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # Pairwise rotation angles for dims (0,1), (2,3), ... with base 10000.
    half = d // 2
    freqs = 10000.0 ** (-np.arange(half, dtype=np.float64) * 2.0 / d)
    ang = positions[:, None].astype(np.float64) * freqs[None, :]
    return np.cos(ang), np.sin(ang)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, invert: bool = False) -> np.ndarray:
    if invert:
        sin = -sin
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def causal_attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1,
                     rotary: bool = False) -> Tensor:
    """Scaled dot-product attention under a causal mask, per head.

    q is (..., t_q, dim); k and v are (..., t_k, dim) and share leading dims
    with q. Each row holds `heads` heads of dim/heads side by side, as does
    the output. The queries are the last t_q key positions: row i sits at
    position t_k - t_q + i and attends keys at positions <= its own. With
    rotary=True, q and k are rotated by those positions, so a score
    depends only on the query-key offset and keys placed ahead of the
    first query are simply earlier positions.

    Masked lanes get exactly zero weight, so outputs are bit-insensitive
    to future positions, even to a non-finite future key.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.shape[:-2] != k.shape[:-2] or k.shape != v.shape or q.shape[-1] != k.shape[-1]:
        raise ValueError(f"attention shape mismatch: q{q.shape} k{k.shape} v{v.shape}")

    t_q, dim = q.shape[-2], q.shape[-1]
    t_k = k.shape[-2]
    q_start = t_k - t_q
    if heads < 1 or dim % heads != 0:
        raise ValueError(f"attention dim {dim} does not split into {heads} heads")
    d = dim // heads
    if rotary and d % 2 != 0:
        raise ValueError("rotary positions need an even head dim")

    def split(x):   # (..., t, heads * d) -> a (..., heads, t, d) view
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, d)), -3, -2)

    def merge(x):   # (..., heads, t, d) -> (..., t, heads * d)
        return np.swapaxes(x, -3, -2).reshape(x.shape[:-3] + (x.shape[-2], dim))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    if rotary:
        cos_k, sin_k = _rotation(np.arange(t_k), d)
        cos_q, sin_q = cos_k[q_start:], sin_k[q_start:]
        qr = _rotate(qh, cos_q, sin_q)
        kr = _rotate(kh, cos_k, sin_k)
    else:
        qr, kr = qh, kh

    # The softmax runs in place in the fresh score matrix. Masked lanes are
    # overwritten, not added to: nan + -inf is nan, so an additive mask
    # would let a non-finite future score through.
    scale = 1.0 / math.sqrt(d)
    weights = np.matmul(qr, np.swapaxes(kr, -1, -2))
    weights *= scale
    allowed = (q_start + np.arange(t_q))[:, None] >= np.arange(t_k)[None, :]
    np.copyto(weights, -np.inf, where=~allowed)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)

    def _bp(g):
        g = split(g)
        gs = np.matmul(g, np.swapaxes(vh, -1, -2))   # the weights' gradient,
        gs -= (gs * weights).sum(axis=-1, keepdims=True)
        gs *= weights                                 # then the scores'
        if _tracked(k):
            gkr = np.matmul(np.swapaxes(gs, -1, -2), qr)
            gkr *= scale
            k._accum(merge(_rotate(gkr, cos_k, sin_k, invert=True) if rotary else gkr))
        if _tracked(v):
            v._accum(merge(np.matmul(np.swapaxes(weights, -1, -2), g)))
        if _tracked(q):
            gqr = np.matmul(gs, kr)
            gqr *= scale
            q._accum(merge(_rotate(gqr, cos_q, sin_q, invert=True) if rotary else gqr))
    return _result(merge(np.matmul(weights, vh)), (q, k, v), "causal_attention", _bp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout from an explicit RNG stream; rng=None disables."""
    if rng is None or rate <= 0.0:
        return x
    keep = rng.random(x.shape)
    return x * Tensor(np.divide(keep >= rate, 1.0 - rate, out=keep))
