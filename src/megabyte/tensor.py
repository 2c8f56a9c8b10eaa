"""Dense tensors with reverse-mode automatic differentiation.

Covers exactly the operations the decoder needs. Tensor methods:
broadcast + and *, relu, reshape, transpose, slicing (which also takes
integer-array picks, as the loss reads each target's log-probability)
and sum (of every entry). Functions: matmul (rows by a 2-D matrix, plus
an optional (n,) bias added into the product as one node), concat
(broadcasting its inputs off the join axis), embedding (row lookup),
log_softmax_last, layer_norm, causal_attention (fused, on
(..., t, heads * d) rows whose heads it splits as numpy views, with
optional rotary positions) and dropout. Every product with a weight
matrix, the conv encoder's filter taps included, runs in matmul. Every
array is float64, the precision the gradient checks are stated for.

Op contract: an op computes its output and its backward, a closure
`_bp(g, *records)` that adds the output's gradient g into its inputs'
records, and hands both to `_result`, the one place that makes a record
(`_Node`: the gradient while backward runs, the inputs' records, None
where no gradient flows, and the backward) when grad is on and some
input is tracked. A leaf (a tensor built directly, not by an op) is its
own record. A `_bp` captures only the arrays it reads, never a Tensor or
a record, so the graph holds no forward value of its own: an output that
the caller drops is freed in forward unless a backward captured it, and a
value only backward needs is computed in `_bp`. The array g that backward
hands to a `_bp` belongs to that call: relu, mul (for its left operand),
log_softmax_last and layer_norm overwrite g in place and hand it on.
Forward, too, holds only what its next step reads: log_softmax_last runs
its exp in its own output, and computes x - max there twice.

A tensor, and any array a `_bp` captured, is immutable except for a
leaf's gradient, and one graph belongs to a single logical thread. The
exception is the decode key/value buffers of `model.KVCache`: `append`
and `restart`'s slot copy write them in place, only under no_grad, and
never into a view still in use (each is read by one attention call, then
dropped). Attention's softmax runs in place in its own score buffer.

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


class _Node:
    """One op output's graph record; it keeps alive only what its _bp captured."""

    __slots__ = ("grad", "_prev", "_bp", "__weakref__")

    def __init__(self, prev: tuple, bp):
        self.grad, self._prev, self._bp = None, prev, bp

    def _accum(self, g: np.ndarray) -> None:
        # A first gradient that owns its memory is adopted: no backward keeps
        # an array it hands over, or hands it twice, so this record's _bp may
        # later write into it. Any other is copied in its own layout.
        if self.grad is not None:
            self.grad += g
        elif g.flags.owndata and g.flags.writeable:
            self.grad = g
        else:
            self.grad = np.copy(g)


class Tensor:
    """A dense n-dimensional array and, if an op recorded it, its record."""

    __slots__ = ("data", "grad", "requires_grad", "_node")
    _prev, _bp = (), None   # a leaf is its own record: no inputs, no backward
    _accum = _Node._accum

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad, self.requires_grad = None, requires_grad
        self._node: _Node | None = None   # set by _result alone

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

    def backward(self) -> None:
        """Populate the grads of every reachable leaf by a reverse walk of
        the records. Each record's gradient is freed once passed to its
        inputs, so only leaves keep one. The loss must be scalar, and a graph
        is walked only once (its root's backward is dropped); build a fresh
        forward graph for another pass."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        root = self._node or self
        if root._prev and root._bp is None:
            raise RuntimeError("backward already ran on this graph; rebuild the forward pass first")

        # Iterative post-order: each record appended exactly once.
        topo, seen, stack = [], set(), [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._prev if p is not None and id(p) not in seen)

        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bp is not None:
                # node.grad is this record's alone (see _accum): the _bp owns g.
                g, node.grad = node.grad, None
                node._bp(g, *node._prev)
        if root is not self:
            root._bp = None

    def __add__(self, other):
        other = _as_tensor(other)
        s_shape, o_shape = self.shape, other.shape
        def _bp(g, s, o):
            gs = None
            if s is not None:
                gs = _unbroadcast(g, s_shape)
                s._accum(gs)
            if o is not None:
                go = _unbroadcast(g, o_shape)
                # _accum may adopt gs, so o must not get the same array.
                o._accum(go.copy() if go is gs else go)
        return _result(np.add(self.data, other.data), (self, other), "add", _bp)

    def __mul__(self, other):
        other = _as_tensor(other)
        s_shape, o_shape = self.shape, other.shape
        s_data, o_data = _record(other) and self.data, _record(self) and other.data
        def _bp(g, s, o):
            # o's term first, from g before s's term overwrites it
            if o is not None:
                o._accum(_unbroadcast(g * s_data, o_shape))
            if s is not None:
                g *= o_data
                s._accum(_unbroadcast(g, s_shape))
        return _result(np.multiply(self.data, other.data), (self, other), "mul", _bp)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)
        def _bp(g, s):
            g *= data > 0   # the output's mask is the input's
            s._accum(g)
        return _result(data, (self,), "relu", _bp)

    def reshape(self, *shape: int) -> "Tensor":
        s_shape = self.shape
        def _bp(g, s):
            s._accum(g.reshape(s_shape))
        return _result(self.data.reshape(shape), (self,), "reshape", _bp)

    def transpose(self, axes: tuple[int, ...]) -> "Tensor":
        def _bp(g, s):
            s._accum(np.transpose(g, np.argsort(axes)))
        return _result(np.transpose(self.data, axes), (self,), "transpose", _bp)

    def __getitem__(self, key) -> "Tensor":
        # The backward adds g in place to the parent's grad, which _accum owns
        # alone. `+=` adds once per element, so the key must pick each at most
        # once, as basic slices and the loss's (position, target) pairs do.
        s_shape = self.shape
        def _bp(g, s):
            if s.grad is None:
                s.grad = np.zeros(s_shape)
            s.grad[key] += g
        return _result(self.data[key], (self,), "slice", _bp)

    def sum(self) -> "Tensor":
        s_shape = self.shape
        def _bp(g, s):
            s._accum(np.full(s_shape, g))
        return _result(self.data.sum(), (self,), "sum", _bp)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(t: Tensor) -> _Node | Tensor | None:
    """t's op's record, or t itself as a leaf wanting a gradient, or None."""
    return t._node or (t if t.requires_grad else None)


def _result(data: np.ndarray, inputs: tuple[Tensor, ...], op: str, backprop) -> Tensor:
    if _CHECK_OPS:
        _check_finite(data, op)
    out = Tensor(data)
    prev = _GRAD_ENABLED and tuple(map(_record, inputs))
    if prev and any(r is not None for r in prev):
        out._node = _Node(prev, backprop)
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
    a_data, b_data = _record(b) and a.data, _record(a) and b.data   # each if the other is tracked
    def _bp(g, ra, rb, rbias=None):
        if ra is not None:
            ra._accum(g @ b_data.T)
        g2 = g.reshape(-1, n)
        if rb is not None:
            rb._accum(a_data.reshape(-1, k).T @ g2)
        if rbias is not None:
            rbias._accum(g2.sum(axis=0))
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
    def _bp(g, *records):
        for r, s, key in zip(records, shapes, keys):
            if r is not None:
                r._accum(_unbroadcast(g[key], s))
    return _result(data, tuple(tensors), "concat", _bp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup table[ids]; ids is a plain integer array of any shape."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError("embedding id out of range")
    t_shape = table.shape
    def _bp(g, t):
        gt = np.zeros(t_shape)
        np.add.at(gt, ids, g)
        t._accum(gt)
    return _result(table.data[ids], (table,), "embedding", _bp)


def log_softmax_last(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    top = x.data.max(axis=-1, keepdims=True)
    data = np.subtract(x.data, top)   # the exp's scratch, then x - top again
    sums = np.exp(data, out=data).sum(axis=-1, keepdims=True)
    np.subtract(x.data, top, out=data)
    data -= np.log(sums)
    def _bp(g, s):
        e = np.exp(data)
        g -= np.multiply(e, g.sum(axis=-1, keepdims=True), out=e)
        s._accum(g)
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
    lead, gain_data = tuple(range(x.ndim - 1)), gain.data
    def _bp(g, rx, rgain, rbias):
        if rgain is not None:
            rgain._accum((g * xhat).sum(axis=lead))
        if rbias is not None:
            rbias._accum(g.sum(axis=lead))
        if rx is not None:
            # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), in place
            gh = np.multiply(g, gain_data, out=g)
            t = gh * xhat
            m = np.add.reduce(t, axis=-1, keepdims=True) / d
            np.multiply(xhat, m, out=t)
            gh -= np.add.reduce(gh, axis=-1, keepdims=True) / d
            gh -= t
            gh *= inv
            rx._accum(gh)
    return _result(data, (x, gain, bias), "layer_norm", _bp)


def _rotation(positions: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # Pairwise rotation angles for dims (0,1), (2,3), ... with base 10000.
    freqs = 10000.0 ** (-np.arange(d // 2, dtype=np.float64) * 2.0 / d)
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

    t_q, t_k, dim = q.shape[-2], k.shape[-2], q.shape[-1]
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

    def _bp(g, rq, rk, rv):
        g = split(g)
        gs = np.matmul(g, np.swapaxes(vh, -1, -2))   # the weights' gradient,
        gs -= (gs * weights).sum(axis=-1, keepdims=True)
        gs *= weights                                 # then the scores'
        if rk is not None:
            gkr = np.matmul(np.swapaxes(gs, -1, -2), qr)
            gkr *= scale
            rk._accum(merge(_rotate(gkr, cos_k, sin_k, invert=True) if rotary else gkr))
        if rv is not None:
            rv._accum(merge(np.matmul(np.swapaxes(weights, -1, -2), g)))
        if rq is not None:
            gqr = np.matmul(gs, kr)
            gqr *= scale
            rq._accum(merge(_rotate(gqr, cos_q, sin_q, invert=True) if rotary else gqr))
    return _result(merge(np.matmul(weights, vh)), (q, k, v), "causal_attention", _bp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout from an explicit RNG stream; rng=None disables."""
    if rng is None or rate <= 0.0:
        return x
    keep = rng.random(x.shape)
    return x * Tensor(np.divide(keep >= rate, 1.0 - rate, out=keep))
