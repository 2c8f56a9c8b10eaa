"""The multiscale byte decoder.

A byte sequence is chunked into K patches of P bytes. A large global
transformer contextualizes patch embeddings (dimension P*D_G), and a small
local transformer predicts bytes within each patch from the global output
slice plus the previous byte's embedding. Variants: a causal convolutional
patch encoder, cross-patch attention with r carried key/value slots, and
ablations that drop the local or the global half.

Teacher forcing (`forward`) and cached decode (`inference`) share one patch
pipeline: `embed_global` builds the global input, `global_forward` and
`project_global` run the global half, `combine_for_local` adds the local
byte embeddings, and the local stack runs on the result. They differ only
in how many rows each call covers; an ablated half runs no layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

FF_MULT = 4
CONV_WIDTHS = (3, 5, 7)
# Bytes back the conv stack reads: each causal conv of width w, w - 1.
CONV_CONTEXT = sum(w - 1 for w in CONV_WIDTHS)


def _auto_heads(dim: int) -> int:
    # Target head dim 64 (scaled down for small models), keeping divisibility.
    h = max(1, dim // 64)
    while dim % h != 0:
        h -= 1
    return h


@dataclass
class ModelConfig:
    """Architecture shape: dims, depths, patch geometry, variant flags."""

    context_len: int
    patch_size: int
    global_dim: int
    local_dim: int
    global_layers: int
    local_layers: int
    vocab_size: int = 256
    global_heads: int = 0  # 0 = auto
    local_heads: int = 0
    cross_patch_window: int = 0
    conv_encoder: bool = False
    no_local: bool = False
    no_global: bool = False
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("global_layers", "local_layers", "global_heads", "local_heads"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.vocab_size < 1 or self.patch_size < 1 or self.global_dim < 1 or self.local_dim < 1:
            raise ValueError("vocab_size, patch_size and dims must be >= 1")
        if self.context_len < 1 or self.context_len % self.patch_size != 0:
            raise ValueError("context_len must be a positive multiple of patch_size")
        if self.no_local and self.no_global:
            raise ValueError("no_local and no_global are mutually exclusive")
        if not 0 <= self.cross_patch_window <= self.patch_size:
            raise ValueError("cross_patch_window must be in [0, patch_size]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.global_heads == 0:
            self.global_heads = _auto_heads(self.patch_size * self.global_dim)
        if self.local_heads == 0:
            self.local_heads = _auto_heads(self.local_dim)
        if (self.patch_size * self.global_dim) % self.global_heads != 0:
            raise ValueError("global model dim must divide evenly into heads")
        if self.local_dim % self.local_heads != 0:
            raise ValueError("local_dim must divide evenly into heads")
        if self.cross_patch_active and (self.local_dim // self.local_heads) % 2 != 0:
            raise ValueError("cross-patch rotary positions need an even local head dim")

    # Flags on an absent path are inert; these are the effective switches.
    @property
    def global_active(self) -> bool:
        return not self.no_global

    @property
    def local_active(self) -> bool:
        return not self.no_local

    @property
    def conv_active(self) -> bool:
        return self.conv_encoder and self.global_active

    @property
    def cross_patch_active(self) -> bool:
        return self.cross_patch_window > 0 and self.local_active


def _layer_spec(prefix: str, dim: int) -> list[tuple[str, tuple[int, ...], bool, str]]:
    spec = [
        (f"{prefix}.ln1.gain", (dim,), False, "ones"),
        (f"{prefix}.ln1.bias", (dim,), False, "zeros"),
    ]
    for w in ("wq", "wk", "wv", "wo"):
        spec.append((f"{prefix}.attn.{w}", (dim, dim), True, "normal"))
    for b in ("bq", "bk", "bv", "bo"):
        spec.append((f"{prefix}.attn.{b}", (dim,), False, "zeros"))
    spec += [
        (f"{prefix}.ln2.gain", (dim,), False, "ones"),
        (f"{prefix}.ln2.bias", (dim,), False, "zeros"),
        (f"{prefix}.ff.w1", (dim, FF_MULT * dim), True, "normal"),
        (f"{prefix}.ff.b1", (FF_MULT * dim,), False, "zeros"),
        (f"{prefix}.ff.w2", (FF_MULT * dim, dim), True, "normal"),
        (f"{prefix}.ff.b2", (dim,), False, "zeros"),
    ]
    return spec


def parameter_spec(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], bool, str]]:
    """Ordered inventory of (name, shape, weight_decay, init) for a config.

    Paths disabled by variant flags contribute no parameters, so the name
    set doubles as the checkpoint contract.
    """
    v, t, p = cfg.vocab_size, cfg.context_len, cfg.patch_size
    dg, dl = cfg.global_dim, cfg.local_dim
    m = p * dg
    spec: list[tuple[str, tuple[int, ...], bool, str]] = []
    if cfg.global_active:
        spec += [
            ("global_embed", (v, dg), False, "normal"),
            ("global_pos", (t, dg), False, "normal"),
            ("global_pad", (p, dg), False, "normal"),
        ]
        if cfg.conv_active:
            for w in CONV_WIDTHS:
                spec.append((f"conv{w}", (w, dg, dg), True, "normal"))
        for i in range(cfg.global_layers):
            spec += _layer_spec(f"g{i}", m)
        if cfg.global_layers > 0:
            spec += [("g.lnf.gain", (m,), False, "ones"),
                     ("g.lnf.bias", (m,), False, "zeros")]
        spec.append(("gl_proj", (dg, dl), True, "normal"))
    spec.append(("local_embed", (v, dl), False, "normal"))
    if cfg.local_active:
        spec += [
            ("local_pad", (dl,), False, "normal"),
            ("local_pos", (p, dl), False, "zeros"),
        ]
        for i in range(cfg.local_layers):
            spec += _layer_spec(f"l{i}", dl)
        if cfg.local_layers > 0:
            spec += [("l.lnf.gain", (dl,), False, "ones"),
                     ("l.lnf.bias", (dl,), False, "zeros")]
    return spec


class Parameters:
    """Named, ordered collection of learnable tensors."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._decay: dict[str, bool] = {}

    def add(self, name: str, tensor: Tensor, decay: bool) -> None:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._tensors[name] = tensor
        self._decay[name] = decay

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def decays(self, name: str) -> bool:
        return self._decay[name]

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def check_against(self, cfg: ModelConfig) -> None:
        """Shape-check every tensor against the config's expected inventory."""
        expected = {name: shape for name, shape, _, _ in parameter_spec(cfg)}
        if set(expected) != set(self._tensors):
            missing = sorted(set(expected) - set(self._tensors))
            surplus = sorted(set(self._tensors) - set(expected))
            raise ValueError(f"parameter inventory mismatch: missing={missing} surplus={surplus}")
        for name, shape in expected.items():
            if self._tensors[name].shape != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {self._tensors[name].shape}, expected {shape}")


def count_params(cfg: ModelConfig) -> dict[str, int]:
    """Non-embedding parameter counts, split by half, plus embedding total.

    gl_proj counts toward the local half (it feeds the local model); conv
    filters toward the global half. Used to match compute budgets.
    """
    embed_names = {"global_embed", "global_pos", "global_pad",
                   "local_embed", "local_pad", "local_pos"}
    counts = {"global": 0, "local": 0, "embed": 0}
    for name, shape, _, _ in parameter_spec(cfg):
        n = int(np.prod(shape))
        if name in embed_names:
            counts["embed"] += n
        elif name.startswith("g") and not name.startswith("gl_proj"):
            counts["global"] += n
        elif name.startswith("conv"):
            counts["global"] += n
        else:
            counts["local"] += n
    return counts


class KVCache:
    """Key/value rows of one layer for incremental decode (pre-rotary, heads
    side by side), written in place into one buffer pair of lead + capacity
    rows. The first `lead` are the cross-patch slots: zeros before the first
    patch, then the last `lead` rows written, copied there by `restart`."""

    def __init__(self, capacity: int, lead: int = 0):
        self.capacity, self.lead = capacity, lead
        self.n = lead
        self.buf = None   # (k, v) arrays

    def append(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Write k, v (..., t, dim) after the rows so far; views of all of
        them, slots first."""
        if T._GRAD_ENABLED:
            raise RuntimeError("KVCache writes in place and runs only under no_grad")
        if self.buf is None:
            shape = k.shape[:-2] + (self.lead + self.capacity, k.shape[-1])
            # Not np.zeros: calloc may clear, and so map, every row at once.
            self.buf = (np.empty(shape), np.empty(shape))
            for b in self.buf:
                b[..., :self.lead, :] = 0.0
        n0, self.n = self.n, self.n + k.shape[-2]
        self.buf[0][..., n0:self.n, :] = k.data
        self.buf[1][..., n0:self.n, :] = v.data
        return Tensor(self.buf[0][..., :self.n, :]), Tensor(self.buf[1][..., :self.n, :])

    def restart(self) -> None:
        if self.buf is not None:
            for b in self.buf:
                b[..., :self.lead, :] = b[..., self.n - self.lead:self.n, :]
        self.n = self.lead


def _causal_conv(x: Tensor, kernel: Tensor) -> Tensor:
    """Left-padded 1-d convolution of x (..., t, c_in) with kernel
    (width, c_in, c_out) along t: output row i sums tap j's matmul with row
    i - width + 1 + j, zero before the start, so the final tap multiplies
    row i and no row sees a later one. One matmul per tap, summed in tap
    order."""
    w, t = kernel.shape[0], x.shape[-2]
    xp = T.concat([Tensor(np.zeros((1,) * (x.ndim - 2) + (w - 1, 1))), x], axis=-2)
    out = T.matmul(xp[..., 0:t, :], kernel[0])
    for j in range(1, w):
        out = out + T.matmul(xp[..., j:j + t, :], kernel[j])
    return out


def _cross_slots(x: Tensor, r: int) -> Tensor:
    """Cross-patch slots for (B, K, t, dim) keys or values: each patch gets
    the last r rows of the patch before it, and the first patch zeros."""
    return T.concat([Tensor(np.zeros((1, 1, r, 1))), x[:, :-1, -r:]], axis=1)


class MegabyteDecoder:
    """Ties a ModelConfig to a Parameters set and runs the forward pass.

    Eval-mode forward (rng=None) is read-only and deterministic; training
    passes a seeded Generator to drive dropout on attention/FF outputs
    (never on embeddings).
    """

    def __init__(self, config: ModelConfig, params: Parameters):
        params.check_against(config)
        self.config = config
        self.params = params

    # -- patch embedder (global input) ----------------------------------

    def embed_global(self, ids: np.ndarray, k0: int = 0, k1: int | None = None) -> Tensor:
        """Global input rows (B, k1 - k0, P*D_G) of patches k0..k1-1 of (B, t)
        byte ids (default: all t/P of them).

        Patch 0 is the trainable pad patch, used verbatim (no positional
        term); patch k is the byte + position embeddings of patch k - 1's
        bytes, contextualized by the 3-5-7 causal conv stack when it is on:
        each width w adds relu(`_causal_conv`(rows, conv{w})) to its input
        rows, so its filter taps run in matmul like every other weight.
        One embedding call covers the ids from CONV_CONTEXT bytes before
        patch k0's input to the end of patch k1 - 1's, the last byte a row
        reads, so ids that stop there give the same rows as the whole sequence.
        """
        cfg, p = self.config, self.params
        b, t = ids.shape
        ps, m = cfg.patch_size, cfg.patch_size * cfg.global_dim
        self._check_ids(ids)   # the last patch is not embedded
        k1 = t // ps if k1 is None else k1
        first = max(k0, 1)
        lo, hi = max(0, (first - 1) * ps - CONV_CONTEXT), max(0, k1 - 1) * ps
        emb = T.embedding(p["global_embed"], ids[:, lo:hi]) + p["global_pos"][lo:hi]
        if cfg.conv_active:
            for w in CONV_WIDTHS:
                emb = emb + _causal_conv(emb, p[f"conv{w}"]).relu()
        rows = emb[:, (first - 1) * ps - lo:].reshape(b, k1 - first, m)
        return T.concat([p["global_pad"].reshape(1, 1, m), rows], axis=1) if k0 == 0 else rows

    def _check_ids(self, ids: np.ndarray) -> None:
        if ids.size and not 0 <= ids.min() <= ids.max() < self.config.vocab_size:
            raise ValueError("byte id out of range")

    # -- transformer stacks ----------------------------------------------

    def _ln(self, name: str, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.params[f"{name}.gain"], self.params[f"{name}.bias"])

    def _layer(self, scope: str, i: int, x: Tensor, rng=None,
               cache: KVCache | None = None, k0: int = 0) -> Tensor:
        """Pre-norm layer i of the global (scope "g", rows are patches) or
        the local stack (scope "l", batched over (B, K) patches of rows), on
        rows k0.. of x. Each name ends at its last reader, x included when
        the caller holds no other name for it (see `_stack`), so a no-grad
        layer peaks in its feed-forward at the residual sum, the normed rows
        and the hidden rows, whose ReLU runs in their own buffer. The local
        feed-forward, two thin GEMMs per byte, rebuilds in backward."""
        name, rate = f"{scope}{i}", self.config.dropout
        x = (x[:, k0:] if k0 > 0 else x) + T.dropout(
            self._attention(scope, name, x, cache, k0), rate, rng)
        ff = lambda h: self._feed_forward(name, h)
        return x + T.dropout(ff(x) if scope == "g" else T.recompute(ff, x), rate, rng)

    def _attention(self, scope: str, name: str, x: Tensor, cache: KVCache | None,
                   k0: int) -> Tensor:
        """Attention output of layer `name`: keys and values come from every
        row of its input x, but queries and all that follows them only from
        rows k0..; `causal_attention` splits their heads. With a cache, x
        holds only new rows: their keys and values are appended to it and
        they attend over every cached row. With cross-patch attention, the
        last r key/value rows of the previous patch at the same layer (zeros
        before the first) lead each local patch's keys, as a cache's `lead`
        rows or concatenated here, and rotary positions make them its r
        nearest earlier positions."""
        cfg, p = self.config, self.params
        heads = cfg.global_heads if scope == "g" else cfg.local_heads
        a = self._ln(f"{name}.ln1", x)
        q, k, v = (T.matmul(rows, p[f"{name}.attn.w{c}"], p[f"{name}.attn.b{c}"])
                   for c, rows in (("q", a[:, k0:] if k0 > 0 else a), ("k", a), ("v", a)))
        del a
        r = cfg.cross_patch_window if scope == "l" and cfg.cross_patch_active else 0
        if cache is not None:
            k, v = cache.append(k, v)
        elif r > 0:
            k = T.concat([_cross_slots(k, r), k], axis=-2)
            v = T.concat([_cross_slots(v, r), v], axis=-2)
        att = T.causal_attention(q, k, v, heads, rotary=r > 0)
        del q, k, v
        return T.matmul(att, p[f"{name}.attn.wo"], p[f"{name}.attn.bo"])

    def _feed_forward(self, name: str, x: Tensor) -> Tensor:
        p = self.params
        h = T.matmul(self._ln(f"{name}.ln2", x), p[f"{name}.ff.w1"], p[f"{name}.ff.b1"], relu=True)
        return T.matmul(h, p[f"{name}.ff.w2"], p[f"{name}.ff.b2"])

    def _depth(self, scope: str) -> int:
        """Layers the global ("g") or local ("l") stack runs: none when its
        half is off."""
        cfg = self.config
        if scope == "g":
            return cfg.global_layers if cfg.global_active else 0
        return cfg.local_layers if cfg.local_active else 0

    def _stack(self, scope: str, rows: list[Tensor], rng=None,
               caches: list[KVCache] | None = None, k0: int = 0) -> Tensor:
        """Every layer of one half (one cache per layer, if given), then its
        final norm, on rows k0.. of the output; the input's rows k0.. when
        the half is off. Every layer but the last runs on every row, since
        later rows attend to earlier ones; the last computes queries only
        for rows k0..

        The input comes as the one item of the list `rows`, and each layer
        takes its input out of it and puts back its output. So no name
        outside the layer holds its input, which ends once the layer's
        attention sub-block has read it. `forward`, `global_forward` and
        `local_forward` keep no name for the stack's input either."""
        n = self._depth(scope)
        for i in range(n):
            rows.append(self._layer(scope, i, rows.pop(), rng,
                                    None if caches is None else caches[i], k0 if i == n - 1 else 0))
        x = rows.pop()
        if n == 0:
            return x[:, k0:] if k0 > 0 else x
        return self._ln(f"{scope}.lnf", x)

    def global_forward(self, h_global_in: Tensor, rng=None,
                       caches: list[KVCache] | None = None, k0: int = 0) -> Tensor:
        """Pre-norm decoder stack, causal over the patch positions, returning
        the output rows of patches k0.. only (default: all). Every layer
        runs on every patch, but the last computes queries only for the
        patches kept; with caches, the rows are new patches after the
        cached ones, and all of their keys and values are cached."""
        rows = [h_global_in]
        del h_global_in   # the first layer's attention sub-block ends it
        return self._stack("g", rows, rng, caches, k0)

    def local_forward(self, h_local_in: Tensor, rng=None, k0: int = 0,
                      stop: int | None = None) -> Tensor:
        """Log-probabilities: the local stack over every patch (batched; no
        layers when the local half is off), then the tied output head and
        its log-softmax on patches k0.. and within-patch positions [0, stop)
        of its output (default: all), as (B, rows, V)."""
        rows = [h_local_in]
        del h_local_in   # the first layer's attention sub-block ends it
        x = self._stack("l", rows, rng)
        if k0 > 0 or stop is not None:
            x = x[:, k0:, :stop]
        b, k, p_sz, dl = x.shape
        return self.output_head(x.reshape(b, k * p_sz, dl))

    def output_head(self, h: Tensor) -> Tensor:
        """Log-probabilities of rows h: weight tying, so the logits come
        from the local embedding table, in the one buffer their log-softmax
        overwrites."""
        return T.log_softmax_last(h, self.params["local_embed"])

    # -- combining the two halves -----------------------------------------

    def _local_byte_embed(self, ids: np.ndarray, start: int = 0, stop: int | None = None) -> Tensor:
        """Local byte inputs (B, K, stop - start, D_L) of (B, T) byte ids at
        within-patch positions start..stop-1 (default: all P): position s of
        patch k embeds byte kP + s - 1, position 0 the learned `local_pad`,
        and each adds its learned local position."""
        cfg, p = self.config, self.params
        b, t = ids.shape
        ps = cfg.patch_size
        stop = ps if stop is None else stop
        prev = ids.reshape(b, t // ps, ps)[..., max(start, 1) - 1:stop - 1]
        emb = T.embedding(p["local_embed"], prev)
        if start == 0:
            emb = T.concat([p["local_pad"].reshape(1, 1, 1, -1), emb], axis=-2)
        return emb + p["local_pos"][start:stop]

    def project_global(self, h_global_out: Tensor) -> Tensor:
        """Slice each patch output into P chunks of D_G and project to D_L."""
        cfg = self.config
        b, k, _ = h_global_out.shape
        chunks = h_global_out.reshape(b, k, cfg.patch_size, cfg.global_dim)
        return T.matmul(chunks, self.params["gl_proj"])

    def combine_for_local(self, slices: Tensor | None, ids: np.ndarray,
                          start: int = 0, stop: int | None = None) -> Tensor:
        """Local input at within-patch positions start..stop-1: the projected
        global slices (None when the global half is off) plus the shifted
        byte embeddings, or the slices alone when the local half is off."""
        if not self.config.local_active:
            return slices
        emb = self._local_byte_embed(ids, start, stop)
        return emb if slices is None else slices + emb

    # -- full forward -------------------------------------------------------

    def forward(self, ids: np.ndarray, rng: np.random.Generator | None = None,
                k0: int = 0, stop: int | None = None) -> Tensor:
        """Log-probabilities over the vocabulary at within-patch positions
        [0, stop) of patches k0..K-1 (default: every position), shape
        (B, (K - k0) * stop, V); position t is row (t // P - k0) * stop + t % P.

        ids is (T,) or (B, T) with T a multiple of the patch size, at most
        the configured context length. rng enables dropout (training).
        Every global layer runs on every patch, since later patches attend
        to earlier ones, but the last one computes queries (and all that
        follows them) only for the patches kept. The local half is causal
        within a patch and, without cross-patch attention, independent
        across patches, so it runs only on the rows asked for. Cross-patch
        slots are the last r rows of the patch before at every layer, so
        there every patch is kept through the global half and the local
        stack, and the head and log-softmax run only on the rows asked for.
        No name here holds the local stack's input (see `_stack`).
        """
        cfg = self.config
        ids = np.asarray(ids)
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        _, t = ids.shape
        p = cfg.patch_size
        if t > cfg.context_len or t % p != 0:
            raise ValueError("input length must be a multiple of patch_size, at most context_len")
        if not 0 <= k0 < max(1, t // p) or stop is not None and not 1 <= stop <= p:
            raise ValueError("need 0 <= k0 < T/P and 1 <= stop <= P")
        self._check_ids(ids)   # no half embeds the last byte of every patch

        # One name for every stage, so that without a graph each stage's
        # output is freed once the next is built; in `_layer`, each name ends
        # at its last reader.
        cut_k0, cut_stop = 0, None
        if cfg.cross_patch_active:  # slots read the patch before: cut after the stack
            cut_k0, cut_stop, k0, stop = k0, stop, 0, None
        h = None
        if cfg.global_active:
            h = self.project_global(self.global_forward(self.embed_global(ids), rng, k0=k0))
            h = h if stop is None else h[:, :, :stop]
        # The local input is handed over as a bare value (no name, no *args
        # tuple), so the local stack's first layer ends it.
        rows = [self.combine_for_local(h, ids[:, k0 * p:], 0, stop)]
        del h
        out = self.local_forward(rows.pop(), rng, cut_k0, cut_stop)
        return out[0] if single else out
