"""Decoder assembly: patch embedding and the conv encoder's causal
convolution, the local inputs, both transformer stacks against loop-based
numpy references, causality for every variant, and end-to-end gradients
against finite differences."""

import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    fd_grad,
    max_rel_err,
    prepare_generic_point,
    ref_attention,
    ref_causal_conv,
    traced_peak,
)
from test_tensor import _check_grads, backward_intact, captured, graph_records

from megabyte import tensor as T
from megabyte.model import (
    CONV_WIDTHS,
    FF_MULT,
    MegabyteDecoder,
    ModelConfig,
    _causal_conv,
    count_params,
    parameter_spec,
)
from megabyte.training import init_weights, sequence_loss_bits


def toy_config(**over):
    base = dict(context_len=8, patch_size=4, global_dim=4, local_dim=4,
                global_layers=1, local_layers=1, vocab_size=11,
                global_heads=1, local_heads=1, dropout=0.0)
    base.update(over)
    return ModelConfig(**base)


def build(cfg: ModelConfig, seed=0) -> MegabyteDecoder:
    return MegabyteDecoder(cfg, init_weights(cfg, seed))


# -- reference pieces (independent numpy implementations) ---------------------

def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def ref_transformer_stack(x, params, scope, layers, heads, window=0, drop=None):
    """Pre-norm stack recomputed with loops and the brute-force attention,
    over one sequence (t, dim) or a stack of patches (K, t, dim).

    With window r > 0, each patch's keys and values at a layer are led by
    the last r of the patch before at that layer (zeros for the first), at
    the rotary positions just before its own. drop = (rate, rng) keeps each
    entry of a layer's attention output, then of its feed-forward output,
    where rng.random() >= rate, scaled by 1 / (1 - rate)."""
    def p(name):
        return params[name].data

    def dropped(y):
        if drop is None:
            return y
        rate, rng = drop
        return y * (rng.random(y.shape) >= rate) / (1.0 - rate)

    single = x.ndim == 2
    x = x[None] if single else x
    for i in range(layers):
        a = ref_layer_norm(x, p(f"{scope}{i}.ln1.gain"), p(f"{scope}{i}.ln1.bias"))
        q = a @ p(f"{scope}{i}.attn.wq") + p(f"{scope}{i}.attn.bq")
        k = a @ p(f"{scope}{i}.attn.wk") + p(f"{scope}{i}.attn.bk")
        v = a @ p(f"{scope}{i}.attn.wv") + p(f"{scope}{i}.attn.bv")
        n, t, dim = q.shape
        dh = dim // heads
        att = np.zeros_like(q)
        for j in range(n):
            for h in range(heads):
                sl = slice(h * dh, (h + 1) * dh)
                slots = {}
                if window:
                    ek, ev = ((np.zeros((window, dh)) if j == 0 else c[j - 1, t - window:, sl])
                              for c in (k, v))
                    slots = dict(extra_k=ek[None], extra_v=ev[None], rotary=True)
                att[j, :, sl] = ref_attention(q[None, j, :, sl], k[None, j, :, sl],
                                              v[None, j, :, sl], **slots)[0]
        x = x + dropped(att @ p(f"{scope}{i}.attn.wo") + p(f"{scope}{i}.attn.bo"))
        f = ref_layer_norm(x, p(f"{scope}{i}.ln2.gain"), p(f"{scope}{i}.ln2.bias"))
        f = np.maximum(f @ p(f"{scope}{i}.ff.w1") + p(f"{scope}{i}.ff.b1"), 0.0)
        x = x + dropped(f @ p(f"{scope}{i}.ff.w2") + p(f"{scope}{i}.ff.b2"))
    if layers > 0:
        x = ref_layer_norm(x, p(f"{scope}.lnf.gain"), p(f"{scope}.lnf.bias"))
    return x[0] if single else x


# -- patch embedder ----------------------------------------------------------------

def test_embed_global_shape():
    cfg = toy_config(context_len=8, patch_size=4, global_dim=2, local_dim=2)
    m = build(cfg)
    out = m.embed_global(np.arange(8)[None, :] % cfg.vocab_size)
    assert out.shape == (1, 2, 8)


def test_embed_global_zero_tables_give_zero_patches():
    cfg = toy_config()
    m = build(cfg)
    m.params["global_embed"].data[:] = 0.0
    m.params["global_pos"].data[:] = 0.0
    out = m.embed_global(np.arange(8)[None, :] % cfg.vocab_size).data
    assert np.allclose(out[0, 1:], 0.0)
    assert np.array_equal(out[0, 0], m.params["global_pad"].data.reshape(-1))


def test_embed_global_one_hot_lookup():
    cfg = toy_config(context_len=12)
    m = build(cfg, seed=3)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, cfg.vocab_size, size=12)
    out = m.embed_global(ids[None, :]).data[0]
    assert out.shape == (3, 16)
    # Patch k>=1 slot p holds the embedding of byte t=(k-1)*P+p at position t.
    for k in (1, 2):
        for p in range(4):
            t = (k - 1) * 4 + p
            expect = (m.params["global_embed"].data[ids[t]]
                      + m.params["global_pos"].data[t])
            assert np.allclose(out[k, p * 4:(p + 1) * 4], expect, atol=1e-15)
    # The last P bytes never enter the global input.
    ids[8:] = (ids[8:] + 1) % cfg.vocab_size
    assert np.array_equal(m.embed_global(ids[None, :]).data[0], out)


def test_embed_global_conv_stack_oracle():
    # With the conv encoder on, the byte + position rows go through the
    # 3-5-7 stack, each width adding relu(conv) to its input. The filters
    # are scaled up so that every conv moves the rows.
    cfg = toy_config(context_len=16, conv_encoder=True)
    m = build(cfg, seed=3)
    for w in CONV_WIDTHS:
        m.params[f"conv{w}"].data = m.params[f"conv{w}"].data * 50.0
    ids = np.random.default_rng(4).integers(0, cfg.vocab_size, size=(2, 16))
    out = m.embed_global(ids).data
    p = {name: t.data for name, t in m.params.items()}
    for b in range(2):
        x = p["global_embed"][ids[b]] + p["global_pos"]
        for w in CONV_WIDTHS:
            x = x + np.maximum(ref_causal_conv(x, p[f"conv{w}"]), 0.0)
        assert np.array_equal(out[b, 0], p["global_pad"].reshape(-1))
        assert np.allclose(out[b, 1:], x[:12].reshape(3, 16), rtol=0, atol=1e-12)


def test_embed_global_rejects_bad_byte():
    m = build(toy_config())
    with pytest.raises(ValueError):
        m.embed_global(np.array([[0, 1, 2, 3, 4, 5, 6, 99]]))


@pytest.mark.parametrize("conv", [False, True])
def test_embed_global_patch_range_matches_whole_sequence(conv):
    # Patches k0..k1-1 read only the bytes before patch k1 - 1 ends (the
    # cached decoder passes no more); the conv stack's lead-in reaches back
    # across up to three patches of P = 4.
    cfg = toy_config(context_len=64, conv_encoder=conv)
    m = build(cfg, seed=5)
    ids = np.random.default_rng(6).integers(0, cfg.vocab_size, size=(2, 64))
    whole = m.embed_global(ids).data
    for k1 in range(1, cfg.context_len // 4 + 1):
        for k0 in range(k1):
            part = m.embed_global(ids[:, :(k1 - 1) * 4], k0, k1).data
            assert np.array_equal(part, whole[:, k0:k1]), (k0, k1)
            uncut = m.embed_global(ids, k0, k1).data
            assert np.array_equal(uncut, whole[:, k0:k1]), (k0, k1)


@pytest.mark.parametrize("conv", [False, True])
def test_forward_embeds_no_byte_of_the_last_patch(conv, monkeypatch):
    # No global row reads the last patch's bytes (patch K's input would),
    # so forward neither embeds nor convolves them: embed_global hands
    # (K - 1) * P ids to its one embedding call.
    cfg = toy_config(context_len=64, conv_encoder=conv)
    m = build(cfg, seed=5)
    seen, real = [], T.embedding

    def recorded(table, ids):
        if table is m.params["global_embed"]:
            seen.append(np.shape(ids))
        return real(table, ids)

    monkeypatch.setattr(T, "embedding", recorded)
    with T.no_grad():
        m.forward(np.random.default_rng(6).integers(0, cfg.vocab_size, size=(2, 64)))
    assert seen == [(2, (64 // 4 - 1) * 4)]


# -- causal conv: the patch encoder's filters, one matmul per tap ---------------------

def test_conv_identity_filter():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(6, 3))
    kernel = np.zeros((3, 3, 3))
    kernel[-1] = np.eye(3)  # the tap aligned with the current sample
    out = _causal_conv(T.Tensor(x), T.Tensor(kernel))
    assert np.allclose(out.data, x, atol=1e-15)


def test_conv_causality():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(8, 2))
    kernel = rng.normal(size=(5, 2, 2))
    base = _causal_conv(T.Tensor(x), T.Tensor(kernel)).data
    for j in range(1, 8):
        mod = x.copy()
        mod[j] += 10.0
        out = _causal_conv(T.Tensor(mod), T.Tensor(kernel)).data
        assert np.array_equal(out[:j], base[:j])


@pytest.mark.parametrize("shape", [(4, 1), (2, 5, 2)], ids=["single", "batched"])
def test_conv_width3_hand_oracle(shape):
    # At batch > 1 each tap's rows are a non-contiguous slice of the padded input.
    rng = np.random.default_rng(15)
    x = rng.normal(size=shape)
    kernel = rng.normal(size=(3, shape[-1], shape[-1]))
    out = _causal_conv(T.Tensor(x), T.Tensor(kernel)).data
    want = [ref_causal_conv(row, kernel) for row in x.reshape((-1,) + shape[-2:])]
    assert np.allclose(out, np.reshape(want, out.shape), atol=1e-12)


def test_conv_grads_finite_differences():
    rng = np.random.default_rng(16)
    arrays = {"x": rng.normal(size=(5, 3)), "k": rng.normal(size=(3, 3, 2))}
    w = rng.normal(size=(5, 2))

    def build():
        ts = {name: T.Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
        ts["loss"] = (_causal_conv(ts["x"], ts["k"]) * T.Tensor(w)).sum()
        return ts

    _check_grads(build, arrays, tol=1e-5)


def test_every_weight_product_runs_in_matmul(monkeypatch):
    # One op holds every product with a weight matrix, the conv filters
    # included; only the tables read by row lookup, slicing or broadcast
    # reach the model otherwise.
    cfg = toy_config(context_len=16, conv_encoder=True, cross_patch_window=2)
    m = build(cfg, seed=7)
    operands = []
    real = T.matmul

    def recorded(a, b, bias=None, relu=False):
        operands.append(b.data)
        return real(a, b, bias, relu)

    monkeypatch.setattr(T, "matmul", recorded)
    m.forward(np.random.default_rng(8).integers(0, cfg.vocab_size, size=(2, 16)))
    tables = {"global_embed", "global_pos", "global_pad", "local_pad", "local_pos"}
    missed = [name for name, t in m.params.items()
              if t.ndim >= 2 and name not in tables
              and not any(np.shares_memory(t.data, b) for b in operands)]
    assert not missed, f"weights multiplied outside matmul: {missed}"


# -- global stack -------------------------------------------------------------------

def test_global_forward_zero_layers_is_identity():
    cfg = toy_config(global_layers=0)
    m = build(cfg)
    x = T.Tensor(np.random.default_rng(5).normal(size=(1, 2, 16)))
    out = m.global_forward(x)
    assert np.array_equal(out.data, x.data)


def test_global_forward_causal_over_patches():
    cfg = toy_config(context_len=16, patch_size=4)
    m = build(cfg, seed=6)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4, 16))
    base = m.global_forward(T.Tensor(x)).data
    for j in range(1, 4):
        mod = x.copy()
        mod[0, j] += 5.0
        out = m.global_forward(T.Tensor(mod)).data
        assert np.array_equal(out[0, :j], base[0, :j])


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_global_forward_kept_rows_match_all_rows(layers):
    # The last layer's queries on patches k0.. only: the matching rows of
    # the whole output (a GEMM over fewer rows may round differently).
    cfg = toy_config(context_len=16, global_layers=layers)
    m = build(cfg, seed=6)
    x = T.Tensor(np.random.default_rng(7).normal(size=(2, 4, 16)))
    whole = m.global_forward(x).data
    for k0 in range(4):
        kept = m.global_forward(x, k0=k0).data
        assert kept.shape == (2, 4 - k0, 16)
        assert np.allclose(kept, whole[:, k0:], rtol=0, atol=1e-12), k0


def test_global_forward_matches_reference_stack():
    cfg = toy_config(context_len=8, patch_size=4, global_dim=3, local_dim=4,
                     global_layers=1, global_heads=2)
    m = build(cfg, seed=8)
    x = np.random.default_rng(9).normal(size=(2, 12))
    out = m.global_forward(T.Tensor(x[None, :, :])).data[0]
    ref = ref_transformer_stack(x, m.params, "g", 1, heads=2)
    assert np.allclose(out, ref, atol=1e-10)


def test_global_forward_dropout_matches_reference_stack():
    # Dropout falls on each layer's attention output, then on its
    # feed-forward output, drawn in that order from the one rng; never on
    # the residual sum.
    cfg = toy_config(context_len=12, patch_size=4, global_dim=2, global_layers=2,
                     global_heads=2, dropout=0.5)
    m = build(cfg, seed=8)
    x = np.random.default_rng(9).normal(size=(3, 8))
    for s in range(3):
        out = m.global_forward(T.Tensor(x[None]), rng=np.random.default_rng(s)).data[0]
        ref = ref_transformer_stack(x, m.params, "g", 2, heads=2,
                                    drop=(0.5, np.random.default_rng(s)))
        assert np.allclose(out, ref, rtol=0, atol=1e-10), s


# -- combine and local stack ----------------------------------------------------------

def test_combine_zero_projection_leaves_byte_embedding():
    cfg = toy_config()
    m = build(cfg, seed=10)
    m.params["gl_proj"].data[:] = 0.0
    ids = np.arange(8)[None, :] % cfg.vocab_size
    h_g = T.Tensor(np.random.default_rng(11).normal(size=(1, 2, 16)))
    got = m.combine_for_local(m.project_global(h_g), ids).data
    expect = m._local_byte_embed(ids).data
    assert np.array_equal(got, expect)


def test_combine_identity_projection_passes_chunk():
    cfg = toy_config(global_dim=4, local_dim=4)
    m = build(cfg, seed=12)
    m.params["gl_proj"].data[:] = np.eye(4)
    ids = np.arange(8)[None, :] % cfg.vocab_size
    h_g = T.Tensor(np.random.default_rng(13).normal(size=(1, 2, 16)))
    got = m.combine_for_local(m.project_global(h_g), ids).data
    byte_part = m._local_byte_embed(ids).data
    assert np.allclose(got - byte_part, h_g.data.reshape(1, 2, 4, 4), atol=1e-15)


def test_combine_matches_naive_loop():
    # Position s of patch k reads the learned pad at s = 0 and byte kP + s - 1
    # after it; positions start..stop-1 alone (as decode asks for them) are
    # exactly those rows of the whole patch.
    cfg = toy_config(global_dim=3, local_dim=5, context_len=12, patch_size=4)
    m = build(cfg, seed=14)
    rng = np.random.default_rng(15)
    ids = rng.integers(0, cfg.vocab_size, size=12)
    h_g = rng.normal(size=(3, 12))
    slices = m.project_global(T.Tensor(h_g[None]))
    got = m.combine_for_local(slices, ids[None]).data[0]
    p = m.params
    for k in range(3):
        for pos in range(4):
            chunk = h_g[k, pos * 3:(pos + 1) * 3]
            if pos == 0:
                byte_emb = p["local_pad"].data
            else:
                byte_emb = p["local_embed"].data[ids[4 * k + pos - 1]]
            expect = chunk @ p["gl_proj"].data + byte_emb + p["local_pos"].data[pos]
            assert np.allclose(got[k, pos], expect, atol=1e-12)
    for start in range(4):
        for stop in range(start + 1, 5):
            part = m.combine_for_local(slices[:, :, start:stop], ids[None], start, stop).data[0]
            assert np.array_equal(part, got[:, start:stop]), (start, stop)


def test_local_forward_patch_independence_without_cross_patch():
    cfg = toy_config(cross_patch_window=0)
    m = build(cfg, seed=16)
    rng = np.random.default_rng(17)
    h = rng.normal(size=(1, 2, 4, 4))
    base = m.local_forward(T.Tensor(h)).data
    mod = h.copy()
    mod[0, 0] += 3.0  # perturb patch 0's local input
    out = m.local_forward(T.Tensor(mod)).data
    assert np.array_equal(out[0, 4:], base[0, 4:])  # patch 1 rows unchanged


def test_local_forward_logits_shape():
    for cfg in (toy_config(), toy_config(patch_size=1, local_heads=0),
                toy_config(patch_size=8)):
        m = build(cfg)
        k = cfg.context_len // cfg.patch_size
        h = np.zeros((1, k, cfg.patch_size, cfg.local_dim))
        out = m.local_forward(T.Tensor(h))
        assert out.shape == (1, cfg.context_len, cfg.vocab_size)


def test_local_forward_matches_reference_stack():
    # Each patch's slots at a layer are the previous patch's last r keys and
    # values at that layer, at rotary positions; without rotary, or with
    # other rows as slots, the log-probs move far past atol.
    h = np.random.default_rng(19).normal(size=(3, 4, 4))  # (K, P, D_L)
    for r in (0, 1, 2, 4):
        cfg = toy_config(context_len=12, patch_size=4, global_dim=2, local_dim=4,
                         local_layers=2, local_heads=2, vocab_size=5, cross_patch_window=r)
        m = build(cfg, seed=18)
        # The layers' weights 20x the init scale, as in the invariant suite,
        # so attention is far from uniform and a mixed-up slot shows.
        for name, t in m.params.items():
            if t.ndim > 1 and name.startswith("l") and name[1].isdigit():
                t.data = t.data * 20.0
        got = m.local_forward(T.Tensor(h[None])).data[0]
        rows = ref_transformer_stack(h, m.params, "l", 2, heads=2, window=r).reshape(12, 4)
        logits = rows @ m.params["local_embed"].data.T
        ref = logits - logits.max(axis=-1, keepdims=True)
        ref -= np.log(np.exp(ref).sum(axis=-1, keepdims=True))
        assert np.allclose(got, ref, rtol=0, atol=1e-10), r


@pytest.mark.parametrize("window", [0, 2])
def test_no_grad_local_layer_peaks_at_its_feed_forward(window, monkeypatch):
    # A unit is one (B, K, P, D_L) activation. Each name in a layer ends at
    # its last reader, so a no-grad local layer peaks at the residual sum
    # (1) plus the feed-forward's hidden rows before and after ReLU
    # (FF_MULT each). A quarter unit more covers small arrays; attention's
    # scores, P / D_L = 1/8 of a unit, die before the feed-forward runs.
    # Holding the normed rows, q, k, v and the attention output to the end,
    # as one name per intermediate does, measures 14-14.5. The finiteness
    # scan's masks are off, as under checked_once.
    b, k, p, d = 4, 32, 8, 64
    cfg = toy_config(context_len=k * p, patch_size=p, local_dim=d, local_heads=1,
                     cross_patch_window=window)
    m = build(cfg, seed=30)
    x = T.Tensor(np.random.default_rng(31).normal(size=(b, k, p, d)))
    monkeypatch.setattr(T, "_CHECK_OPS", False)
    with T.no_grad():
        peak = traced_peak(lambda: m._layer("l", 0, x))
    unit = x.data.nbytes
    assert peak <= (1 + 2 * FF_MULT + 0.25) * unit, peak / unit


@pytest.mark.parametrize("window,bound", [(0, 2 + FF_MULT + 0.25), (2, 7.25)])
def test_no_grad_local_layer_peaks_below_both_sides_of_its_relu(window, bound, scan_off):
    # Units as above, whose bound counts the hidden rows twice. The
    # feed-forward's ReLU runs in its GEMM's buffer, so the feed-forward
    # peaks at the residual sum, the normed rows and the one hidden array
    # (2 + FF_MULT units, 5.1 measured for it alone). Cross-patch attention
    # then sets the layer's peak: q, k and v with their slots and the
    # rotated copies of q and k measure 7.1 units.
    b, k, p, d = 4, 32, 8, 64
    cfg = toy_config(context_len=k * p, patch_size=p, local_dim=d, local_heads=1,
                     cross_patch_window=window)
    m = build(cfg, seed=30)
    x = T.Tensor(np.random.default_rng(31).normal(size=(b, k, p, d)))
    with T.no_grad():
        peak = traced_peak(lambda: m._layer("l", 0, x))
    unit = x.data.nbytes
    assert peak <= bound * unit, peak / unit


def test_cross_patch_extras_change_later_patch_only():
    cfg = toy_config(cross_patch_window=2)
    m = build(cfg, seed=20)
    rng = np.random.default_rng(21)
    h = rng.normal(size=(1, 2, 4, 4))
    base = m.local_forward(T.Tensor(h)).data
    mod = h.copy()
    mod[0, 0, 3, 1] += 1.0  # last slot of patch 0 is carried into patch 1
    out = m.local_forward(T.Tensor(mod)).data
    assert not np.array_equal(out[0, 4:], base[0, 4:])
    mod2 = h.copy()
    mod2[0, 0, 1, 1] += 1.0  # slot outside the carried window: patch 1 untouched
    out2 = m.local_forward(T.Tensor(mod2)).data
    assert np.array_equal(out2[0, 4:], base[0, 4:])


# -- full forward ------------------------------------------------------------------

ALL_VARIANTS = [
    dict(),
    dict(conv_encoder=True),
    dict(cross_patch_window=2),
    dict(conv_encoder=True, cross_patch_window=2),
    dict(no_local=True),
    dict(no_local=True, conv_encoder=True),
    dict(no_global=True),
    dict(no_global=True, cross_patch_window=2),
]


@pytest.mark.parametrize("over", ALL_VARIANTS)
def test_forward_distributions_normalized(over):
    cfg = toy_config(**over)
    m = build(cfg, seed=22)
    ids = np.random.default_rng(23).integers(0, cfg.vocab_size, size=8)
    out = m.forward(ids)
    assert out.shape == (8, cfg.vocab_size)
    assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0, atol=1e-9)


@pytest.mark.parametrize("over", ALL_VARIANTS)
def test_forward_causality(over):
    cfg = toy_config(**over)
    m = build(cfg, seed=24)
    rng = np.random.default_rng(25)
    ids = rng.integers(0, cfg.vocab_size, size=8)
    base = m.forward(ids).data
    for t in range(8):
        mod = ids.copy()
        mod[t] = (mod[t] + 1 + rng.integers(0, cfg.vocab_size - 1)) % cfg.vocab_size
        out = m.forward(mod).data
        assert np.array_equal(out[:t + 1], base[:t + 1]), f"leak at t={t} with {over}"


def test_forward_shape_law():
    for cfg in (toy_config(), toy_config(context_len=8, patch_size=8),
                toy_config(context_len=4, patch_size=1, local_heads=0)):
        m = build(cfg)
        ids = np.zeros(cfg.context_len, dtype=np.int64)
        h_g = m.global_forward(m.embed_global(ids[None]))
        k = cfg.context_len // cfg.patch_size
        assert h_g.shape == (1, k, cfg.patch_size * cfg.global_dim)
        assert m.forward(ids).shape == (cfg.context_len, cfg.vocab_size)


@pytest.mark.parametrize("bad", [99, -1])
@pytest.mark.parametrize("over", ALL_VARIANTS)
def test_forward_rejects_byte_outside_vocab(over, bad):
    # The bad id sits at a patch's last position, which no half of a
    # no_global model embeds; forward and the training loss still reject it.
    m = build(toy_config(**over))
    ids = np.array([[0, 1, 2, bad, 4, 5, 6, 7]])
    with pytest.raises(ValueError, match="byte id out of range"):
        m.forward(ids)
    with pytest.raises(ValueError, match="byte id out of range"):
        sequence_loss_bits(m.forward(ids, rng=np.random.default_rng(0)), ids,
                           np.ones_like(ids, dtype=bool))


@pytest.mark.parametrize("t", [6, 12], ids=["not-a-patch-multiple", "past-context"])
def test_forward_rejects_bad_length(t):
    m = build(toy_config())
    with pytest.raises(ValueError, match="input length"):
        m.forward(np.zeros(t, dtype=np.int64))


RANGE_VARIANTS = [
    dict(),
    dict(conv_encoder=True),
    dict(cross_patch_window=2),
    dict(conv_encoder=True, cross_patch_window=4),
    dict(no_local=True),
    dict(no_global=True),
]


@pytest.mark.parametrize("over", RANGE_VARIANTS)
def test_forward_range_matches_full_forward(over):
    # Patches k0.. and within-patch positions [0, stop) are the matching
    # rows of the full forward; a GEMM over fewer rows may round differently.
    cfg = toy_config(context_len=32, global_layers=2, local_layers=2, **over)
    m = build(cfg, seed=29)
    ids = np.random.default_rng(30).integers(0, cfg.vocab_size, size=(2, 32))
    p, v = cfg.patch_size, cfg.vocab_size
    k = cfg.context_len // p
    full = m.forward(ids).data.reshape(2, k, p, v)
    for k0 in range(k):
        for stop in range(1, p + 1):
            got = m.forward(ids, k0=k0, stop=stop).data
            assert got.shape == (2, (k - k0) * stop, v)
            want = full[:, k0:, :stop].reshape(2, -1, v)
            assert np.allclose(got, want, rtol=0, atol=1e-12), (over, k0, stop)
    for bad in (dict(k0=k), dict(k0=-1), dict(stop=0), dict(stop=p + 1)):
        with pytest.raises(ValueError, match="k0"):
            m.forward(ids, **bad)


def test_forward_eval_deterministic():
    cfg = toy_config(dropout=0.1)  # dropout configured but eval passes no rng
    m = build(cfg, seed=26)
    ids = np.random.default_rng(27).integers(0, cfg.vocab_size, size=8)
    assert np.array_equal(m.forward(ids).data, m.forward(ids).data)


def test_forward_dropout_draws_from_rng():
    cfg = toy_config(dropout=0.5)
    m = build(cfg, seed=28)
    ids = np.zeros(8, dtype=np.int64)
    a = m.forward(ids, rng=np.random.default_rng(1)).data
    b = m.forward(ids, rng=np.random.default_rng(1)).data
    c = m.forward(ids, rng=np.random.default_rng(2)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fresh_model_is_near_uniform():
    cfg = ModelConfig(context_len=32, patch_size=4, global_dim=8, local_dim=8,
                      global_layers=1, local_layers=1, dropout=0.0)
    m = build(cfg, seed=29)
    ids = np.random.default_rng(30).integers(0, 256, size=32)
    lp = m.forward(ids).data
    bpb = float(-lp[np.arange(32), ids].mean() / np.log(2))
    assert abs(bpb - 8.0) < 0.1


def test_config_validation():
    with pytest.raises(ValueError):
        toy_config(context_len=10)  # not a multiple of patch_size
    with pytest.raises(ValueError):
        toy_config(no_local=True, no_global=True)
    with pytest.raises(ValueError):
        toy_config(cross_patch_window=5)  # > patch_size
    with pytest.raises(ValueError):
        toy_config(local_dim=3, cross_patch_window=2)  # odd head dim w/ rotary


def test_parameter_inventory_excludes_unused_paths():
    names_base = {n for n, *_ in parameter_spec(toy_config())}
    names_no_local = {n for n, *_ in parameter_spec(toy_config(no_local=True))}
    names_no_global = {n for n, *_ in parameter_spec(toy_config(no_global=True))}
    assert "local_pad" not in names_no_local and "gl_proj" in names_no_local
    assert "global_embed" not in names_no_global and "local_embed" in names_no_global
    assert "conv3" not in names_base
    assert "conv3" in {n for n, *_ in parameter_spec(toy_config(conv_encoder=True))}


def test_count_params_splits_halves():
    cfg = toy_config()
    c = count_params(cfg)
    total = sum(int(np.prod(shape)) for _, shape, _, _ in parameter_spec(cfg))
    assert c["global"] + c["local"] + c["embed"] == total
    assert c["global"] > 0 and c["local"] > 0


def test_count_params_puts_conv_filters_in_global_half():
    plain, conv = toy_config(), toy_config(conv_encoder=True)
    filters = sum(int(np.prod(shape)) for name, shape, _, _ in parameter_spec(conv)
                  if name.startswith("conv"))
    assert filters > 0
    assert count_params(conv) == {**count_params(plain),
                                  "global": count_params(plain)["global"] + filters}


# -- end-to-end gradients ---------------------------------------------------------

@pytest.mark.parametrize("over", ALL_VARIANTS)
def test_training_backward_writes_into_no_forward_value(over):
    # One training forward with dropout: backward overwrites the gradients
    # it is handed, never a forward value, and every parameter gets its own.
    cfg = toy_config(dropout=0.1, **over)
    m = build(cfg, seed=27)
    ids = np.random.default_rng(28).integers(0, cfg.vocab_size, size=(2, 8))
    lp = m.forward(ids, rng=np.random.default_rng(29))
    leaves = backward_intact(sequence_loss_bits(lp, ids, np.ones_like(ids, dtype=bool)), lp.data)
    assert leaves and {id(t) for t in leaves} <= {id(t) for _, t in m.params.items()}


@pytest.mark.parametrize("over", ALL_VARIANTS)
def test_training_backwards_capture_no_tensor_or_record(over):
    # A recorded backward captures arrays, shapes and keys, never a Tensor
    # or a record, so the graph keeps alive only what backward reads;
    # nested closures (attention's split and merge) are searched too.
    cfg = toy_config(dropout=0.1, **over)
    m = build(cfg, seed=27)
    ids = np.random.default_rng(28).integers(0, cfg.vocab_size, size=(2, 8))
    loss = sequence_loss_bits(m.forward(ids, rng=np.random.default_rng(29)), ids,
                              np.ones_like(ids, dtype=bool))
    nodes = [r for r in graph_records(loss) if isinstance(r, T._Node)]
    held = [(type(obj).__name__, n._bp.__qualname__) for n in nodes for obj in captured(n._bp)
            if isinstance(obj, (T.Tensor, T._Node))]
    assert len(nodes) > 20 and not held, held


@pytest.mark.parametrize("over", ALL_VARIANTS)
def test_training_forward_holds_only_what_backward_reads(over, monkeypatch):
    # Between forward and backward the graph holds the arrays backwards
    # read, not every op output: the residual sums (layer_norm keeps xhat,
    # add only shapes) are freed in forward, except the sum that enters
    # each local layer's feed-forward, which its recompute keeps for the
    # replay; that feed-forward's ReLU output is freed too. The head's
    # logits and log-probs are one array, which log_softmax_last keeps.
    # Holding every output, as a graph of tensors does, measures 1.14-1.24
    # of what the ops made here.
    cfg = toy_config(dropout=0.1, global_dim=16, local_dim=16, vocab_size=256, **over)
    m = build(cfg, seed=27)
    ids = np.random.default_rng(28).integers(0, cfg.vocab_size, size=(8, 8))
    made, sums, relus, logits, scopes = [0], [], [], [], []
    result, add, matmul = T._result, T.Tensor.__add__, T.matmul
    layer, head = MegabyteDecoder._layer, MegabyteDecoder.output_head

    def counted(data, inputs, op, backprop):
        # recompute hands on the output that fn's last op made and counted;
        # the head's one array counts twice, as the output of matmul (the
        # logits) and of log_softmax_last (the log-probs)
        made[0] += data.nbytes if data.flags.owndata and op != "recompute" else 0
        return result(data, inputs, op, backprop)

    def traced_add(self, other):
        out = add(self, other)
        if scopes:
            sums.append((scopes[-1], weakref.ref(out.data)))
        return out

    def traced_matmul(a, b, bias=None, relu=False):
        out = matmul(a, b, bias, relu)
        if relu and scopes and scopes[-1] == "l":
            relus.append(weakref.ref(out.data))
        return out

    def traced_layer(self, scope, *args, **kwargs):
        scopes.append(scope)
        try:
            return layer(self, scope, *args, **kwargs)
        finally:
            scopes.pop()

    def traced_head(*args):
        out = head(*args)
        logits.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "_result", counted)
    monkeypatch.setattr(T.Tensor, "__add__", traced_add)
    monkeypatch.setattr(T, "matmul", traced_matmul)
    monkeypatch.setattr(MegabyteDecoder, "_layer", traced_layer)
    monkeypatch.setattr(MegabyteDecoder, "output_head", traced_head)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = sequence_loss_bits(m.forward(ids, rng=np.random.default_rng(29)), ids,
                                  np.ones_like(ids, dtype=bool))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 0.75 * made[0], held / made[0]
    # Each layer makes two sums, the first of which feeds its feed-forward.
    assert len(sums) == 2 * (m._depth("g") + m._depth("l")) and len(logits) == 1
    assert [r() is not None for _, r in sums] == [
        scope == "l" and j % 2 == 0 for j, (scope, _) in enumerate(sums)]
    assert len(relus) == m._depth("l") and all(r() is None for r in relus)
    assert logits[0]() is not None
    loss.backward()


@pytest.mark.parametrize("over", ALL_VARIANTS)
def test_no_grad_layer_input_ends_before_its_feed_forward(over, monkeypatch):
    # No name outside a layer holds its input, so under no_grad each
    # layer's input, the stacks' own inputs included, is freed once its
    # attention sub-block has read it, before its feed-forward runs.
    cfg = toy_config(global_layers=2, local_layers=2, **over)
    m = build(cfg, seed=32)
    ids = np.random.default_rng(33).integers(0, cfg.vocab_size, size=(2, 8))
    inputs, freed = {}, []
    attention, feed_forward = MegabyteDecoder._attention, MegabyteDecoder._feed_forward

    def traced_attention(self, scope, name, x, *args):
        owner = x.data if x.data.base is None else x.data.base
        inputs[name] = weakref.ref(owner)
        return attention(self, scope, name, x, *args)

    def traced_feed_forward(self, name, x):
        freed.append((name, inputs[name]() is None))
        return feed_forward(self, name, x)

    monkeypatch.setattr(MegabyteDecoder, "_attention", traced_attention)
    monkeypatch.setattr(MegabyteDecoder, "_feed_forward", traced_feed_forward)
    with T.no_grad():
        m.forward(ids)
    assert len(freed) == m._depth("g") + m._depth("l") > 0
    assert all(dead for _, dead in freed), freed


def _step_loss_and_grads(m: MegabyteDecoder, ids: np.ndarray):
    m.params.zero_grad()
    loss = sequence_loss_bits(m.forward(ids, rng=np.random.default_rng(29)), ids,
                              np.ones_like(ids, dtype=bool))
    loss.backward()
    return loss.data, {name: t.grad for name, t in m.params.items()}


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("over", ALL_VARIANTS)
def test_recompute_is_exact(over, dropout, monkeypatch, request):
    # A training step that rebuilds each local feed-forward in backward
    # gives the loss and every gradient bit for bit of one that keeps it.
    cfg = toy_config(dropout=dropout, global_layers=2, local_layers=2, global_dim=8,
                     local_dim=8, **over)
    m = build(cfg, seed=30)
    ids = np.random.default_rng(31).integers(0, cfg.vocab_size, size=(2, 8))
    calls, recompute = [], T.recompute
    monkeypatch.setattr(T, "recompute", lambda fn, x: calls.append(x) or recompute(fn, x))
    loss, grads = _step_loss_and_grads(m, ids)
    assert len(calls) == m._depth("l")
    request.getfixturevalue("no_recompute")
    kept_loss, kept_grads = _step_loss_and_grads(m, ids)
    assert np.array_equal(loss, kept_loss)
    assert grads.keys() == kept_grads.keys()
    for name, g in grads.items():
        assert g is not None and np.array_equal(g, kept_grads[name]), name


def _e2e_loss(m: MegabyteDecoder, ids: np.ndarray):
    lp = m.forward(ids)
    return sequence_loss_bits(lp, ids, np.ones_like(ids, dtype=bool))


def jitter_biases(m: MegabyteDecoder, seed: int, scale: float = 0.01) -> None:
    """Move zero-initialized biases to a generic point, away from the ReLU
    kinks that make central differences disagree with the true gradient."""
    rng = np.random.default_rng(seed)
    for name, t in m.params.items():
        if ".b" in name or name.endswith("bias"):
            t.data = t.data + rng.normal(scale=scale, size=t.data.shape)


def generic_point(m: MegabyteDecoder, ids, seed: int, jitter_seed: int) -> None:
    """Install init_weights(seed) plus bias jitter, re-drawn until no +-h step
    of a parameter flips a ReLU sign (attempt 0 uses seed and jitter_seed
    themselves; later attempts re-draw the weights too, since the conv
    filters have no bias to jitter)."""
    def fresh(attempt):
        m.params = init_weights(m.config, seed + 1000 * attempt)
        jitter_biases(m, jitter_seed + attempt)

    prepare_generic_point(m, ids, fresh, h=1e-5)


def test_prepare_generic_point_rejects_near_kink_draw():
    h = 1e-5
    cfg = toy_config(context_len=4, patch_size=2, global_dim=2, local_dim=2, vocab_size=5)
    m = build(cfg, seed=31)
    ids = np.random.default_rng(32).integers(0, 5, size=4)
    orig_relu, matmul = T.Tensor.relu, T.matmul

    def first_relu_input():
        # The feed-forward's ReLU runs in matmul: its input is the product
        # without it.
        seen = []

        def spying(a, b, bias=None, relu=False):
            if relu:
                seen.append(matmul(a, b, bias).data)
            return matmul(a, b, bias, relu)

        T.matmul = spying
        try:
            m.forward(ids)
        finally:
            T.matmul = matmul
        return seen[0].reshape(-1)

    def make_params(attempt):
        m.params = init_weights(cfg, 31)
        jitter_biases(m, seed=131)
        if attempt == 0:
            # The first ReLU is the global FF: shift its unit-0 bias so that
            # unit 0 at the first position sits h/4 above the kink.
            m.params["g0.ff.b1"].data[0] += h / 4 - z0

    make_params(1)
    z0 = first_relu_input()[0]
    make_params(0)
    assert 0 < first_relu_input()[0] < h / 2
    with pytest.raises(AssertionError, match=r"after 1 draws; .* step of \S+\[\d+\] flipped"):
        prepare_generic_point(m, ids, make_params, h, max_tries=1)
    assert prepare_generic_point(m, ids, make_params, h) == 1
    assert T.Tensor.relu is orig_relu and T.matmul is matmul
    swept = {k: t.data.copy() for k, t in m.params.items()}
    make_params(1)
    for k, t in m.params.items():
        assert np.array_equal(t.data, swept[k]), k


def test_end_to_end_gradients_small_config():
    cfg = ModelConfig(context_len=4, patch_size=2, global_dim=2, local_dim=2,
                      global_layers=1, local_layers=1, vocab_size=5,
                      global_heads=1, local_heads=1, dropout=0.0)
    m = build(cfg, seed=31)
    ids = np.random.default_rng(32).integers(0, 5, size=4)
    generic_point(m, ids, seed=31, jitter_seed=131)
    loss = _e2e_loss(m, ids)
    loss.backward()
    worst = 0.0
    for name, t in m.params.items():
        numeric = fd_grad(lambda: _e2e_loss(m, ids).item(), t.data)
        worst = max(worst, max_rel_err(t.grad, numeric))
    assert worst < 1e-4, f"max rel err {worst}"


def test_end_to_end_gradients_all_variants_on_sampled():
    cfg = ModelConfig(context_len=4, patch_size=2, global_dim=2, local_dim=2,
                      global_layers=1, local_layers=1, vocab_size=5,
                      global_heads=1, local_heads=1, dropout=0.0,
                      conv_encoder=True, cross_patch_window=2)
    m = build(cfg, seed=33)
    rng = np.random.default_rng(34)
    ids = rng.integers(0, 5, size=4)
    generic_point(m, ids, seed=33, jitter_seed=133)
    loss = _e2e_loss(m, ids)
    loss.backward()
    h = 1e-5
    worst = 0.0
    for name, t in m.params.items():
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            hi = _e2e_loss(m, ids).item()
            flat[i] = orig - h
            lo = _e2e_loss(m, ids).item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            worst = max(worst, max_rel_err(gflat[i], numeric))
    assert worst < 1e-4, f"max rel err {worst}"
