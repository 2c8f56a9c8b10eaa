"""Invariants over seeded random configs: cached greedy decode equals
teacher forcing, every `forward(k0, stop)` range equals the matching rows
of the full forward, every `global_forward(h, k0=k)` equals the matching
rows of the full global stack, (where P and T are even) every
`evaluate_bpb` mode equals the padded-window oracle of `test_inference`,
and, on every SCAN_EVERY-th case, each `checked_once` entry point returns
the same bits with the per-op finiteness scan off, as it runs, and on,
and (if the case is small enough, FD_PARAMS) every parameter gradient
matches central finite differences at 1e-4.

Each case draws patch size, patch count, depths, dims, explicit head
counts (from the divisors of each half's width), conv, the cross-patch
window and the ablations, so the multi-head and slot paths that the
hand-picked variant lists rarely reach are covered too."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import count_scans, fd_grad, max_rel_err, prepare_generic_point
from test_inference import padded_window_bpb

from megabyte.data import Document
from megabyte.inference import MODE_COST, _window_scores, evaluate_bpb, generate
from megabyte.model import MegabyteDecoder, ModelConfig, parameter_spec
from megabyte.tensor import no_grad
from megabyte.training import _step_gradients, init_weights, sequence_loss_bits

CASES = 100
SCAN_EVERY = 4
ENTRY_CHECKS = {"scoring", "decoding"}   # scans the entry points make themselves
FD_VOCAB = 5       # the FD cases' vocabulary, so that the tied table stays small
FD_PARAMS = 300    # largest parameter count, at FD_VOCAB, an FD case sweeps


def _divisors(n):
    return [h for h in range(1, n + 1) if n % h == 0]


def draw_config(rng):
    p = int(rng.integers(1, 9))
    r = int(rng.integers(0, p + 1))
    dg, dl = int(rng.choice([1, 2, 3, 4])), int(rng.choice([2, 4, 6, 8, 12]))
    ablation = rng.choice(["", "", "no_local", "no_global"])
    # Cross-patch rotary positions need an even local head dim.
    local_heads = [h for h in _divisors(dl) if r == 0 or (dl // h) % 2 == 0]
    return ModelConfig(
        context_len=p * int(rng.integers(1, 6)), patch_size=p,
        global_dim=dg, local_dim=dl,
        global_layers=int(rng.integers(0, 3)), local_layers=int(rng.integers(0, 3)),
        global_heads=int(rng.choice(_divisors(p * dg))),
        local_heads=int(rng.choice(local_heads)),
        cross_patch_window=r, conv_encoder=bool(rng.integers(0, 2)),
        no_local=ablation == "no_local", no_global=ablation == "no_global", dropout=0.0)


def build(cfg, seed):
    # Weights 20x the init scale, so attention is far from uniform and a
    # mixed-up row, head or slot moves the log-probs well past atol.
    params = init_weights(cfg, seed)
    for name, t in params.items():
        if t.ndim > 1 and not name.endswith(("_embed", "_pos", "_pad")):
            t.data = t.data * 20.0
    return MegabyteDecoder(cfg, params)


def assert_bit_identical(got, want):
    if isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bit_identical(g, w)
    elif got is None or want is None:
        assert got is want
    else:
        g, w = np.asarray(got), np.asarray(want)
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def scan_off_and_on(scans, fn, *args, read=lambda out: out):
    """What fn returns as it runs (per-op scan off) and what its
    `__wrapped__` original returns with the scan on, each passed through
    `read` right after its call."""
    runs = []
    for f, scanned in ((fn, False), (fn.__wrapped__, True)):
        scans.clear()
        runs.append(read(f(*args)))
        assert bool(set(scans) - ENTRY_CHECKS) == scanned, fn.__name__
    return runs


def check_scan_on_off(m, ids, p_len, seed, scans):
    cfg = m.config
    for strided in (False, True) if cfg.patch_size % 2 == 0 else (False,):
        assert_bit_identical(*scan_off_and_on(scans, _window_scores, m, ids, strided, p_len))

    prompt = bytes(ids[:p_len].astype(np.uint8))
    assert_bit_identical(*scan_off_and_on(
        scans, generate, m, prompt, len(ids) - p_len, 1.0, seed,
        read=lambda tr: (tr.data, tr.logprobs, tr.serial_steps, tr.total_serial_steps)))

    # One training step's loss, grad norm and every gradient, under dropout.
    d = MegabyteDecoder(replace(cfg, dropout=0.1), m.params)
    inputs = np.stack([ids, ids[::-1]])
    rng = np.random.default_rng(seed)
    assert_bit_identical(*scan_off_and_on(
        scans, _step_gradients, d, inputs, np.ones(inputs.shape, dtype=bool), rng,
        rng.bit_generator.state,
        read=lambda out: (out, [None if t.grad is None else t.grad.copy()
                                for _, t in d.params.items()])))


def check_fd_gradients(cfg, seed, rng):
    """For the drawn architecture at FD_VOCAB, if it has at most FD_PARAMS
    parameters there (each costs four forwards): every parameter's gradient
    of the loss over all positions against central differences, at init
    weights re-drawn, with jittered biases, until no +-h step of a
    parameter flips a ReLU sign."""
    cfg = replace(cfg, vocab_size=FD_VOCAB)
    if sum(int(np.prod(shape)) for _, shape, _, _ in parameter_spec(cfg)) > FD_PARAMS:
        return
    h = 1e-5
    ids = rng.integers(0, cfg.vocab_size, size=cfg.context_len)
    mask = np.ones(ids.shape, dtype=bool)
    m = MegabyteDecoder(cfg, init_weights(cfg, seed))

    def fresh(attempt):
        m.params = init_weights(cfg, seed + 1000 * attempt)
        jitter = np.random.default_rng(attempt)
        for name, t in m.params.items():
            if ".b" in name or name.endswith("bias"):
                t.data = t.data + jitter.normal(scale=0.01, size=t.shape)

    prepare_generic_point(m, ids, fresh, h)

    def loss():
        return sequence_loss_bits(m.forward(ids), ids, mask)

    loss().backward()
    with no_grad():
        for name, t in m.params.items():
            err = max_rel_err(t.grad, fd_grad(lambda: loss().item(), t.data, h))
            assert err < 1e-4, (cfg, name, err)


@pytest.mark.parametrize("case", range(CASES))
def test_random_config_invariants(case, monkeypatch):
    rng = np.random.default_rng(1000 + case)
    cfg = draw_config(rng)
    m = build(cfg, seed=case)
    t, p, v = cfg.context_len, cfg.patch_size, cfg.vocab_size

    p_len = int(rng.integers(0, t))
    prompt = bytes(rng.integers(0, 256, size=p_len, dtype=np.uint8))
    trace = generate(m, prompt, t - p_len, temperature=0.0)
    full = np.frombuffer(prompt + trace.data, dtype=np.uint8).astype(np.int64)
    lp = m.forward(full).data
    forced = lp[np.arange(p_len, t), full[p_len:]]
    assert np.allclose(trace.logprobs, forced, rtol=0, atol=1e-10), (cfg, p_len)

    k = t // p
    whole = lp.reshape(k, p, v)
    for k0 in range(k):
        for stop in range(1, p + 1):
            got = m.forward(full, k0=k0, stop=stop).data
            want = whole[k0:, :stop].reshape(-1, v)
            assert np.allclose(got, want, rtol=0, atol=1e-12), (cfg, k0, stop)

    if cfg.global_active:
        h = m.embed_global(full[None])
        stack = m.global_forward(h).data
        for k0 in range(k):
            got = m.global_forward(h, k0=k0).data
            assert np.allclose(got, stack[:, k0:], rtol=0, atol=1e-12), (cfg, k0)

    if p % 2 == 0 and t % 2 == 0:
        n = int(rng.integers(p, 3 * t + 1))
        docs = [Document("d", bytes(rng.integers(0, 256, size=n, dtype=np.uint8)))]
        for mode in MODE_COST:
            got = evaluate_bpb(m, docs, mode).bpb
            assert abs(got - padded_window_bpb(m, docs, mode)) <= 1e-12, (cfg, n, mode)

    if case % SCAN_EVERY == 0:
        check_scan_on_off(m, full, p_len, case, count_scans(monkeypatch))
        check_fd_gradients(cfg, case, rng)
