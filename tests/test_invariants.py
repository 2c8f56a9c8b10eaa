"""Invariants over seeded random configs: cached greedy decode equals
teacher forcing, and every `forward(k0, stop)` range equals the matching
rows of the full forward.

Each case draws patch size, patch count, depths, dims, explicit head
counts (from the divisors of each half's width), conv, the cross-patch
window and the ablations, so the multi-head and slot paths that the
hand-picked variant lists rarely reach are covered too."""

import numpy as np
import pytest

from megabyte.inference import generate
from megabyte.model import MegabyteDecoder, ModelConfig
from megabyte.training import init_weights

CASES = 100


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


@pytest.mark.parametrize("case", range(CASES))
def test_random_config_invariants(case):
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
