"""Analytical cost formulas: hand-arithmetic oracles in exact rationals,
the attention pairs recorded from a forward, and the sweep CSV."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import record_attention

from megabyte.costmodel import (
    ArchSpec,
    attention_ops,
    flops_per_token,
    optimal_patch,
    serial_steps,
    sweep_to_csv,
)
from megabyte.model import MegabyteDecoder, ModelConfig
from megabyte.training import init_weights

# Cost-comparison triples: (m_global, m_local) against a dense baseline m.
FIGURE_SIZES = [
    (452_000_000, 151_000_000, 660_000_000),
    (5_800_000_000, 604_000_000, 6_700_000_000),
    (170_000_000_000, 3_200_000_000, 173_000_000_000),
]


# -- flops_per_token ---------------------------------------------------------------

def test_transformer_flops():
    assert flops_per_token(ArchSpec("transformer", m=8)) == 16


def test_megabyte_flops_hand_arithmetic():
    spec = ArchSpec("megabyte", m_global=452_000_000, m_local=151_000_000, patch_size=8)
    got = flops_per_token(spec)
    assert got == Fraction(2 * (452_000_000 // 8 + 151_000_000))
    assert got == 415_000_000
    dense = flops_per_token(ArchSpec("transformer", m=660_000_000))
    assert dense == 1_320_000_000
    assert Fraction(dense, got) > 3  # roughly 3.2x cheaper


def test_megabyte_p1_no_local_reduces_to_transformer():
    mega = ArchSpec("megabyte", m_global=123_456, m_local=0, patch_size=1)
    dense = ArchSpec("transformer", m=123_456)
    assert flops_per_token(mega) == flops_per_token(dense)


def test_linear_transformer_adds_attention_term():
    spec = ArchSpec("linear_transformer", m=1000, embed_dim=64)
    assert flops_per_token(spec) == 2000 + 9 * 64


def test_p_times_larger_claim():
    # m_g = P * m with no local model costs the same per token as m.
    for p in (2, 8, 64):
        mega = ArchSpec("megabyte", m_global=p * 1_000_000, m_local=0, patch_size=p)
        dense = ArchSpec("transformer", m=1_000_000)
        assert flops_per_token(mega) == flops_per_token(dense)


def test_figure_triples_strictly_cheaper():
    for m_g, m_l, m_dense in FIGURE_SIZES:
        mega = flops_per_token(ArchSpec("megabyte", m_global=m_g, m_local=m_l, patch_size=8))
        dense = flops_per_token(ArchSpec("transformer", m=m_dense))
        assert mega < dense  # exact rationals, no tolerance


def test_spec_validation():
    with pytest.raises(ValueError):
        ArchSpec("rnn", m=10)
    with pytest.raises(ValueError):
        ArchSpec("transformer", m=0)
    with pytest.raises(ValueError):
        ArchSpec("megabyte", m_global=0, patch_size=8)
    with pytest.raises(ValueError):
        ArchSpec("linear_transformer", m=10, embed_dim=0)


@pytest.mark.parametrize("field", ["l_global", "l_local", "embed_dim"])
def test_spec_rejects_negative_counts(field):
    with pytest.raises(ValueError, match=field):
        ArchSpec("transformer", m=1000, **{field: -3})
    with pytest.raises(ValueError, match=field):
        ArchSpec("megabyte", m_global=4000, m_local=100, patch_size=4, **{field: -1})


# -- attention_ops --------------------------------------------------------------------

def test_attention_ops_hand_values():
    assert attention_ops(8192, 8) == 1_048_576 + 65_536 == 1_114_112
    assert attention_ops(8192) == 67_108_864


def test_attention_ops_degenerate_p_equals_t():
    t = 64
    assert attention_ops(t, t) == 1 + t * t


def test_attention_ops_masked_halves():
    assert attention_ops(64, 8, masked=True) == attention_ops(64, 8) / 2
    assert attention_ops(64, masked=True) == Fraction(64 * 64, 2)


def test_attention_ops_below_dense_for_nontrivial_p():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(3, 10000))
        p = int(rng.integers(2, t))
        assert attention_ops(t, p) < attention_ops(t), (t, p)


@pytest.mark.parametrize("heads", [1, 2, 0])   # 0 = auto
def test_instrumented_forward_matches_formula(monkeypatch, heads):
    # The law counts query-key pairs over positions: heads split the width
    # of each pair's score, so the count is the same at any head count.
    calls = record_attention(monkeypatch)
    for t, p in ((16, 4), (32, 4), (32, 8)):
        cfg = ModelConfig(context_len=t, patch_size=p, global_dim=4, local_dim=4,
                          global_layers=1, local_layers=1, vocab_size=7,
                          global_heads=heads, local_heads=heads, dropout=0.0)
        m = MegabyteDecoder(cfg, init_weights(cfg, 0))
        calls.clear()
        m.forward(np.zeros(t, dtype=np.int64))
        assert {c.heads for c in calls} == {cfg.global_heads, cfg.local_heads}
        assert sum(c.pairs for c in calls) == attention_ops(t, p), (t, p)


# -- optimal patch ---------------------------------------------------------------------

def test_optimal_patch_paper_rule_t4096():
    choice = optimal_patch(4096)
    assert choice.rule_of_thumb == pytest.approx(16.0)
    assert choice.rule_cost_bound == pytest.approx(65_536.0)


def test_optimal_patch_exact_minimizer():
    choice = optimal_patch(4096)
    assert choice.exact_minimizer == pytest.approx((2 * 4096) ** (1 / 3))
    assert choice.exact_minimizer == pytest.approx(20.16, abs=0.01)
    # the formula cost near the exact minimizer beats the rule of thumb
    assert attention_ops(4096, 20) <= attention_ops(4096, 16)


def test_optimal_patch_scan_all_integers():
    for t in (64, 4096, 1000):
        exact = optimal_patch(t).exact_minimizer
        costs = {p: attention_ops(t, p) for p in range(1, t + 1)}
        best = min(costs, key=costs.get)
        assert abs(best - exact) <= 1.0, (t, best, exact)


def test_optimal_patch_t1():
    choice = optimal_patch(1, round_to_divisor=True)
    assert choice.best_divisor == 1


def test_optimal_patch_divisor_rounding():
    choice = optimal_patch(4096, round_to_divisor=True)
    assert choice.best_divisor in (16, 32)
    assert 4096 % choice.best_divisor == 0


# -- serial steps ------------------------------------------------------------------------

def test_serial_steps_table4_ratio():
    mega, dense = serial_steps(24, 15, 8, 8192, transformer_layers=24)
    ratio = Fraction(mega, dense)
    assert ratio == Fraction(3, 4)
    observed = 93 / 132
    assert abs(float(ratio) - observed) < 0.10


def test_serial_steps_default_baseline_depth():
    mega, dense = serial_steps(4, 2, 4, 16)
    assert mega == 4 * (4 + 4 * 2) == 48
    assert dense == 16 * 6 == 96


def test_serial_steps_no_local_layers():
    mega, dense = serial_steps(12, 0, 8, 64, transformer_layers=12)
    assert mega * 8 == dense  # 1/P of the dense global term


def test_serial_steps_p1_equal():
    mega, dense = serial_steps(3, 2, 1, 32)
    assert mega == dense


def test_serial_steps_ratio_limit():
    # With fixed layers, the ratio tends to l_local / (l_global + l_local).
    lg, ll = 24, 8
    t = 1 << 20
    for p in (256, 1024, 4096):
        mega, dense = serial_steps(lg, ll, p, t)
        assert abs(mega / dense - ll / (lg + ll)) < lg / (p * (lg + ll)) + 1e-12


def test_serial_steps_requires_divisibility():
    with pytest.raises(ValueError):
        serial_steps(2, 2, 5, 16)


# -- sweep -----------------------------------------------------------------------------------

def test_sweep_row_count_and_header():
    specs = [ArchSpec("transformer", m=1000, l_global=2),
             ArchSpec("megabyte", m_global=4000, m_local=100, patch_size=4, l_global=2, l_local=1)]
    out = sweep_to_csv(specs, [64, 128, 256])
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "kind,m_g,m_l,P,D,T,flops_per_token,attn_ops,serial_steps"
    assert len(lines) == 1 + len(specs) * 3


def test_sweep_notes_linear_attention_caveat():
    out = sweep_to_csv([ArchSpec("linear_transformer", m=10, embed_dim=4)], [8])
    assert out.startswith("#") and "undercount" in out.splitlines()[0]


def test_sweep_figure_triple_always_cheaper():
    specs = []
    for m_g, m_l, m_dense in FIGURE_SIZES:
        specs.append(ArchSpec("megabyte", m_global=m_g, m_local=m_l, patch_size=8))
        specs.append(ArchSpec("transformer", m=m_dense))
    seq_lens = [8192, 65536, 1 << 20]
    out = sweep_to_csv(specs, seq_lens)
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    # mega rows and dense rows alternate in spec order; compare pairwise per T
    for s in range(0, len(specs), 2):
        for j, t in enumerate(seq_lens):
            mega_flops = float(rows[s * len(seq_lens) + j][6])
            dense_flops = float(rows[(s + 1) * len(seq_lens) + j][6])
            assert mega_flops < dense_flops


def test_sweep_transformer_flops_independent_of_t():
    out = sweep_to_csv([ArchSpec("transformer", m=5000)], [16, 64, 1024])
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    assert len({row[6] for row in rows}) == 1


def test_sweep_rejects_empty():
    with pytest.raises(ValueError):
        sweep_to_csv([], [64])
    with pytest.raises(ValueError):
        sweep_to_csv([ArchSpec("transformer", m=10)], [])
