"""Evaluation modes, strided mechanics, cached generation against the
teacher-forced oracle, and the serial-step accounting."""

import math
import re
import warnings

import numpy as np
import pytest

from conftest import count_scans, overflow_local_ff, record_attention

from megabyte import tensor as T
from megabyte.data import Document
from megabyte.inference import (
    MODE_COST,
    evaluate_bpb,
    generate,
    strided_partition,
    _window_scores,
)
from megabyte.model import KVCache, MegabyteDecoder, ModelConfig
from megabyte.tensor import Tensor
from megabyte.training import init_weights


def small_config(**over):
    base = dict(context_len=16, patch_size=4, global_dim=4, local_dim=8,
                global_layers=1, local_layers=1, vocab_size=256, dropout=0.0)
    base.update(over)
    return ModelConfig(**base)


def build(cfg, seed=0):
    return MegabyteDecoder(cfg, init_weights(cfg, seed))


def zeroed_model(cfg):
    """All-zero parameters: constant logits, so predictions are uniform and
    independent of within-patch position."""
    params = init_weights(cfg, seed=0)
    for _, t in params.items():
        t.data = np.zeros_like(t.data)
    return MegabyteDecoder(cfg, params)


class OracleModel:
    """Stub that assigns probability 1 to whatever byte actually appears."""

    def __init__(self, cfg):
        self.config = cfg

    def forward(self, ids, rng=None, k0=0, stop=None):
        ids = np.asarray(ids)
        p, v = self.config.patch_size, self.config.vocab_size
        lp = np.full(ids.shape + (v,), -1e9)
        np.put_along_axis(lp, ids[..., None], 0.0, axis=-1)
        lp = lp.reshape(ids.shape[:-1] + (-1, p, v))[..., k0:, :stop, :]
        return Tensor(lp.reshape(ids.shape[:-1] + (-1, v)))


def random_docs(total, seed=0, pieces=1):
    rng = np.random.default_rng(seed)
    sizes = [total // pieces] * pieces
    sizes[-1] += total - sum(sizes)
    return [Document(f"d{i}", bytes(rng.integers(0, 256, size=n, dtype=np.uint8)))
            for i, n in enumerate(sizes)]


# -- evaluate_bpb -----------------------------------------------------------------

def test_uniform_model_scores_exactly_eight():
    cfg = small_config()
    m = zeroed_model(cfg)
    report = evaluate_bpb(m, random_docs(64, seed=1), mode="basic")
    assert report.bpb == 8.0
    assert report.cost_multiplier == 1


def test_oracle_model_scores_zero():
    cfg = small_config()
    report = evaluate_bpb(OracleModel(cfg), random_docs(48, seed=2), mode="basic")
    assert report.bpb == 0.0


@pytest.mark.parametrize("mode", sorted(MODE_COST))
def test_eval_rejects_byte_outside_vocab_on_no_global(mode):
    # Byte 99 sits at the last position of a patch, which no half of a
    # no_global model embeds; a document's bytes cannot be negative.
    m = build(small_config(no_global=True, vocab_size=11))
    with pytest.raises(ValueError, match="byte id out of range"):
        evaluate_bpb(m, [Document("d", bytes([0, 1, 2, 99, 4, 5, 6, 7]))], mode)


def target_logprobs(model, ids):
    return model.forward(ids).data[np.arange(len(ids)), ids]


def padded_window_bpb(model, docs, mode):
    """bpb from model.forward on zero-padded full-T windows, with the window
    offsets, sliding keep-from and strided pass-B selection built here."""
    t, p = model.config.context_len, model.config.patch_size
    half = p // 2
    sliding = mode in ("sliding", "sliding+strided")
    strided = mode in ("strided", "sliding+strided")
    step = t // 2 if sliding else t
    bits, count = 0.0, 0
    for doc in docs:
        raw = np.frombuffer(doc.data, dtype=np.uint8).astype(np.int64)
        offsets = [0]
        while offsets[-1] + t < len(raw):
            offsets.append(offsets[-1] + step)
        for o in offsets:
            window = np.zeros(t, dtype=np.int64)
            real = raw[o:o + t]
            window[:len(real)] = real
            lp_a = target_logprobs(model, window)
            lp_b = target_logprobs(model, np.concatenate([window[half:], np.zeros(half, np.int64)]))
            for j in range(t // 2 if sliding and o else 0, len(real)):
                if strided and j % p >= half:
                    bits -= lp_b[j - half] / math.log(2)
                else:
                    bits -= lp_a[j] / math.log(2)
                count += 1
    return bits / count


ORACLE_VARIANTS = [dict(), dict(conv_encoder=True), dict(cross_patch_window=2),
                   dict(no_local=True), dict(no_global=True)]


def test_every_mode_matches_padded_window_oracle():
    # Windows run at their own length; scores must equal those of full-T
    # zero-padded windows, for short, exact, multi-window and multi-document corpora.
    for over in ORACLE_VARIANTS:
        cfg = small_config(**over)
        m = build(cfg, seed=3)
        for lengths in ((5,), (16,), (48,), (23, 3), (40, 17, 1)):
            docs = [Document(f"d{i}", bytes(np.random.default_rng(4 + i).integers(
                0, 256, size=n, dtype=np.uint8))) for i, n in enumerate(lengths)]
            for mode in MODE_COST:
                report = evaluate_bpb(m, docs, mode=mode)
                assert int(report.per_position_count.sum()) == sum(lengths)
                assert report.bpb == pytest.approx(padded_window_bpb(m, docs, mode), abs=1e-12), \
                    (over, lengths, mode)


@pytest.mark.parametrize("cross, expected", [
    # T=32, P=4, sliding+strided: each pass keeps within-patch positions
    # [0, 2) of its frame. 40 bytes: window 0 keeps all 8 patches, 2 x 8 x 2
    # rows; window 1 (offset 16, 24 bytes) keeps patches 4-5, 2 x 2 x 2.
    # 7 bytes: 2 patches, 2 x 2 x 2.
    (0, 32 + 8 + 8),
    # Cross-patch slots read the patch before: every row of every pass,
    # 2 x (32 + 24 + 8).
    (2, 2 * (32 + 24 + 8)),
])
def test_eval_runs_local_half_on_scored_rows_only(monkeypatch, cross, expected):
    rows = []
    real = MegabyteDecoder.local_forward

    def counted(self, h, *args, **kwargs):
        rows.append(int(np.prod(h.shape[:-1])))
        return real(self, h, *args, **kwargs)

    monkeypatch.setattr(MegabyteDecoder, "local_forward", counted)
    cfg = small_config(context_len=32, cross_patch_window=cross)
    docs = [Document("a", bytes(range(40))), Document("b", bytes(range(7)))]
    evaluate_bpb(build(cfg, seed=28), docs, mode="sliding+strided")
    assert sum(rows) == expected


def global_attention(calls):
    """(t_q, t_k) of each recorded global-stack call: global queries have
    one leading dim (B,), local ones two (B, K)."""
    return [(c.t_q, c.t_k) for c in calls if len(c.lead) == 1]


def test_eval_last_global_layer_queries_kept_patches_only(monkeypatch):
    # T=32, P=4, two global layers, sliding. Window 0 keeps all 8 patches.
    # Window 1 (offset 16, 24 bytes, K=6) keeps patches k0=4.. only: its
    # first layer runs every patch, its last queries K - k0 = 2 of 6.
    calls = record_attention(monkeypatch)
    cfg = small_config(context_len=32, global_layers=2)
    evaluate_bpb(build(cfg, seed=28), [Document("a", bytes(range(40)))], mode="sliding")
    assert global_attention(calls) == [(8, 8), (8, 8), (6, 6), (2, 6)]


def test_eval_rejects_tiny_corpus():
    cfg = small_config()
    with pytest.raises(ValueError, match="shorter than one patch"):
        evaluate_bpb(build(cfg), [Document("d", b"ab")], mode="basic")


def test_eval_rejects_unknown_mode():
    with pytest.raises(ValueError):
        evaluate_bpb(build(small_config()), random_docs(32), mode="fancy")


def test_mode_cost_multipliers():
    assert MODE_COST == {"basic": 1, "sliding": 2, "strided": 2, "sliding+strided": 4}
    cfg = small_config()
    m = zeroed_model(cfg)
    docs = random_docs(80, seed=5)
    for mode, mult in MODE_COST.items():
        assert evaluate_bpb(m, docs, mode=mode).cost_multiplier == mult


def test_per_position_vector_averages_back_to_bpb():
    cfg = small_config()
    m = build(cfg, seed=6)
    for mode in ("basic", "sliding", "strided", "sliding+strided"):
        report = evaluate_bpb(m, random_docs(100, seed=7), mode=mode)
        n = report.per_position_count.sum()
        weighted = float((report.per_position_loss * report.per_position_count).sum() / n)
        assert weighted == pytest.approx(report.bpb, abs=1e-10)


def test_each_mode_scores_every_byte_once():
    cfg = small_config()
    m = zeroed_model(cfg)
    total = 100
    docs = random_docs(total, seed=8, pieces=2)
    for mode in ("basic", "sliding", "strided", "sliding+strided"):
        report = evaluate_bpb(m, docs, mode=mode)
        assert int(report.per_position_count.sum()) == total, mode


# -- strided mechanics ------------------------------------------------------------

def test_strided_partition_t16_p4():
    a, b = strided_partition(16, 4)
    assert a.tolist() == [0, 1, 4, 5, 8, 9, 12, 13]
    assert b.tolist() == [2, 3, 6, 7, 10, 11, 14, 15]


def test_strided_partition_is_exact():
    for t, p in ((16, 4), (32, 8), (12, 2), (64, 16)):
        a, b = strided_partition(t, p)
        joined = np.sort(np.concatenate([a, b]))
        assert np.array_equal(joined, np.arange(t))


def test_strided_rejects_odd_patch():
    with pytest.raises(ValueError):
        strided_partition(9, 3)
    cfg = small_config(context_len=9, patch_size=3, local_heads=1)
    m = build(cfg)
    with pytest.raises(ValueError, match="even patch size"):
        evaluate_bpb(m, [Document("d", bytes(9))], mode="strided")


def test_strided_equals_selection_from_both_passes():
    cfg = small_config()
    m = build(cfg, seed=9)
    rng = np.random.default_rng(10)
    window = rng.integers(0, 256, size=16)
    combined, frame_pos = _window_scores(m, window, strided=True)
    assert frame_pos.tolist() == [0, 1, 0, 1] * 4

    lp_a = m.forward(window).data[np.arange(16), window]
    shifted = np.concatenate([window[2:], np.zeros(2, dtype=window.dtype)])
    lp_b_frame = m.forward(shifted).data[np.arange(16), shifted]
    for t in range(16):
        if t % 4 < 2:
            assert combined[t] == lp_a[t]
        else:
            assert combined[t] == lp_b_frame[t - 2]


def test_strided_equals_basic_for_position_independent_model():
    cfg = small_config()
    m = zeroed_model(cfg)
    docs = random_docs(64, seed=11)
    basic = evaluate_bpb(m, docs, mode="basic").bpb
    strided = evaluate_bpb(m, docs, mode="strided").bpb
    assert abs(basic - strided) < 1e-10


def test_strided_fills_first_half_positions_only():
    cfg = small_config()
    report = evaluate_bpb(build(cfg, seed=12), random_docs(64, seed=13), mode="strided")
    assert np.all(report.per_position_count[:2] > 0)
    assert np.all(report.per_position_count[2:] == 0)


# -- sliding ------------------------------------------------------------------------

def test_sliding_keeps_later_halves():
    cfg = small_config()
    m = zeroed_model(cfg)
    docs = random_docs(40, seed=14)
    report = evaluate_bpb(m, docs, mode="sliding")
    assert int(report.per_position_count.sum()) == 40
    assert report.bpb == 8.0


# -- generation --------------------------------------------------------------------------

GEN_VARIANTS = [
    dict(),
    dict(conv_encoder=True),
    dict(cross_patch_window=2),
    dict(conv_encoder=True, cross_patch_window=2),
    dict(no_local=True),
    dict(no_global=True),
    dict(no_global=True, cross_patch_window=2),
    # Past its first 12 + P bytes, decode embeds only a window for the conv.
    dict(conv_encoder=True, context_len=32),
    # Every slot: a patch's slots are the whole patch before (lead == capacity).
    dict(cross_patch_window=4),
]


@pytest.mark.parametrize("over", GEN_VARIANTS)
def test_greedy_generation_matches_teacher_forcing(over):
    # Prompts that are empty, end mid-patch, end on a boundary, and span
    # two patches; each run fills the context.
    cfg = small_config(**over)
    m = build(cfg, seed=15)
    rng = np.random.default_rng(16)
    for p_len in (0, 3, 4, 9):
        prompt = bytes(rng.integers(0, 256, size=p_len, dtype=np.uint8))
        trace = generate(m, prompt, cfg.context_len - p_len, temperature=0.0)
        full = np.frombuffer(prompt + trace.data, dtype=np.uint8).astype(np.int64)
        lp = m.forward(full).data
        forced = lp[np.arange(p_len, cfg.context_len), full[p_len:]]
        assert np.allclose(trace.logprobs, forced, rtol=0, atol=1e-10), (over, p_len)


LONG_PROMPT_VARIANTS = [
    dict(),
    dict(cross_patch_window=2),
    dict(conv_encoder=True, cross_patch_window=3),
    dict(no_local=True),
    dict(no_global=True, cross_patch_window=2),
    dict(conv_encoder=True),
]


@pytest.mark.parametrize("over", LONG_PROMPT_VARIANTS)
def test_long_prompt_generation_matches_teacher_forcing(over):
    # Prompts of every length up to 29 bytes (0 to 7 whole patches plus a
    # tail) through two layers per half; each run fills the context.
    cfg = small_config(context_len=32, global_layers=2, local_layers=2, **over)
    m = build(cfg, seed=21)
    rng = np.random.default_rng(22)
    for p_len in range(30):
        prompt = bytes(rng.integers(0, 256, size=p_len, dtype=np.uint8))
        trace = generate(m, prompt, cfg.context_len - p_len, temperature=0.0)
        full = np.frombuffer(prompt + trace.data, dtype=np.uint8).astype(np.int64)
        forced = m.forward(full).data[np.arange(p_len, cfg.context_len), full[p_len:]]
        assert np.allclose(trace.logprobs, forced, rtol=0, atol=1e-10), (over, p_len)


def count_stack_calls(monkeypatch):
    calls = []
    real = MegabyteDecoder._stack

    def counted(self, scope, x, *args, **kwargs):
        calls.append(scope)
        return real(self, scope, x, *args, **kwargs)

    monkeypatch.setattr(MegabyteDecoder, "_stack", counted)
    return calls


@pytest.mark.parametrize("prompt_len", [12, 14, 16])
def test_prompt_prefill_is_one_global_call(monkeypatch, prompt_len):
    calls = count_stack_calls(monkeypatch)
    embeds = []
    real_embed = MegabyteDecoder.embed_global
    monkeypatch.setattr(MegabyteDecoder, "embed_global",
                        lambda self, *a, **kw: embeds.append(a) or real_embed(self, *a, **kw))
    cfg = small_config(context_len=32)
    m = build(cfg, seed=23)
    prompt = bytes(range(prompt_len))
    generate(m, prompt, 0)
    assert calls == [] and embeds == []
    # The first byte's call runs the prompt too, so only later patch starts
    # add a global call.
    for n in (1, 5, 32 - prompt_len):
        calls.clear()
        embeds.clear()
        generate(m, prompt, n, temperature=0.0)
        starts = sum(1 for t in range(prompt_len + 1, prompt_len + n) if t % cfg.patch_size == 0)
        assert calls.count("g") == 1 + starts, n
        assert len(embeds) == calls.count("g"), n
        if n == 1:
            assert calls.count("l") == 1


@pytest.mark.parametrize("prompt_len", [0, 4, 16])
def test_patch_aligned_prompt_runs_its_first_byte_in_the_same_calls(monkeypatch, prompt_len):
    # The first byte starts a patch: it rides in the prompt's global call as
    # one more row, and the local stack runs on that one row only.
    calls = []
    real = MegabyteDecoder._stack

    def recorded(self, scope, rows, *args, **kwargs):
        calls.append((scope, rows[0].shape[-2]))
        return real(self, scope, rows, *args, **kwargs)

    monkeypatch.setattr(MegabyteDecoder, "_stack", recorded)
    cfg = small_config(context_len=32)
    generate(build(cfg, seed=23), bytes(range(prompt_len)), 1)
    assert calls == [("g", prompt_len // cfg.patch_size + 1), ("l", 1)]


@pytest.mark.parametrize("over", GEN_VARIANTS)
def test_first_byte_alone_matches_the_full_call(over):
    # generate(prompt, 1) makes the same first call as generate(prompt, n):
    # the same byte and log-prob, bit for bit, greedy and sampled.
    cfg = small_config(**over)
    m = build(cfg, seed=29)
    rng = np.random.default_rng(30)
    for p_len in range(2 * cfg.patch_size + 2):
        prompt = bytes(rng.integers(0, 256, size=p_len, dtype=np.uint8))
        for temperature in (0.0, 1.0):
            first = generate(m, prompt, 1, temperature=temperature, seed=p_len)
            full = generate(m, prompt, cfg.context_len - p_len, temperature=temperature,
                            seed=p_len)
            assert first.data == full.data[:1], (p_len, temperature)
            assert first.logprobs[0] == full.logprobs[0], (p_len, temperature)


def test_cross_patch_prefill_runs_local_once_per_prompt_patch(monkeypatch):
    calls = count_stack_calls(monkeypatch)
    cfg = small_config(context_len=32, cross_patch_window=2)
    generate(build(cfg, seed=24), bytes(range(14)), 1)
    assert calls.count("g") == 1
    assert calls.count("l") == 4


@pytest.mark.parametrize("cross, last", [(0, (1, 4)), (2, (4, 4))])
def test_prefill_last_global_layer_queries_read_patches_only(monkeypatch, cross, last):
    # A 14-byte prompt and its first byte at P=4 are 4 patches in one
    # global call. Only the tail patch's global output is read, except
    # under cross-patch attention, whose local stack runs on every patch.
    calls = record_attention(monkeypatch)
    cfg = small_config(context_len=32, global_layers=2, cross_patch_window=cross)
    generate(build(cfg, seed=24), bytes(range(14)), 1)
    assert global_attention(calls) == [(4, 4), last]


def test_generation_serial_steps_after_a_prompt():
    # L_G = 4, L_L = 2, P = 4: prefill adds nothing; each generated byte
    # adds 2 and each patch it starts adds 4 more.
    cfg = ModelConfig(context_len=16, patch_size=4, global_dim=4, local_dim=8,
                      global_layers=4, local_layers=2, vocab_size=17, dropout=0.0)
    m = build(cfg, seed=25)
    for p_len in (5, 8):
        assert generate(m, bytes(p_len), 0).total_serial_steps == 0
    # (prompt length, bytes) -> total: mid-patch to mid-patch, mid-patch to
    # a boundary, boundary to mid-patch, boundary to a boundary.
    cases = {(5, 2): 4, (5, 7): 7 * 2 + 4, (8, 3): 3 * 2 + 4, (8, 8): 8 * 2 + 2 * 4}
    for (p_len, n), total in cases.items():
        trace = generate(m, bytes(range(p_len)), n, temperature=0.0)
        assert trace.total_serial_steps == total, (p_len, n)
        assert trace.serial_steps[-1] == total
        assert trace.serial_steps[0] == 2 + 4 * (p_len % 4 == 0)


def test_greedy_generation_deterministic():
    cfg = small_config()
    m = build(cfg, seed=17)
    a = generate(m, b"ab", 8, temperature=0.0)
    b = generate(m, b"ab", 8, temperature=0.0)
    assert a.data == b.data and np.array_equal(a.logprobs, b.logprobs)


def test_sampled_generation_seeded():
    cfg = small_config()
    m = build(cfg, seed=18)
    a = generate(m, b"", 8, temperature=1.0, seed=5)
    b = generate(m, b"", 8, temperature=1.0, seed=5)
    c = generate(m, b"", 8, temperature=1.0, seed=6)
    assert a.data == b.data
    assert a.data != c.data  # overwhelmingly likely with near-uniform logits


def test_generation_serial_step_formula():
    cfg = ModelConfig(context_len=16, patch_size=4, global_dim=4, local_dim=8,
                      global_layers=4, local_layers=2, vocab_size=17, dropout=0.0)
    m = build(cfg, seed=19)
    trace = generate(m, b"", 16, temperature=0.0)
    assert trace.total_serial_steps == 4 * 4 + 16 * 2  # 48, vs 16*(4+2)=96 dense
    assert trace.serial_steps[-1] == trace.total_serial_steps
    assert np.all(np.diff(trace.serial_steps) > 0)


def test_generation_respects_context_limit():
    cfg = small_config()
    m = build(cfg)
    with pytest.raises(ValueError, match="context"):
        generate(m, b"abc", 14, temperature=0.0)


def test_generation_rejects_negative_temperature():
    with pytest.raises(ValueError):
        generate(build(small_config()), b"", 4, temperature=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_generation_rejects_non_finite_temperature(bad):
    with pytest.raises(ValueError, match="temperature"):
        generate(build(small_config()), b"", 4, temperature=bad)


def test_tiny_temperature_samples_the_argmax_without_warnings():
    cfg = small_config()
    m = build(cfg, seed=26)
    greedy = generate(m, b"abcde", 8, temperature=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for temp in (1e-320, 5e-324, 1e-300):
            tiny = generate(m, b"abcde", 8, temperature=temp, seed=3)
            assert tiny.data == greedy.data, temp
            assert np.array_equal(tiny.logprobs, greedy.logprobs)


def test_unit_temperature_samples_the_softmax_of_the_row():
    # Replays the sampler on teacher-forced rows with the same seed.
    cfg = small_config()
    m = build(cfg, seed=27)
    prompt = b"xyz"
    trace = generate(m, prompt, 13, temperature=1.0, seed=9)
    full = np.frombuffer(prompt + trace.data, dtype=np.uint8).astype(np.int64)
    rows = m.forward(full).data
    rng = np.random.default_rng(9)
    for t in range(3, 16):
        probs = np.exp(rows[t] - rows[t].max())
        probs /= probs.sum()
        assert int(rng.choice(cfg.vocab_size, p=probs)) == full[t], t


def test_generation_rejects_negative_length(monkeypatch):
    calls = count_stack_calls(monkeypatch)
    with pytest.raises(ValueError, match="n_bytes"):
        generate(build(small_config()), b"ab", -5)
    assert calls == []


def test_generation_zero_length():
    trace = generate(build(small_config()), b"", 0, temperature=0.0)
    assert trace.data == b"" and trace.total_serial_steps == 0


def test_cache_consistency_with_recompute_each_step():
    # Byte-for-byte identical to a no-cache greedy loop over full forwards.
    cfg = small_config(context_len=8, patch_size=4)
    m = build(cfg, seed=20)
    trace = generate(m, b"", 8, temperature=0.0)
    ids: list[int] = []
    for t in range(8):
        padded = np.zeros(8, dtype=np.int64)
        padded[:len(ids)] = ids
        lp = m.forward(padded).data
        ids.append(int(np.argmax(lp[t])))
    assert list(trace.data) == ids


def test_generate_over_length_names_sizes():
    with pytest.raises(ValueError) as err:
        generate(build(small_config()), b"0123456789", 9)
    assert re.findall(r"\d+", str(err.value)) == ["10", "9", "16"]


def decode_counts(monkeypatch, cfg, n=48):
    """Tensors built and concat calls per decoded byte after the first,
    whose call also runs the prompt: (count(n + 1) - count(1)) / n."""
    counts = {"tensors": 0, "concat": 0}
    real_init, real_concat = Tensor.__init__, T.concat

    def init(self, *args, **kwargs):
        counts["tensors"] += 1
        real_init(self, *args, **kwargs)

    def concat(*args, **kwargs):
        counts["concat"] += 1
        return real_concat(*args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", init)
    monkeypatch.setattr(T, "concat", concat)
    m = build(cfg, seed=5)
    generate(m, b"hello", 1, temperature=1.0, seed=2)
    first = dict(counts)
    generate(m, b"hello", n + 1, temperature=1.0, seed=2)
    return {key: (counts[key] - 2 * first[key]) / n for key in counts}


def test_decode_op_budget(monkeypatch):
    # Each affine map is one node, attention splits heads without nodes,
    # and the caches write in place: the one concat left is the pad row of
    # a patch's first byte (1/P per byte). With concatenating cache appends
    # and separate bias adds, these read 82 and 4.25; with head split and
    # merge nodes, 67.4 tensors.
    cfg = small_config(context_len=64, global_layers=2, local_layers=2)
    per_byte = decode_counts(monkeypatch, cfg)
    assert per_byte["tensors"] <= 48
    assert 0 < per_byte["concat"] <= 1 / cfg.patch_size


def test_decode_op_budget_cross_patch(monkeypatch):
    # The cross-patch slots are the local caches' leading rows, so r > 0
    # costs no op per byte. Rebuilding them with two concats per local
    # layer per byte read 75.4 tensors and 4.25 concats.
    cfg = small_config(context_len=64, global_layers=2, local_layers=2, cross_patch_window=2)
    per_byte = decode_counts(monkeypatch, cfg)
    assert per_byte["tensors"] <= 48
    assert 0 < per_byte["concat"] <= 1 / cfg.patch_size


def test_kv_cache_writes_only_under_no_grad():
    cache = KVCache(4)
    k = Tensor(np.ones((1, 2, 3)))
    with pytest.raises(RuntimeError, match="no_grad"):
        cache.append(k, k)
    with T.no_grad():
        cache.append(k, k)
        cache.restart()
        rows, _ = cache.append(k * 2.0, k * 2.0)
    assert np.array_equal(rows.data, 2 * k.data)


@pytest.mark.parametrize("lead", [2, 4])
def test_kv_cache_lead_rows_are_cross_patch_slots(lead):
    # KVCache(P, lead=r): the first r rows are zeros before the first patch,
    # and after restart the last r rows of the patch before (r = P included).
    cache = KVCache(4, lead=lead)
    first = Tensor(np.arange(24.0).reshape(1, 4, 6))
    with T.no_grad():
        k, v = cache.append(first[:, :1], first[:, :1] * -1.0)
        assert np.array_equal(k.data[:, :lead], np.zeros((1, lead, 6)))
        assert np.array_equal(k.data[:, lead:], first.data[:, :1])
        k, v = cache.append(first[:, 1:], first[:, 1:] * -1.0)
        cache.restart()
        k, v = cache.append(first[:, :1] + 100.0, first[:, :1])
    assert np.array_equal(k.data[:, :lead], first.data[:, -lead:])
    assert np.array_equal(v.data[:, :lead], -first.data[:, -lead:])
    assert np.array_equal(k.data[:, lead:], first.data[:, :1] + 100.0)
    assert k.shape == (1, lead + 1, 6)


# -- finiteness checks -----------------------------------------------------------------

@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_generate_scans_once_per_byte(monkeypatch, temperature):
    m = build(small_config(context_len=64, global_layers=2, local_layers=2), seed=3)
    calls = count_scans(monkeypatch)
    generate(m, b"hello", 40, temperature=temperature, seed=1)
    assert len(calls) <= 40 + 2


@pytest.mark.parametrize("mode", sorted(MODE_COST))
def test_eval_scans_once_per_window(monkeypatch, mode):
    m = build(small_config(global_layers=2, local_layers=2), seed=3)
    forwards = []
    real_forward = MegabyteDecoder.forward

    def forward(self, *args, **kwargs):
        forwards.append(1)
        return real_forward(self, *args, **kwargs)

    monkeypatch.setattr(MegabyteDecoder, "forward", forward)
    calls = count_scans(monkeypatch)
    evaluate_bpb(m, random_docs(70, seed=4, pieces=2), mode)
    assert 0 < len(calls) <= len(forwards)
    if mode == "basic":
        assert len(calls) == len(forwards)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_generate_overflow_names_op(temperature):
    cfg = small_config()
    m = MegabyteDecoder(cfg, overflow_local_ff(init_weights(cfg, 0)))
    with pytest.raises(FloatingPointError, match="produced by matmul"):
        generate(m, b"ab", 6, temperature=temperature)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowed_layer_norm_variance_names_op():
    # Local rows near 1e200 overflow the first local norm's variance; the
    # norm must not answer with its bias, as if the rows were constant.
    cfg = small_config()
    m = build(cfg)
    m.params["local_embed"].data = m.params["local_embed"].data * 1e200
    ids = np.arange(cfg.context_len)
    for run in (lambda: m.forward(ids), lambda: evaluate_bpb(m, random_docs(40)),
                lambda: generate(m, b"ab", 6)):
        with pytest.raises(FloatingPointError, match="produced by layer_norm"):
            run()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", sorted(MODE_COST))
def test_eval_overflow_names_op(mode):
    cfg = small_config()
    m = MegabyteDecoder(cfg, overflow_local_ff(init_weights(cfg, 0)))
    with pytest.raises(FloatingPointError, match="produced by matmul"):
        evaluate_bpb(m, random_docs(40), mode)
