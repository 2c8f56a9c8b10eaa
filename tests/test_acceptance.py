"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them live).

The two training experiments use synthetic seeded corpora; every tolerance
is pinned in the assertions.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import max_rel_err, prepare_generic_point, record_attention

from megabyte.cli import main as cli_main
from megabyte.costmodel import ArchSpec, attention_ops, flops_per_token, serial_steps
from megabyte.data import Document, ImageGrid, make_windows, parse_ppm, patch_scan, \
    patch_unscan, raster_scan, raster_unscan, write_ppm
from megabyte.inference import evaluate_bpb, generate, strided_partition
from megabyte.model import MegabyteDecoder, ModelConfig, count_params, parameter_spec
from megabyte.training import TrainConfig, init_weights, sequence_loss_bits, train


def _report(n, msg):
    print(f"ACCEPTANCE {n}: PASS  {msg}")


def make_text(n, seed=42):
    """Deterministic pseudo-text: a fixed pool of word-like sentences, so the
    corpus carries both local (within-word) and long-range structure."""
    rng = np.random.default_rng(seed)
    syll = ["ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
            "ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
            "ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
            "ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
            "ta", "te", "ti", "to", "tu"]
    vocab = ["".join(rng.choice(syll) for _ in range(rng.integers(1, 4)))
             for _ in range(200)]
    pool = [" ".join(vocab[int(rng.integers(0, 200))]
                     for _ in range(int(rng.integers(5, 10)))) + ". "
            for _ in range(40)]
    out, size = [], 0
    while size < n:
        s = pool[int(rng.integers(0, 40))]
        out.append(s)
        size += len(s)
    return "".join(out).encode()[:n]


# -- 1. gradient integrity ----------------------------------------------------------

def test_criterion_01_gradient_integrity():
    started = time.time()
    cfg = ModelConfig(context_len=8, patch_size=4, global_dim=4, local_dim=4,
                      global_layers=1, local_layers=1, vocab_size=11,
                      global_heads=1, local_heads=1, dropout=0.0)
    model = MegabyteDecoder(cfg, init_weights(cfg, seed=0))
    ids = np.random.default_rng(2).integers(0, 11, size=8)

    # Nudge zero-initialized biases to a generic point: the finite-difference
    # oracle is invalid where a +-h step of a parameter flips the sign of a
    # ReLU pre-activation, the analytic gradient is not. Re-draw until no
    # step of the sweep below does.
    h = 1e-5

    def fresh(attempt):
        params = init_weights(cfg, seed=0)
        jit = np.random.default_rng(100 + attempt)
        for name, t in params.items():
            if ".b" in name or name.endswith("bias"):
                t.data = t.data + jit.normal(scale=0.01, size=t.data.shape)
        model.params = params

    prepare_generic_point(model, ids, fresh, h)

    def loss():
        return sequence_loss_bits(model.forward(ids), ids, np.ones(8, dtype=bool))

    loss().backward()
    worst = 0.0
    n_checked = 0
    for name, t in model.params.items():
        flat = t.data.reshape(-1)
        analytic = t.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss().item()
            flat[i] = orig - h
            lo = loss().item()
            flat[i] = orig
            worst = max(worst, max_rel_err(analytic[i], (hi - lo) / (2 * h)))
            n_checked += 1
    elapsed = time.time() - started
    assert worst < 1e-4, f"max rel err {worst}"
    assert elapsed < 60.0
    _report(1, f"{n_checked} parameter gradients, max rel err {worst:.2e}, {elapsed:.1f}s")


# -- 2. causality suite --------------------------------------------------------------

def test_criterion_02_causality_all_variants():
    started = time.time()
    variant_grid = [dict(no_local=nl, no_global=ng, conv_encoder=conv, cross_patch_window=r)
                    for nl, ng in ((False, False), (True, False), (False, True))
                    for conv in (False, True)
                    for r in (0, 2)]
    rng = np.random.default_rng(3)
    trials = 0
    for over in variant_grid:
        cfg = ModelConfig(context_len=16, patch_size=4, global_dim=4, local_dim=8,
                          global_layers=1, local_layers=1, dropout=0.0, **over)
        model = MegabyteDecoder(cfg, init_weights(cfg, seed=4))
        for _ in range(9):
            ids = rng.integers(0, 256, size=16)
            base = model.forward(ids).data
            t = int(rng.integers(0, 16))
            mod = ids.copy()
            mod[t] = (mod[t] + 1 + rng.integers(0, 255)) % 256
            out = model.forward(mod).data
            assert np.array_equal(out[:t + 1], base[:t + 1]), (over, t)
            trials += 1
    elapsed = time.time() - started
    assert trials >= 100
    assert elapsed < 120.0
    _report(2, f"{trials} perturbation trials over {len(variant_grid)} variant combos, "
               f"zero violations, {elapsed:.1f}s")


# -- 3. overfit experiment ------------------------------------------------------------

def test_criterion_03_overfit_1kb_corpus():
    started = time.time()
    pattern = b"the quick brown fox jumps over the lazy dog. "
    corpus = (pattern * (1024 // len(pattern) + 1))[:1024]
    docs = [Document("pattern", corpus)]
    cfg = ModelConfig(context_len=64, patch_size=8, global_dim=8, local_dim=32,
                      global_layers=2, local_layers=2, dropout=0.1)
    n_params = sum(int(np.prod(s)) for _, s, _, _ in parameter_spec(cfg))
    assert n_params <= 1_000_000
    model = MegabyteDecoder(cfg, init_weights(cfg, seed=0))
    windows = make_windows(docs, cfg.context_len, cfg.context_len)
    tc = TrainConfig(peak_lr=0.01, total_updates=500, warmup_updates=500,
                     batch_size=8, dropout=0.1, seed=0)
    curve = train(model, windows, tc)
    assert abs(curve[0].loss_bits - 8.0) < 0.1  # untrained sanity
    bpb = evaluate_bpb(model, docs, mode="basic").bpb
    elapsed = time.time() - started
    assert bpb < 0.1, f"memorization failed: {bpb}"
    assert elapsed < 300.0
    _report(3, f"{n_params} params, step-0 loss {curve[0].loss_bits:.3f}, "
               f"bpb {bpb:.4f} after 500 steps, {elapsed:.0f}s")


# -- 4. compute-matched architecture comparison -----------------------------------------

def test_criterion_04_architecture_comparison():
    started = time.time()
    text = make_text(1_000_000)
    train_docs = [Document("train", text[:900_000])]
    eval_docs = [Document("eval", text[900_000:950_000])]

    mega_cfg = ModelConfig(context_len=128, patch_size=4, global_dim=16, local_dim=16,
                           global_layers=4, local_layers=1, dropout=0.1)
    xfmr_cfg = ModelConfig(context_len=128, patch_size=1, global_dim=32, local_dim=32,
                           global_layers=4, local_layers=0, no_local=True,
                           local_heads=1, dropout=0.1)

    def flops(cfg):
        c = count_params(cfg)
        return flops_per_token(ArchSpec("megabyte", m_global=c["global"],
                                        m_local=c["local"], patch_size=cfg.patch_size))

    f_mega, f_xfmr = flops(mega_cfg), flops(xfmr_cfg)
    ratio = float(f_mega / f_xfmr)
    assert 0.9 < ratio < 1.1, f"flops not matched: {ratio}"

    windows = make_windows(train_docs, 128, 128)
    reports = {}
    for name, cfg in (("megabyte", mega_cfg), ("transformer", xfmr_cfg)):
        model = MegabyteDecoder(cfg, init_weights(cfg, seed=1))
        tc = TrainConfig(peak_lr=0.006, total_updates=600, warmup_updates=200,
                         batch_size=8, dropout=0.1, seed=1)
        train(model, windows, tc)
        reports[name] = evaluate_bpb(model, eval_docs, mode="basic")

    per_pos = reports["megabyte"].per_position_loss
    elapsed = time.time() - started
    assert per_pos[3] >= per_pos[0], f"within-patch shape missing: {per_pos}"
    assert elapsed < 3600.0
    _report(4, f"flops ratio {ratio:.3f}; bpb megabyte {reports['megabyte'].bpb:.4f} "
               f"vs transformer {reports['transformer'].bpb:.4f}; per-position "
               f"{np.round(per_pos, 4).tolist()} (p3 >= p0), {elapsed:.0f}s")


# -- 5. cost-model reproduction -----------------------------------------------------------

def test_criterion_05_cost_model_reproduction():
    triples = [(452_000_000, 151_000_000, 660_000_000),
               (5_800_000_000, 604_000_000, 6_700_000_000),
               (170_000_000_000, 3_200_000_000, 173_000_000_000)]
    for m_g, m_l, m_dense in triples:
        mega = flops_per_token(ArchSpec("megabyte", m_global=m_g, m_local=m_l, patch_size=8))
        dense = flops_per_token(ArchSpec("transformer", m=m_dense))
        assert isinstance(mega, Fraction)
        assert mega < dense  # exact rational comparison, tolerance 0

    mega_steps, dense_steps = serial_steps(24, 15, 8, 8192, transformer_layers=24)
    ratio = Fraction(mega_steps, dense_steps)
    assert ratio == Fraction(3, 4)
    observed = 93 / 132
    assert abs(float(ratio) - observed) < 0.10
    _report(5, f"three size triples strictly cheaper (exact rationals); "
               f"serial ratio {ratio} vs observed {observed:.3f}")


# -- 6. attention-count law -----------------------------------------------------------------

def test_criterion_06_attention_count_law(monkeypatch):
    calls = record_attention(monkeypatch)
    for t, p in ((16, 4), (32, 4), (32, 8)):
        cfg = ModelConfig(context_len=t, patch_size=p, global_dim=4, local_dim=4,
                          global_layers=1, local_layers=1, vocab_size=7,
                          global_heads=1, local_heads=1, dropout=0.0)
        model = MegabyteDecoder(cfg, init_weights(cfg, seed=0))
        calls.clear()
        model.forward(np.zeros(t, dtype=np.int64))
        counted = sum(c.pairs for c in calls)
        assert counted == attention_ops(t, p) == (t // p) ** 2 + t * p, (t, p)

    rng = np.random.default_rng(5)
    for _ in range(50):
        t = int(rng.integers(3, 100_000))
        p = int(rng.integers(2, t))
        assert attention_ops(t, p) < Fraction(t) * t
    _report(6, "recorded query-key pairs equal (T/P)^2 + T*P for (16,4),(32,4),(32,8); "
               "50 random pairs below T^2")


# -- 7. cache / teacher-forcing equivalence ----------------------------------------------------

def test_criterion_07_cache_teacher_forcing():
    cfg = ModelConfig(context_len=16, patch_size=4, global_dim=4, local_dim=8,
                      global_layers=2, local_layers=2, dropout=0.0,
                      cross_patch_window=2)
    model = MegabyteDecoder(cfg, init_weights(cfg, seed=6))
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        p_len = int(rng.integers(0, 8))
        n_new = int(rng.integers(1, 17 - p_len))
        prompt = bytes(rng.integers(0, 256, size=p_len, dtype=np.uint8))
        trace = generate(model, prompt, n_new, temperature=0.0)
        full = np.frombuffer(prompt + trace.data, dtype=np.uint8).astype(np.int64)
        padded = np.zeros(16, dtype=np.int64)
        padded[:len(full)] = full
        lp = model.forward(padded).data
        forced = lp[np.arange(p_len, p_len + n_new), full[p_len:]]
        worst = max(worst, float(np.abs(trace.logprobs - forced).max()))
    assert worst < 1e-5, worst
    _report(7, f"20 random prompts, cached vs full-forward log-probs within {worst:.2e}")


# -- 8. strided inference mechanics -------------------------------------------------------------

def test_criterion_08_strided_mechanics():
    for t, p in ((16, 4), (32, 8), (64, 4)):
        a, b = strided_partition(t, p)
        merged = np.sort(np.concatenate([a, b]))
        assert np.array_equal(merged, np.arange(t))
        assert len(set(a.tolist()) & set(b.tolist())) == 0

    cfg = ModelConfig(context_len=16, patch_size=4, global_dim=4, local_dim=8,
                      global_layers=1, local_layers=1, dropout=0.0)
    params = init_weights(cfg, seed=8)
    for _, tensor in params.items():
        tensor.data = np.zeros_like(tensor.data)
    model = MegabyteDecoder(cfg, params)  # constant logits: position-independent
    rng = np.random.default_rng(9)
    docs = [Document("d", bytes(rng.integers(0, 256, size=96, dtype=np.uint8)))]
    basic = evaluate_bpb(model, docs, mode="basic").bpb
    strided = evaluate_bpb(model, docs, mode="strided").bpb
    assert abs(basic - strided) < 1e-10
    _report(8, f"partition exact and disjoint; position-independent model: "
               f"basic {basic} == strided {strided}")


# -- 9. scan bijectivity ----------------------------------------------------------------------

def test_criterion_09_scan_bijectivity():
    rng = np.random.default_rng(10)
    for _ in range(200):
        side = int(rng.integers(1, 4))
        h = side * int(rng.integers(1, 5))
        w = side * int(rng.integers(1, 5))
        img = ImageGrid(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        ppm = write_ppm(img)
        parsed = parse_ppm(ppm)
        assert np.array_equal(parsed.pixels, img.pixels)
        assert np.array_equal(raster_unscan(raster_scan(parsed), h, w).pixels, img.pixels)
        pb = 3 * side * side
        assert np.array_equal(patch_unscan(patch_scan(parsed, pb), h, w, pb).pixels,
                              img.pixels)

    # The 6x6 image with 12-byte patches forms the 9-patch grid layout.
    px = np.arange(108, dtype=np.uint8).reshape(6, 6, 3)
    seq = patch_scan(ImageGrid(px), 12)
    assert len(seq) == 108
    for k in range(9):
        by, bx = divmod(k, 3)
        expect = b"".join(bytes(px[by * 2 + dy, bx * 2 + dx])
                          for dy in range(2) for dx in range(2))
        assert seq[k * 12:(k + 1) * 12] == expect
    _report(9, "200 random PPM round trips bit-exact (raster and patch); "
               "6x6/P=12 forms the 9-patch layout")


# -- 10. end-to-end determinism ------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path, capsys):
    cfg_text = ("context_length = 16\npatch_size = 4\nglobal_dim = 4\n"
                "local_dim = 8\nglobal_layers = 1\nlocal_layers = 1\n"
                "dropout = 0.1\npeak_lr = 0.01\ntotal_updates = 5\n"
                "warmup_updates = 3\nbatch_size = 2\nseed = 13\n")
    (tmp_path / "run.cfg").write_text(cfg_text)
    rng = np.random.default_rng(11)
    (tmp_path / "corpus.bin").write_bytes(bytes(rng.integers(0, 256, 192, dtype=np.uint8)))

    for name in ("a.ckpt", "b.ckpt"):
        rc = cli_main(["train", "--config", str(tmp_path / "run.cfg"),
                       "--data", str(tmp_path / "corpus.bin"),
                       "--out", str(tmp_path / name)])
        assert rc == 0
    blob_a = (tmp_path / "a.ckpt").read_bytes()
    assert blob_a == (tmp_path / "b.ckpt").read_bytes()

    capsys.readouterr()
    eval_args = ["eval", "--ckpt", str(tmp_path / "a.ckpt"),
                 "--data", str(tmp_path / "corpus.bin"), "--mode", "basic"]
    assert cli_main(eval_args) == 0
    first = capsys.readouterr().out
    assert cli_main(eval_args) == 0
    assert capsys.readouterr().out == first

    for name in ("g1", "g2"):
        rc = cli_main(["generate", "--ckpt", str(tmp_path / "a.ckpt"),
                       "--length", "12", "--temperature", "0",
                       "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "g1").read_bytes() == (tmp_path / "g2").read_bytes()
    _report(10, "train twice byte-identical checkpoints; eval and greedy "
                "generation bit-reproducible")
