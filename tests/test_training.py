"""Init statistics, schedule shape, clipping, Adam behavior, and a fast
memorization run (the full overfit budget lives in the acceptance suite)."""

import gc
import math
import weakref

import numpy as np
import pytest

from conftest import count_scans, overflow_local_ff

from megabyte import training
from megabyte.data import Document, make_windows
from megabyte.model import MegabyteDecoder, ModelConfig, Parameters
from megabyte.tensor import Tensor
from megabyte.training import (
    OptimState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    clip_gradients,
    grad_global_norm,
    init_weights,
    lr_at,
    sequence_loss_bits,
    train,
)


def small_config(**over):
    base = dict(context_len=16, patch_size=4, global_dim=4, local_dim=8,
                global_layers=1, local_layers=1, vocab_size=32, dropout=0.1)
    base.update(over)
    return ModelConfig(**base)


def train_config(**over):
    base = dict(peak_lr=0.01, total_updates=10, batch_size=2,
                warmup_updates=5, seed=0)
    base.update(over)
    return TrainConfig(**base)


# -- init ---------------------------------------------------------------------

def test_init_truncation_bound():
    params = init_weights(small_config(), seed=0)
    for name, t in params.items():
        assert np.all(np.abs(t.data) <= 0.012 + 1e-15) or name.endswith(("gain",)), name
    # gains are exactly 1, never sampled
    assert np.all(params["g0.ln1.gain"].data == 1.0)


def test_init_sample_mean_within_three_standard_errors():
    rng_cfg = ModelConfig(context_len=4, patch_size=4, global_dim=4, local_dim=4,
                          vocab_size=25000, global_layers=0, local_layers=0)
    params = init_weights(rng_cfg, seed=7)
    draws = params["global_embed"].data.reshape(-1)
    assert draws.size >= 100000
    # variance of a +-2-sigma truncated normal: sigma^2 * (1 - 2*2*phi(2)/(2*Phi(2)-1))
    phi2 = math.exp(-2.0) / math.sqrt(2 * math.pi)
    erf = math.erf(2 / math.sqrt(2))
    var = 0.006 ** 2 * (1 - 4 * phi2 / erf)
    se = math.sqrt(var / draws.size)
    assert abs(draws.mean()) < 3 * se


def test_init_deterministic():
    a = init_weights(small_config(), seed=3)
    b = init_weights(small_config(), seed=3)
    c = init_weights(small_config(), seed=4)
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data)
    assert not np.array_equal(a["global_embed"].data, c["global_embed"].data)


def _trunc_normal_rescanning(rng, shape, std, bound_sigmas):
    """The rejection loop that re-tests the whole array each round."""
    out = rng.normal(0.0, std, size=shape)
    bound = bound_sigmas * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


@pytest.mark.parametrize("shape", [(1,), (7,), (33, 5), (4, 3, 50), (256, 64)])
@pytest.mark.parametrize("bound_sigmas", [2.0, 0.5])
def test_trunc_normal_matches_the_rescanning_loop(shape, bound_sigmas):
    # Re-testing only the redrawn entries takes the same draws, in the same
    # order, into the same places; 0.5 sigma rejects ~62% a round, so many rounds.
    for seed in (0, 1, 9):
        got = training._trunc_normal(np.random.default_rng(seed), shape, 0.006, bound_sigmas)
        want = _trunc_normal_rescanning(np.random.default_rng(seed), shape, 0.006, bound_sigmas)
        assert got.shape == want.shape and np.array_equal(got, want), seed


def test_init_zero_initialized_pieces():
    params = init_weights(small_config(), seed=0)
    assert np.all(params["local_pos"].data == 0.0)
    assert np.all(params["g0.attn.bq"].data == 0.0)
    assert np.all(params["g0.ln1.bias"].data == 0.0)


# -- schedule --------------------------------------------------------------------

def test_lr_schedule_endpoints():
    cfg = train_config(peak_lr=2.0, warmup_updates=5, total_updates=20)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(5, cfg) == 2.0
    assert lr_at(20, cfg) == 0.0


def test_lr_schedule_linear_segments():
    cfg = train_config(peak_lr=1.0, warmup_updates=4, total_updates=12)
    assert lr_at(1, cfg) == pytest.approx(0.25)
    assert lr_at(8, cfg) == pytest.approx(0.5)


def test_lr_schedule_end_lr():
    cfg = train_config(peak_lr=1.0, end_lr=0.1, warmup_updates=2, total_updates=4)
    assert lr_at(3, cfg) == pytest.approx(0.55)
    assert lr_at(4, cfg) == pytest.approx(0.1)


def test_lr_step_out_of_range():
    cfg = train_config()
    with pytest.raises(ValueError):
        lr_at(-1, cfg)
    with pytest.raises(ValueError):
        lr_at(cfg.total_updates + 1, cfg)


# -- clipping ----------------------------------------------------------------------

def _params_with_grads(*grads):
    params = Parameters()
    for i, g in enumerate(grads):
        t = Tensor(np.zeros_like(np.asarray(g, dtype=float)))
        t.grad = np.asarray(g, dtype=float)
        params.add(f"p{i}", t, decay=True)
    return params


def test_clip_under_limit_unchanged():
    params = _params_with_grads([0.3, 0.4])  # norm 0.5
    scale = clip_gradients(params, 1.0)
    assert scale == 1.0
    assert np.array_equal(params["p0"].grad, [0.3, 0.4])


def test_clip_scales_to_unit_norm():
    params = _params_with_grads([3.0, 4.0])  # norm 5
    scale = clip_gradients(params, 1.0)
    assert scale == pytest.approx(0.2)
    assert np.allclose(params["p0"].grad, [0.6, 0.8])


def test_clip_global_norm_across_tensors():
    params = _params_with_grads([3.0], [4.0])
    clip_gradients(params, 1.0)
    assert grad_global_norm(params) <= 1.0 + 1e-12


def test_grad_norm_does_not_depend_on_memory_layout():
    # Summed in memory order, an F-ordered gradient rounds differently from
    # its C-ordered copy for some of these seeds.
    for seed in range(20):
        g = np.random.default_rng(seed).normal(size=(37, 300))
        c_order, f_order = _params_with_grads(g), _params_with_grads(np.asfortranarray(g))
        assert f_order["p0"].grad.flags.f_contiguous
        assert grad_global_norm(c_order) == grad_global_norm(f_order), seed


# -- adam ----------------------------------------------------------------------------

def test_adam_zero_grad_is_noop():
    params = _params_with_grads([0.0, 0.0])
    params["p0"].data = np.array([1.5, -2.5])
    state = OptimState(params)
    adam_step(params, state, lr=0.1, weight_decay=0.0)
    assert np.array_equal(params["p0"].data, [1.5, -2.5])


def test_adam_first_step_is_signed_lr():
    params = _params_with_grads([0.001, -7.0])
    params["p0"].data = np.zeros(2)
    state = OptimState(params)
    adam_step(params, state, lr=0.01, weight_decay=0.0)
    assert np.allclose(params["p0"].data, [-0.01, 0.01], rtol=1e-4)


def test_adam_x_squared_trajectory_strictly_decreases():
    params = Parameters()
    params.add("x", Tensor(np.array([1.0])), decay=True)
    state = OptimState(params)
    prev = 1.0
    for _ in range(100):
        params["x"].grad = 2.0 * params["x"].data
        adam_step(params, state, lr=0.01, weight_decay=0.0)
        cur = abs(float(params["x"].data[0]))
        assert cur < prev
        prev = cur


def test_adam_decay_excludes_flagged_parameters():
    params = Parameters()
    params.add("w", Tensor(np.array([1.0])), decay=True)
    params.add("b", Tensor(np.array([1.0])), decay=False)
    state = OptimState(params)
    adam_step(params, state, lr=0.1, weight_decay=0.5)  # zero grads
    assert params["w"].data[0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)
    assert params["b"].data[0] == 1.0


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_adam_matches_formula_bit_for_bit(weight_decay):
    # Three steps against the update written as one expression per moment,
    # on a C-ordered and an F-ordered gradient, a parameter with no gradient
    # and one without decay. Each step rebinds t.data and leaves the old
    # array as it was.
    rng = np.random.default_rng(31)
    params = Parameters()
    for name, decay in (("c", True), ("f", True), ("none", True), ("nodecay", False)):
        params.add(name, Tensor(rng.normal(size=(5, 7))), decay)
    ref = {name: t.data.copy() for name, t in params.items()}
    m = {name: np.zeros((5, 7)) for name in ref}
    v = {name: np.zeros((5, 7)) for name in ref}
    state = OptimState(params)
    b1, b2, eps, lr = 0.9, 0.98, 1e-8, 0.01
    for step in range(1, 4):
        grads = {"c": rng.normal(size=(5, 7)), "f": np.asfortranarray(rng.normal(size=(5, 7))),
                 "none": None, "nodecay": rng.normal(size=(5, 7))}
        old = {}
        for name, t in params.items():
            t.grad = grads[name]
            old[name] = (t.data, t.data.copy())
        adam_step(params, state, lr, weight_decay, betas=(b1, b2), eps=eps)
        bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for name, t in params.items():
            g = np.zeros((5, 7)) if grads[name] is None else grads[name]
            m[name] = m[name] * b1 + (1.0 - b1) * g
            v[name] = v[name] * b2 + (1.0 - b2) * g * g
            update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
            if weight_decay > 0.0 and params.decays(name):
                update = update + weight_decay * ref[name]
            ref[name] = ref[name] - lr * update
            assert t.data.tobytes() == ref[name].tobytes(), (step, name)
            assert state.m[name].tobytes() == m[name].tobytes(), (step, name)
            assert state.v[name].tobytes() == v[name].tobytes(), (step, name)
            array, copy = old[name]
            assert t.data is not array and array.tobytes() == copy.tobytes(), (step, name)


def test_decay_flags_follow_exclusion_set():
    params = init_weights(small_config(), seed=0)
    assert params.decays("g0.attn.wq")
    assert params.decays("gl_proj")
    assert not params.decays("g0.attn.bq")
    assert not params.decays("g0.ln1.gain")
    assert not params.decays("global_embed")
    assert not params.decays("local_pos")


# -- loss and loop ---------------------------------------------------------------------

def test_loss_masks_padded_positions():
    rng = np.random.default_rng(5)
    lp = Tensor(np.log(np.full((1, 4, 8), 0.125)))
    targets = rng.integers(0, 8, size=(1, 4))
    mask = np.array([[True, True, False, False]])
    loss = sequence_loss_bits(lp, targets, mask)
    assert loss.item() == pytest.approx(3.0)  # log2(8)


def test_loss_averages_kept_positions_only():
    rng = np.random.default_rng(6)
    lp = np.log(rng.dirichlet(np.ones(8), size=(2, 4)))
    targets = rng.integers(0, 8, size=(2, 4))
    mask = np.array([[True, False, True, True], [False, True, True, False]])
    loss = sequence_loss_bits(Tensor(lp), targets, mask)
    kept = [lp[i, j, targets[i, j]] for i in range(2) for j in range(4) if mask[i, j]]
    assert loss.item() == pytest.approx(-np.mean(kept) / math.log(2.0))


@pytest.mark.parametrize("targets_shape, mask_shape", [
    ((2, 4), (1, 4)),   # a mask that numpy would broadcast over the batch
    ((2, 4), (4,)),
    ((1, 4), (2, 4)),
    ((2, 3), (2, 3)),
], ids=["mask-one-row", "mask-1d", "targets-one-row", "both-short"])
def test_loss_rejects_misshaped_targets_or_mask(targets_shape, mask_shape):
    lp = Tensor(np.log(np.full((2, 4, 8), 0.125)))
    with pytest.raises(ValueError, match="leading shape"):
        sequence_loss_bits(lp, np.zeros(targets_shape, dtype=np.int64),
                           np.ones(mask_shape, dtype=bool))


def test_train_loop_memorizes_tiny_pattern():
    cfg = small_config(vocab_size=256, dropout=0.0)
    model = MegabyteDecoder(cfg, init_weights(cfg, seed=1))
    docs = [Document("pattern", b"abcdefghijklmnop" * 8)]
    windows = make_windows(docs, cfg.context_len, cfg.context_len)
    tc = train_config(peak_lr=0.02, total_updates=60, warmup_updates=60,
                      batch_size=4, dropout=0.0)
    curve = train(model, windows, tc)
    assert abs(curve[0].loss_bits - 8.0) < 0.1
    assert curve[-1].loss_bits < curve[0].loss_bits * 0.5
    # 20-step moving average never increases on an overfit corpus
    avg = np.convolve([r.loss_bits for r in curve], np.ones(20) / 20, mode="valid")
    assert np.all(np.diff(avg) < 0.05)


def test_train_rerun_is_bit_identical():
    cfg = small_config(dropout=0.1)
    docs = [Document("d", bytes(np.arange(64, dtype=np.uint8) % 7))]
    windows = make_windows(docs, cfg.context_len, cfg.context_len)
    tc = train_config(total_updates=4, warmup_updates=2, batch_size=2, seed=9)

    def run():
        model = MegabyteDecoder(cfg, init_weights(cfg, seed=9))
        curve = train(model, windows, tc)
        return [r.loss_bits for r in curve], {n: t.data.copy() for n, t in model.params.items()}

    curve_a, params_a = run()
    curve_b, params_b = run()
    assert curve_a == curve_b
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name])


def test_train_sums_gradient_squares_once_per_update(monkeypatch):
    # clip_gradients reuses the norm the step already checked; a clip that
    # recomputes it, as it does when called alone, gives the same run bit for bit.
    cfg = small_config(dropout=0.1)
    docs = [Document("d", bytes(np.arange(64, dtype=np.uint8) % 7))]
    windows = make_windows(docs, cfg.context_len, cfg.context_len)
    tc = train_config(total_updates=4, warmup_updates=2, batch_size=2, seed=9, clip_norm=0.05)
    real_norm, real_clip = training.grad_global_norm, training.clip_gradients

    def run():
        model = MegabyteDecoder(cfg, init_weights(cfg, seed=9))
        curve = train(model, windows, tc)
        return [(r.loss_bits, r.grad_norm) for r in curve], model.params

    norms = []
    monkeypatch.setattr(training, "grad_global_norm", lambda p: norms.append(1) or real_norm(p))
    curve, params = run()
    assert len(norms) == tc.total_updates
    assert all(norm > tc.clip_norm for _, norm in curve)   # every update clips
    monkeypatch.setattr(training, "clip_gradients", lambda p, max_norm, norm: real_clip(p, max_norm))
    recomputed_curve, recomputed = run()
    assert len(norms) == 3 * tc.total_updates
    assert curve == recomputed_curve
    for name, t in params.items():
        assert np.array_equal(t.data, recomputed[name].data), name


def test_train_frees_each_update_graph_before_the_next_forward(monkeypatch):
    # With the cycle collector off, every earlier forward's output must be
    # dead by the time the next update's forward starts.
    cfg = small_config(dropout=0.0)
    model = MegabyteDecoder(cfg, init_weights(cfg, seed=4))
    docs = [Document("d", bytes(np.arange(64, dtype=np.uint8) % 11))]
    windows = make_windows(docs, cfg.context_len, cfg.context_len)
    refs, alive = [], []
    real_forward = MegabyteDecoder.forward

    def forward(self, ids, rng=None):
        alive.append(sum(r() is not None for r in refs))
        out = real_forward(self, ids, rng)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(MegabyteDecoder, "forward", forward)
    gc.disable()
    try:
        train(model, windows, train_config(total_updates=4, warmup_updates=2, batch_size=2))
    finally:
        gc.enable()
    assert alive == [0, 0, 0, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_raises():
    cfg = small_config(dropout=0.0)
    model = MegabyteDecoder(cfg, init_weights(cfg, seed=2))
    docs = [Document("d", bytes(range(16)))]
    windows = make_windows(docs, cfg.context_len, cfg.context_len)
    tc = train_config(peak_lr=1e9, total_updates=30, warmup_updates=1, batch_size=1)
    with pytest.raises(TrainingDiverged):
        train(model, windows, tc)


@pytest.mark.parametrize("bad_step", [0, 2])
def test_train_nonfinite_grad_raises_before_update(monkeypatch, bad_step):
    cfg = small_config(dropout=0.0)
    model = MegabyteDecoder(cfg, init_weights(cfg, seed=2))
    windows = make_windows([Document("d", bytes(range(32)))], cfg.context_len, cfg.context_len)
    real_backward = Tensor.backward
    calls = []

    def backward(self):
        real_backward(self)
        if len(calls) >= bad_step:   # step bad_step and its replay
            model.params["local_embed"].grad[3, 1] = np.inf
        calls.append(1)

    monkeypatch.setattr(Tensor, "backward", backward)
    tc = train_config(total_updates=bad_step + 1, warmup_updates=1, batch_size=1)
    with pytest.raises(TrainingDiverged, match=rf"step {bad_step}: non-finite gradient norm"):
        train(model, windows, tc)
    for name, t in model.params.items():
        assert np.isfinite(t.data).all(), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_norm_overflow_raises_before_update():
    # The loss and every gradient stay finite, but the final local norm's
    # huge gain gives gradients whose sum of squares overflows to inf.
    cfg = small_config(dropout=0.0)
    model = MegabyteDecoder(cfg, init_weights(cfg, seed=2))
    model.params["l.lnf.gain"].data = model.params["l.lnf.gain"].data * 1e200
    windows = make_windows([Document("d", bytes(range(32)))], cfg.context_len, cfg.context_len)
    with pytest.raises(TrainingDiverged, match="step 0: non-finite gradient norm"):
        train(model, windows, train_config(total_updates=1, warmup_updates=1, batch_size=1))
    for name, t in model.params.items():
        assert np.isfinite(t.data).all(), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_train_forward_overflow_names_op(dropout):
    cfg = small_config(dropout=dropout)
    model = MegabyteDecoder(cfg, overflow_local_ff(init_weights(cfg, seed=2)))
    windows = make_windows([Document("d", bytes(range(32)))], cfg.context_len, cfg.context_len)
    with pytest.raises(TrainingDiverged, match="step 0: non-finite values produced by matmul"):
        train(model, windows, train_config(total_updates=2, warmup_updates=1, batch_size=2))


def test_train_step_scans_do_not_grow_with_depth(monkeypatch):
    calls = count_scans(monkeypatch)
    counts = []
    for depth in (1, 3):
        cfg = small_config(global_layers=depth, local_layers=depth)
        model = MegabyteDecoder(cfg, init_weights(cfg, seed=2))
        windows = make_windows([Document("d", bytes(range(32)))], cfg.context_len,
                               cfg.context_len)
        calls.clear()
        train(model, windows, train_config(total_updates=3, warmup_updates=1))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2 * 3


@pytest.mark.parametrize("field,over", [
    ("total_updates", dict(total_updates=-1, warmup_updates=-2)),
    ("warmup_updates", dict(warmup_updates=-2)),
])
def test_train_config_rejects_negative_counts(field, over):
    with pytest.raises(ValueError, match=field):
        train_config(**over)


@pytest.mark.parametrize("field", ["global_layers", "local_layers", "global_heads", "local_heads"])
def test_model_config_rejects_negative_counts(field):
    with pytest.raises(ValueError, match=field):
        small_config(**{field: -1})


@pytest.mark.parametrize("clip_norm", [0.0, -1.0])
def test_train_config_rejects_clip_norm_not_positive(clip_norm):
    # A clip_norm of 0 once scaled every gradient to 0, so Adam only decayed.
    with pytest.raises(ValueError, match="clip_norm"):
        train_config(clip_norm=clip_norm)


def test_train_config_validation():
    with pytest.raises(ValueError):
        train_config(warmup_updates=20, total_updates=10)
    with pytest.raises(ValueError):
        train_config(peak_lr=-0.1)
    with pytest.raises(ValueError):
        train_config(batch_size=0)
