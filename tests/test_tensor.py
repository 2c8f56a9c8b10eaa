"""Tensor engine: forward values against hand/brute-force oracles, every
differentiable op against central finite differences at 64-bit."""

import ast
import gc
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import fd_grad, max_rel_err, ref_attention

from megabyte import tensor as T
from megabyte.data import Document, make_windows
from megabyte.inference import evaluate_bpb, generate
from megabyte.model import MegabyteDecoder, ModelConfig, _causal_conv
from megabyte.tensor import Tensor
from megabyte.training import TrainConfig, init_weights, train


def _check_grads(build, arrays, tol=1e-4, h=1e-5, floor=1e-5):
    """build() recomputes the scalar loss from `arrays` (list of np arrays
    wrapped fresh inside); returns max rel err across all inputs."""
    tensors = build()
    loss = tensors["loss"]
    loss.backward()
    worst = 0.0
    for name, arr in arrays.items():
        analytic = tensors[name].grad
        assert analytic is not None, f"no grad reached {name}"
        numeric = fd_grad(lambda: build()["loss"].item(), arr, h=h)
        worst = max(worst, max_rel_err(analytic, numeric, floor=floor))
    assert worst < tol, f"max rel err {worst}"
    return worst


# -- matmul ------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_1x1():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0
    assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float64


def test_matmul_dim_mismatch():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError):  # the right operand must be one 2-D matrix
        T.matmul(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((2, 3, 5))))


def test_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))

    def build():
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        return {"a": ta, "b": tb, "loss": T.matmul(ta, tb).sum()}

    _check_grads(build, {"a": a, "b": b}, tol=1e-6, floor=1e-6)


def test_matmul_batched_broadcast_grad():
    # b is shared by every leading row of a; (2, 3, 4, 5) is the local
    # stack's (batch, patch, byte, dim) shape class.
    rng = np.random.default_rng(1)
    for a_shape in [(2, 3, 4), (2, 3, 4, 5)]:
        a = rng.normal(size=a_shape)
        b = rng.normal(size=(a_shape[-1], a_shape[-1] + 1))  # broadcast over the leading axes
        out_shape = a_shape[:-1] + (b.shape[1],)

        def build():
            ta = Tensor(a, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            w = Tensor(np.linspace(0.5, 1.5, int(np.prod(out_shape))).reshape(out_shape))
            return {"a": ta, "b": tb, "loss": (T.matmul(ta, tb) * w).sum()}

        _check_grads(build, {"a": a, "b": b}, tol=1e-6, floor=1e-6)


def test_matmul_bias_equals_separate_add_bit_for_bit():
    rng = np.random.default_rng(2)
    a, b, bias = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)
    w = rng.normal(size=(2, 3, 4, 6))

    def run(fused):
        ts = [Tensor(arr, requires_grad=True) for arr in (a, b, bias)]
        out = T.matmul(*ts) if fused else T.matmul(ts[0], ts[1]) + ts[2]
        (out * Tensor(w)).sum().backward()
        return [out.data] + [t.grad for t in ts]

    for fused, separate in zip(run(True), run(False)):
        assert np.array_equal(fused, separate)


def test_matmul_bias_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    arrays = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4, 5)),
              "bias": rng.normal(size=5)}
    w = rng.normal(size=(2, 3, 5))

    def build():
        ts = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
        ts["loss"] = (T.matmul(ts["a"], ts["b"], ts["bias"]) * Tensor(w)).sum()
        return ts

    _check_grads(build, arrays, tol=1e-6, floor=1e-6)


@pytest.mark.parametrize("shape", [(3,), (1, 4), (4, 1), ()])
def test_matmul_rejects_bias_of_wrong_shape(shape):
    with pytest.raises(ValueError, match=re.escape("must be (4,)") + ".*" + re.escape(f"got {shape}")):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(shape)))


# -- softmax ------------------------------------------------------------------

def test_softmax_uniform():
    out = T.log_softmax_last(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.data, np.log(0.25), atol=1e-15)


def test_softmax_no_overflow():
    out = T.log_softmax_last(Tensor([1000.0, 0.0]))
    assert out.data[0] == pytest.approx(0.0, abs=1e-300)
    assert out.data[1] == pytest.approx(-1000.0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = rng.normal(scale=5.0, size=(4, 7, 9))
    out = T.log_softmax_last(Tensor(x)).data
    assert np.all(out <= 0.0)
    assert np.allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-9)


def test_softmax_cross_entropy_gradient_identity():
    # d(-log softmax(x)[target]) / dx == softmax(x) - onehot(target)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 8))
    targets = rng.integers(0, 8, size=5)
    tx = Tensor(x, requires_grad=True)
    loss = T.log_softmax_last(tx)[np.arange(5), targets].sum() * -1.0
    loss.backward()
    sm = np.exp(x - x.max(axis=-1, keepdims=True))
    sm /= sm.sum(axis=-1, keepdims=True)
    onehot = np.zeros_like(x)
    onehot[np.arange(5), targets] = 1.0
    assert np.allclose(tx.grad, sm - onehot, atol=1e-12)


def test_log_softmax_grad_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6))
    w = rng.normal(size=(3, 6))

    def build():
        tx = Tensor(x, requires_grad=True)
        return {"x": tx, "loss": (T.log_softmax_last(tx) * Tensor(w)).sum()}

    _check_grads(build, {"x": x}, tol=1e-6, floor=1e-6)


def test_log_softmax_holds_only_its_output_until_backward():
    # Backward recomputes the softmax from the output; no second
    # (B, T, 256) array lives between forward and backward.
    x = Tensor(np.random.default_rng(5).normal(size=(16, 128, 256)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.log_softmax_last(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.data.nbytes <= held < 1.1 * out.data.nbytes, held / out.data.nbytes


@pytest.mark.parametrize("op,bound", [("relu", 0.2), ("log_softmax_last", 1.1), ("layer_norm", 1.1)])
def test_backward_peak_allocation(op, bound):
    # Each of these backwards writes its result into the gradient it is
    # handed, so at its peak it holds at most one more input-sized array
    # (relu only its bool mask, an eighth of one).
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(16, 128, 256)), requires_grad=True)
    gain = Tensor(rng.normal(size=256), requires_grad=True)
    bias = Tensor(rng.normal(size=256), requires_grad=True)
    out = {"relu": lambda: x.relu(), "log_softmax_last": lambda: T.log_softmax_last(x),
           "layer_norm": lambda: T.layer_norm(x, gain, bias)}[op]()
    g = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out._backprop(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak < bound * x.data.nbytes, peak / x.data.nbytes


# -- causal attention ----------------------------------------------------------

def test_attention_single_slot_returns_value():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(1, 1, 4))
    v = rng.normal(size=(1, 1, 4))
    out = T.causal_attention(Tensor(q), Tensor(rng.normal(size=(1, 1, 4))), Tensor(v))
    assert np.array_equal(out.data, v)


def test_attention_future_value_bit_invisible():
    rng = np.random.default_rng(6)
    q = rng.normal(size=(2, 5, 4))
    k = rng.normal(size=(2, 5, 4))
    v = rng.normal(size=(2, 5, 4))
    base = T.causal_attention(Tensor(q), Tensor(k), Tensor(v)).data
    for j in range(1, 5):
        for perturbed in (v, k):
            mod = perturbed.copy()
            mod[:, j, :] += 100.0
            args = (Tensor(q), Tensor(k if perturbed is v else mod),
                    Tensor(mod if perturbed is v else v))
            out = T.causal_attention(*args).data
            assert np.array_equal(out[:, :j, :], base[:, :j, :])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rotary", [False, True])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_attention_non_finite_future_key_bit_invisible(monkeypatch, rotary, bad):
    # A masked lane is overwritten, not added to: nan + -inf is nan, so an
    # additive mask would spread a non-finite future score over its row.
    monkeypatch.setattr(T, "_CHECK_OPS", False)   # the later rows are non-finite
    rng = np.random.default_rng(6)
    q, k, v = (rng.normal(size=(2, 5, 4)) for _ in range(3))
    base = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), rotary=rotary).data
    for j in range(1, 5):
        mod = k.copy()
        mod[:, j, 1] = bad
        out = T.causal_attention(Tensor(q), Tensor(mod), Tensor(v), rotary=rotary).data
        assert np.array_equal(out[:, :j], base[:, :j]), j


def test_attention_t2_matches_brute_force():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(1, 2, 1))
    k = rng.normal(size=(1, 2, 1))
    v = rng.normal(size=(1, 2, 1))
    out = T.causal_attention(Tensor(q), Tensor(k), Tensor(v)).data
    ref = ref_attention(q, k, v)
    assert np.allclose(out, ref, atol=1e-12)


@pytest.mark.parametrize("rotary", [False, True])
def test_attention_with_extras_matches_brute_force(rotary):
    # Cross-patch slots fed as ordinary leading keys match the oracle,
    # which places them at explicit positions -r..-1: once for a whole
    # patch of queries, once for a single decode query over a longer history.
    rng = np.random.default_rng(8)
    for t_q, t_k in ((4, 4), (1, 5)):
        q = rng.normal(size=(2, 3, t_q, 6))
        k = rng.normal(size=(2, 3, t_k, 6))
        v = rng.normal(size=(2, 3, t_k, 6))
        ek = rng.normal(size=(2, 3, 2, 6))
        ev = rng.normal(size=(2, 3, 2, 6))
        out = T.causal_attention(Tensor(q), Tensor(np.concatenate([ek, k], -2)),
                                 Tensor(np.concatenate([ev, v], -2)), rotary=rotary).data
        ref = ref_attention(q, k, v, extra_k=ek, extra_v=ev, rotary=rotary)
        assert np.allclose(out, ref, atol=1e-12)


def test_attention_incremental_query_matches_brute_force():
    # Single new query against a longer key history (the cache shape).
    rng = np.random.default_rng(9)
    q = rng.normal(size=(1, 2, 1, 4))
    k = rng.normal(size=(1, 2, 3, 4))
    v = rng.normal(size=(1, 2, 3, 4))
    out = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), rotary=True).data
    ref = ref_attention(q, k, v, rotary=True)
    assert np.allclose(out, ref, atol=1e-12)


@pytest.mark.parametrize("rotary", [False, True])
def test_attention_grads_finite_differences(rotary):
    rng = np.random.default_rng(10)
    arrays = {
        "q": rng.normal(size=(2, 3, 4)),
        "k": rng.normal(size=(2, 3, 4)),
        "v": rng.normal(size=(2, 3, 4)),
        "ek": rng.normal(size=(2, 2, 4)),
        "ev": rng.normal(size=(2, 2, 4)),
    }
    w = rng.normal(size=(2, 3, 4))

    def build():
        ts = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
        out = T.causal_attention(ts["q"], T.concat([ts["ek"], ts["k"]], axis=-2),
                                 T.concat([ts["ev"], ts["v"]], axis=-2), rotary=rotary)
        ts["loss"] = (out * Tensor(w)).sum()
        return ts

    _check_grads(build, arrays, tol=1e-4)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("rotary", [False, True])
@pytest.mark.parametrize("t_q, t_k", [(5, 5), (2, 5), (1, 5)])
def test_attention_heads_match_per_head_calls(heads, rotary, t_q, t_k):
    # Rows of H heads side by side give, bit for bit, the one-head calls on
    # each head's columns, concatenated.
    rng = np.random.default_rng(12)
    d = 4
    q = rng.normal(size=(2, 3, t_q, heads * d))
    k, v = (rng.normal(size=(2, 3, t_k, heads * d)) for _ in range(2))
    out = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), heads, rotary=rotary).data
    per_head = [T.causal_attention(*(Tensor(x[..., h * d:(h + 1) * d]) for x in (q, k, v)),
                                   rotary=rotary).data for h in range(heads)]
    assert np.array_equal(out, np.concatenate(per_head, axis=-1))


@pytest.mark.parametrize("rotary", [False, True])
def test_attention_heads_grads_finite_differences(rotary):
    rng = np.random.default_rng(13)
    arrays = {"q": rng.normal(size=(2, 3, 8)),
              "k": rng.normal(size=(2, 5, 8)),
              "v": rng.normal(size=(2, 5, 8))}
    w = rng.normal(size=(2, 3, 8))

    def build():
        ts = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
        out = T.causal_attention(ts["q"], ts["k"], ts["v"], heads=2, rotary=rotary)
        ts["loss"] = (out * Tensor(w)).sum()
        return ts

    _check_grads(build, arrays, tol=1e-4)


@pytest.mark.parametrize("heads", [0, 4])
def test_attention_heads_must_divide_dim(heads):
    x = Tensor(np.zeros((1, 3, 6)))
    with pytest.raises(ValueError, match="heads"):
        T.causal_attention(x, x, x, heads)


@pytest.mark.parametrize("q_shape, k_shape, v_shape", [
    ((2, 3, 4), (1, 3, 4), (1, 3, 4)),   # leading dims differ
    ((1, 3, 4), (1, 3, 4), (1, 2, 4)),   # k and v differ
    ((1, 3, 6), (1, 3, 4), (1, 3, 4)),   # q's width differs
], ids=["lead", "k-v", "width"])
def test_attention_rejects_shape_mismatch(q_shape, k_shape, v_shape):
    q, k, v = (Tensor(np.zeros(s)) for s in (q_shape, k_shape, v_shape))
    with pytest.raises(ValueError, match="attention shape mismatch"):
        T.causal_attention(q, k, v)


def test_attention_rotary_needs_even_head_dim():
    x = Tensor(np.zeros((1, 3, 6)))
    with pytest.raises(ValueError, match="even head dim"):
        T.causal_attention(x, x, x, heads=2, rotary=True)


# -- layer norm -----------------------------------------------------------------

def test_layer_norm_constant_slice_is_zero():
    out = T.layer_norm(Tensor(np.full((3, 4), 7.0)), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    out = T.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-4)  # shrunk by eps only


def test_layer_norm_grads_finite_differences():
    rng = np.random.default_rng(12)
    arrays = {
        "x": rng.normal(size=(4, 6)),
        "gain": rng.normal(size=6),
        "bias": rng.normal(size=6),
    }
    w = rng.normal(size=(4, 6))

    def build():
        ts = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
        out = T.layer_norm(ts["x"], ts["gain"], ts["bias"])
        ts["loss"] = (out * Tensor(w)).sum()
        return ts

    _check_grads(build, arrays, tol=1e-5)


def test_layer_norm_matches_textbook_formula_bit_for_bit():
    rng = np.random.default_rng(13)
    x, gain, bias = rng.normal(size=(2, 3, 8)) * 3 + 1, rng.normal(size=8), rng.normal(size=8)
    g = rng.normal(size=(2, 3, 8))
    ts = [Tensor(arr, requires_grad=True) for arr in (x, gain, bias)]
    out = T.layer_norm(*ts)
    (out * Tensor(g)).sum().backward()

    # Times the reciprocal, as the engine has always normalized: dividing
    # by the root instead differs in the last bit.
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    assert np.array_equal(out.data, xhat * gain + bias)
    gh = g * gain
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    for t, expected in zip(ts, (gx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1)))):
        assert np.array_equal(t.grad, expected)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_layer_norm_overflowed_variance_raises():
    # The variance of a row near 1e200 overflows; the op must not return
    # its bias for that row as if the row were constant.
    x = np.array([[1.0, 2.0, 3.0], [1e200, -1e200, 0.0]])
    with pytest.raises(FloatingPointError, match="layer_norm"):
        T.layer_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))


# -- backward mechanics -------------------------------------------------------------

def test_sum_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_repeated_backward_is_error():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = x.sum()
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_graph_is_freed_by_reference_counting():
    # No backward closure refers to the node that holds it, so a walked
    # graph dies with its last reference, with the cycle collector off.
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
    gc.disable()
    try:
        x = T.embedding(table, np.array([[0, 1, 2, 3]]))
        h = T.layer_norm(T.matmul(x, w).relu(), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        h = h + _causal_conv(h, kernel) * 0.5
        q = h.reshape(1, 1, 4, 4).transpose((0, 1, 3, 2))
        kv = T.concat([q[..., :2, :], q], axis=-2)
        a = T.causal_attention(q, kv, kv, rotary=True)
        c = T.concat([a, T.broadcast_to(w[:1], (1, 1, 1, 4))], axis=-2)
        c = T.dropout(c, 0.5, np.random.default_rng(1)) + T.matmul(c, Tensor(np.full((4, 1), -0.25)))
        loss = T.log_softmax_last(c)[0, 0, np.arange(5), np.zeros(5, dtype=np.int64)].sum()
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            if node._prev:
                nodes.append(node)
                stack.extend(node._prev)
        refs = [weakref.ref(n.data) for n in nodes]
        loss.backward()
        del x, h, q, kv, a, c, loss, nodes, stack, node
        assert all(r() is None for r in refs)
        assert w.grad is not None and table.grad is not None and kernel.grad is not None
    finally:
        gc.enable()


def test_only_result_records_a_backward():
    # An op hands its backward to _result and never sets _prev or
    # _backprop itself, so no closure can hold the node it belongs to.
    with open(T.__file__) as fh:
        tree = ast.parse(fh.read())
    setters = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif isinstance(t, ast.Attribute) and t.attr in ("_prev", "_backprop"):
                setters.add((scope, t.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    assert setters == {("Tensor.__init__", "_prev"), ("Tensor.__init__", "_backprop"),
                       ("_result", "_prev"), ("_result", "_backprop")}


def test_backward_keeps_only_leaf_gradients():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    h = T.matmul(x, w).relu()
    y = h * h + h
    loss = y.sum()
    loss.backward()
    for node in (h, y, loss):
        assert node.grad is None
    gy = 2.0 * h.data + 1.0
    gh = gy * (h.data > 0)
    assert np.allclose(w.grad, np.einsum("btk,btn->kn", x.data, gh), rtol=1e-12, atol=1e-12)
    assert np.allclose(x.grad, gh @ w.data.T, rtol=1e-12, atol=1e-12)


def test_shared_node_graphs_match_finite_differences():
    # Random graphs of +, *, relu and reshape whose nodes feed several
    # consumers. A first gradient is adopted rather than copied, so two
    # parents handed one array would corrupt each other's sums.
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        n_ops = int(rng.integers(3, 9))
        ops = [(str(rng.choice(["add", "mul", "relu", "reshape"])),
                int(rng.integers(0, 2 + i)), int(rng.integers(0, 2 + i))) for i in range(n_ops)]
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 3))}
        taps = rng.integers(0, 2 + n_ops, size=2)
        weights = rng.normal(size=(2, 2, 3))
        relu_inputs = []

        def build():
            nodes = [Tensor(arrays["a"], requires_grad=True), Tensor(arrays["b"], requires_grad=True)]
            for op, i, j in ops:
                x, y = nodes[i], nodes[j]
                if op == "add":
                    nodes.append(x + y)
                elif op == "mul":
                    nodes.append(x * y)
                elif op == "relu":
                    relu_inputs.append(x.data)
                    nodes.append(x.relu())
                else:
                    nodes.append(x.reshape(3, 2).reshape(2, 3))
            loss = (nodes[-1] * Tensor(weights[0])).sum() + (nodes[taps[0]] * Tensor(weights[1])).sum()
            loss = loss + nodes[taps[1]].sum() + (nodes[0] + nodes[1]).sum()  # reaches both leaves
            return {"a": nodes[0], "b": nodes[1], "loss": loss}

        build()
        # Central differences are valid only away from a relu kink; an
        # input that is exactly zero is a dead branch, constant nearby.
        near = [np.abs(v[v != 0]) for v in relu_inputs]
        if any(d.size and d.min() < 1e-3 for d in near):
            continue
        _check_grads(build, arrays)
        checked += 1


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    assert x.grad[0] == pytest.approx(4.0)


def test_diamond_graph_visits_once():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * 2.0
    loss = (y + y).sum()
    loss.backward()
    assert x.grad[0] == pytest.approx(4.0)


def backward_intact(loss: Tensor) -> list[Tensor]:
    """Run loss.backward() and check that it wrote into no reachable node's
    .data and that no leaf's grad shares memory with another leaf's grad or
    with any node's .data; returns the leaves that got a grad."""
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._prev)
    before = [node.data.tobytes() for node in nodes]
    loss.backward()
    for node, data in zip(nodes, before):
        assert node.data.tobytes() == data, node
    leaves = [node for node in nodes if not node._prev and node.grad is not None]
    for i, leaf in enumerate(leaves):
        for other in leaves[i + 1:]:
            assert not np.shares_memory(leaf.grad, other.grad)
        for node in nodes:
            assert not np.shares_memory(leaf.grad, node.data)
    return leaves


def test_shared_node_backward_writes_only_gradients():
    # Backwards overwrite the gradient they are handed, so two inputs handed
    # one array (x and w from x + w, or the x * x and x + x nodes from their
    # sum) would corrupt each other's gradient.
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = rng.normal(size=(3, 4))
    h = x + w
    y = x * x + (x + x) + h.relu() * h      # h feeds the relu and the product
    leaves = backward_intact((y * Tensor(c)).sum())
    assert {id(t) for t in leaves} == {id(x), id(w)}
    gh = 2.0 * np.maximum(h.data, 0.0) * c
    assert np.allclose(x.grad, c * (2.0 * x.data + 2.0) + gh, rtol=1e-13, atol=1e-13)
    assert np.allclose(w.grad, gh, rtol=1e-13, atol=1e-13)


# -- lookup and shaping ops -----------------------------------------------------------

def test_embedding_lookup_and_scatter_grad():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([1, 1, 3])
    out = T.embedding(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    out.sum().backward()
    expect = np.zeros((4, 3))
    expect[1] = 2.0
    expect[3] = 1.0
    assert np.array_equal(table.grad, expect)


def test_embedding_rejects_out_of_range():
    with pytest.raises(ValueError):
        T.embedding(Tensor(np.zeros((4, 3))), np.array([4]))
    with pytest.raises(ValueError):
        T.embedding(Tensor(np.zeros((4, 3))), np.array([-1]))


def test_shaping_ops_grads():
    rng = np.random.default_rng(17)
    arrays = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 1, 4))}
    w = rng.normal(size=(4, 3, 4))

    def build():
        ta = Tensor(arrays["a"], requires_grad=True)
        tb = Tensor(arrays["b"], requires_grad=True)
        joined = T.concat([ta, T.broadcast_to(tb, (2, 3, 4))], axis=0)
        moved = joined.transpose((0, 2, 1)).transpose((0, 2, 1))  # there and back
        sliced = moved[:, :, :]
        return {"a": ta, "b": tb, "loss": (sliced * Tensor(w)).sum()}

    _check_grads(build, arrays, tol=1e-6, floor=1e-6)


def test_slice_grad_scatters():
    x = Tensor(np.arange(10.0), requires_grad=True)
    x[2:5].sum().backward()
    expect = np.zeros(10)
    expect[2:5] = 1.0
    assert np.array_equal(x.grad, expect)


@pytest.mark.parametrize("slices_first", [True, False])
def test_slices_add_in_place_onto_one_gradient(slices_first):
    # Two overlapping slices, an integer-array pick and a whole-tensor
    # product read one parent. With the product's backward first, the
    # slices add onto the gradient it handed over and the parent adopted;
    # otherwise the first slice starts the buffer. Integer weights make
    # every sum exact, so the order of the additions cannot change a bit.
    rng = np.random.default_rng(19)
    w = [rng.integers(-4, 5, size=s).astype(np.float64) for s in ((2, 6), (4, 3), (3,), (4, 6))]
    rows, cols = np.array([0, 1, 3]), np.array([5, 2, 2])
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    terms = [(x[1:3] * Tensor(w[0])).sum(), (x[:, 2:5] * Tensor(w[1])).sum(),
             (x[rows, cols] * Tensor(w[2])).sum()]
    whole = (x * Tensor(w[3])).sum()
    terms = terms + [whole] if slices_first else [whole] + terms
    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    loss.backward()
    expect = w[3].copy()
    expect[1:3] += w[0]
    expect[:, 2:5] += w[1]
    expect[rows, cols] += w[2]
    assert np.array_equal(x.grad, expect)


# -- misc guarantees ---------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_forward_raises():
    with pytest.raises(FloatingPointError):
        Tensor(np.array([1e308])) * Tensor(np.array([1e308]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checked_once_names_matmul_overflow_in_one_column():
    # Only the last column of the product overflows. With two or more
    # BLAS threads, that column is computed on a worker thread whose
    # floating-point flags numpy never sees, so np.errstate does not
    # raise and no RuntimeWarning is emitted; the rerun's output scan
    # still names matmul.
    a, b = np.ones((512, 256)), np.ones((256, 512))
    b[:, -1] = 1e307

    @T.checked_once
    def product():
        out = T.matmul(Tensor(a), Tensor(b)).data
        T._check_finite(out, "product")
        return out

    with pytest.raises(FloatingPointError, match="non-finite values produced by matmul"):
        product()


def test_ops_are_deterministic():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(5, 5))
    a = T.log_softmax_last(T.matmul(Tensor(x), Tensor(x))).data
    b = T.log_softmax_last(T.matmul(Tensor(x), Tensor(x))).data
    assert np.array_equal(a, b)


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.ones((3, 3)))
    assert T.dropout(x, 0.5, None) is x


def test_dropout_inverted_scaling():
    x = Tensor(np.ones((1000,)))
    out = T.dropout(x, 0.25, np.random.default_rng(0))
    kept = out.data[out.data > 0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert abs(len(kept) / 1000 - 0.75) < 0.05


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert y._prev == ()


# -- reach -----------------------------------------------------------------------

# Not on the decoder's paths: checked_once runs at import, as a decorator,
# and __repr__ only when a tensor is printed.
_UNREACHED_BY_DESIGN = {"Tensor.__repr__", "checked_once"}


def test_every_engine_function_is_reached_by_the_decoder():
    # Each top-level function and Tensor method in tensor.py runs during
    # one training update, a sliding+strided eval or a greedy generate on
    # some variant; anything else is API that no path uses.
    with open(T.__file__) as fh:
        tree = ast.parse(fh.read())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    tensor_class = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "Tensor")
    defined |= {f"Tensor.{node.name}" for node in tensor_class.body
                if isinstance(node, ast.FunctionDef)}

    entered = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == T.__file__:
            name = frame.f_code.co_name
            entered.add(f"Tensor.{name}" if isinstance(frame.f_locals.get("self"), Tensor) else name)

    docs = [Document("d", bytes(np.random.default_rng(0).integers(0, 256, 40, dtype=np.uint8)))]
    variants = [{}, dict(conv_encoder=True, cross_patch_window=2),
                dict(no_local=True), dict(no_global=True)]
    sys.setprofile(record)
    try:
        for over in variants:
            cfg = ModelConfig(context_len=16, patch_size=4, global_dim=4, local_dim=8,
                              global_layers=1, local_layers=1, dropout=0.1, **over)
            model = MegabyteDecoder(cfg, init_weights(cfg, 0))
            train(model, make_windows(docs, 16), TrainConfig(peak_lr=1e-3, total_updates=1,
                                                             batch_size=2, warmup_updates=0))
            evaluate_bpb(model, docs, mode="sliding+strided")
            generate(model, b"abc", 6, temperature=0.0)
    finally:
        sys.setprofile(None)
    unreached = sorted(defined - _UNREACHED_BY_DESIGN - entered)
    assert not unreached, f"never entered: {unreached}"
