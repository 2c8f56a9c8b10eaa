"""Workloads, seeded inputs and output checks of the benchmark.

Each workload drives one public entry point of the program as a single
caller in a closed loop, one request at a time:

  train_a        training.train            backward + Adam at config A
  eval_long      inference.evaluate_bpb    sliding+strided forward at T=8192
  generate_long  inference.generate        per-byte cached decode at T=4096

The workload seed fixes every input (weights, corpus, prompts, sampling
seeds); the program only receives the generated inputs. Every operation
is the same in every round, so results repeat exactly across rounds and
the checks compare them with each other as well as with independent
recomputations.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from megabyte import costmodel, inference, tensor, training  # noqa: E402
from megabyte.data import Document, make_windows  # noqa: E402
from megabyte.model import MegabyteDecoder, ModelConfig, Parameters  # noqa: E402

from reference import Gauge  # noqa: E402
from tracer import Tracer  # noqa: E402

LN2 = math.log(2.0)
SETUP_REPEATS = 3
# Operations and set-up are timed in CPU seconds of this process, not in
# wall time: on a machine whose cores other jobs share, wall time also
# counts the time the run waits for a core. With one BLAS thread and no
# child processes, the CPU time is the time the program itself needed.
# Reported times are then rescaled by a reference kernel (reference.py)
# to take out how fast the shared host runs at the moment.
CLOCK = time.process_time
EVAL_MODE = "sliding+strided"
DIMS = dict(global_dim=32, local_dim=64, global_layers=2, local_layers=2)

# -- seeded inputs --------------------------------------------------------

# Letters in English frequency order; word spelling draws them Zipf-weighted.
_LETTERS = np.frombuffer(b"etaoinshrdlcumwfgypbvkjxqz", dtype=np.uint8)


def _vocabulary(size: int = 400) -> list[bytes]:
    # Fixed across workload seeds, so every seed draws text with the same
    # statistics and the seed varies only the instance.
    rng = np.random.default_rng(2305_07185)
    letter_p = 1.0 / np.arange(1, len(_LETTERS) + 1)
    letter_p /= letter_p.sum()
    return [_LETTERS[rng.choice(len(_LETTERS), size=k, p=letter_p)].tobytes()
            for k in rng.integers(1, 10, size=size)]


_VOCAB = _vocabulary()


def pseudo_text(rng: np.random.Generator, n: int) -> bytes:
    """n bytes of English-like text: Zipf-weighted draws from a fixed
    vocabulary of 400 made-up words, capitalised sentences, periods, and a
    newline after about one sentence in five. Its byte statistics are
    learnable within a few updates, and an untrained model scores it near
    8 bits per byte."""
    vocab, vocab_size = _VOCAB, len(_VOCAB)
    word_p = 1.0 / np.arange(1, vocab_size + 1)
    word_p /= word_p.sum()
    out = bytearray()
    while len(out) < n:
        words = b" ".join(vocab[i] for i in rng.choice(vocab_size, size=rng.integers(4, 15), p=word_p))
        out += words[:1].upper() + words[1:] + (b".\n" if rng.random() < 0.2 else b". ")
    return bytes(out[:n])


def current_rss_mb() -> float:
    """Resident set size now (Linux /proc), else the peak so far."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


# -- output checks ---------------------------------------------------------


def check_train_curves(curves: list[list[float]], margin: float) -> list[str]:
    """Loss before update 0 is near-uniform (8 bits), every loss is finite,
    the last is below the first by at least `margin` bits, and every call
    (same seed, same data) reproduces the first call's curve exactly."""
    errors = []
    for i, losses in enumerate(curves):
        if not all(math.isfinite(x) for x in losses):
            errors.append(f"train call {i}: non-finite loss in {losses}")
            continue
        if abs(losses[0] - 8.0) > 0.05:
            errors.append(f"train call {i}: update-0 loss {losses[0]:.4f} is not within 0.05 of 8")
        if not losses[-1] < losses[0] - margin:
            errors.append(f"train call {i}: final loss {losses[-1]:.4f} is not {margin} below "
                          f"update 0's {losses[0]:.4f}")
        if losses != curves[0]:
            errors.append(f"train call {i}: loss curve differs from call 0")
    return errors


def reference_bpb(model: MegabyteDecoder, data: bytes) -> float:
    """Sliding+strided bits per byte of one document, recomputed from
    model.forward log-probs with windows and position selection built
    here: window 0 scores [0, T), the window at offset o > 0 scores
    [o + T/2, o + T); within a window, byte j comes from the unshifted pass
    when j mod P < P/2 and otherwise from the pass shifted left by P/2."""
    cfg = model.config
    t, p = cfg.context_len, cfg.patch_size
    x = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    n = len(x)
    offsets = [0]
    while offsets[-1] + t < n:
        offsets.append(offsets[-1] + t // 2)
    rows = np.zeros((len(offsets), t), dtype=np.int64)
    scored = np.zeros(n, dtype=np.int64)
    spans = []
    for r, o in enumerate(offsets):
        chunk = x[o:o + t]
        rows[r, :len(chunk)] = chunk
        lo, hi = (0 if o == 0 else t // 2), len(chunk)
        scored[o + lo:o + hi] += 1
        spans.append((lo, hi))
    if not np.all(scored == 1):
        raise AssertionError("reference windows do not score every byte exactly once")
    shifted = np.zeros_like(rows)
    shifted[:, :t - p // 2] = rows[:, p // 2:]
    with tensor.no_grad():
        lp_a = model.forward(rows).data
        lp_b = model.forward(shifted).data
    bits = 0.0
    for r, (lo, hi) in enumerate(spans):
        for j in range(lo, hi):
            if j % p < p // 2:
                bits -= lp_a[r, j, rows[r, j]]
            else:
                bits -= lp_b[r, j - p // 2, rows[r, j]]
    return bits / LN2 / n


def check_eval_reports(reports, docs: list[Document]) -> list[str]:
    """Every byte is scored once, the mode costs 4 forwards per byte, and
    every call on the same corpus gives the same bpb."""
    errors = []
    total = sum(len(d.data) for d in docs)
    for i, rep in enumerate(reports):
        counted = int(np.sum(rep.per_position_count))
        if counted != total:
            errors.append(f"eval call {i}: per_position_count sums to {counted}, corpus has {total} bytes")
        if rep.cost_multiplier != 4:
            errors.append(f"eval call {i}: cost_multiplier {rep.cost_multiplier}, expected 4")
        if not math.isfinite(rep.bpb) or abs(rep.bpb - reports[0].bpb) > 1e-12 * abs(reports[0].bpb):
            errors.append(f"eval call {i}: bpb {rep.bpb!r} differs from call 0's {reports[0].bpb!r}")
    return errors


def check_long_document(model: MegabyteDecoder, doc: Document) -> list[str]:
    """evaluate_bpb on one document longer than T matches reference_bpb."""
    if len(doc.data) <= model.config.context_len:
        return [f"document {doc.id} is not longer than T"]
    got = inference.evaluate_bpb(model, [doc], mode=EVAL_MODE).bpb
    want = reference_bpb(model, doc.data)
    if not abs(got - want) <= 1e-9 * abs(want):
        return [f"long document bpb {got!r} != reference {want!r}"]
    return []


def expected_serial_steps(prompt_len: int, n_bytes: int, cfg: ModelConfig) -> int:
    """L_L per generated byte plus L_G per patch started while generating."""
    l_g = cfg.global_layers if cfg.global_active else 0
    l_l = cfg.local_layers if cfg.local_active else 0
    new_patches = sum(1 for t in range(prompt_len, prompt_len + n_bytes) if t % cfg.patch_size == 0)
    return n_bytes * l_l + new_patches * l_g


def check_generation(model: MegabyteDecoder, prompt: bytes, n_bytes: int,
                     temperature: float, trace) -> list[str]:
    """Emitted log-probs equal teacher forcing through one full forward,
    greedy bytes are an argmax of the forced row, and the serial-step
    count follows the patch schedule."""
    cfg = model.config
    errors = []
    if len(trace.data) != n_bytes or len(trace.logprobs) != n_bytes:
        return [f"asked for {n_bytes} bytes, got {len(trace.data)} bytes and "
                f"{len(trace.logprobs)} log-probs"]
    seq = np.frombuffer(prompt + trace.data, dtype=np.uint8).astype(np.int64)
    s, n = len(prompt), len(seq)
    padded = np.zeros(-(-n // cfg.patch_size) * cfg.patch_size, dtype=np.int64)
    padded[:n] = seq
    with tensor.no_grad():
        rows = model.forward(padded).data[s:n]
    forced = rows[np.arange(n - s), seq[s:]]
    if n_bytes:
        worst = float(np.max(np.abs(forced - trace.logprobs)))
        if not worst <= 1e-6:
            errors.append(f"log-probs differ from teacher forcing by up to {worst:.3g}")
        if temperature == 0.0 and np.any(forced < rows.max(axis=1) - 1e-9):
            errors.append("a greedy byte is not an argmax of its teacher-forced row")
    want = expected_serial_steps(s, n_bytes, cfg)
    if trace.total_serial_steps != want:
        errors.append(f"total_serial_steps {trace.total_serial_steps}, expected {want}")
    if n_bytes and (trace.serial_steps[-1] != trace.total_serial_steps
                    or np.any(np.diff(trace.serial_steps) < 0)):
        errors.append("cumulative serial_steps is not a non-decreasing run ending at the total")
    return errors


# -- workloads -------------------------------------------------------------


class Workload:
    """One workload: setup() builds the model and inputs and warms up,
    round() runs one round of operations, check() returns error strings."""

    name = ""
    gauge = "gemm"      # the reference kernel (reference.py) doing the same kind of work

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.work_bytes = 0       # the bytes ref_bytes_per_s counts

    def _attempt(self, fn, *args, **kwargs):
        """Run one operation; returns (result, CPU seconds), or (None, None) on failure."""
        self.attempted += 1
        start = CLOCK()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, None
        return result, CLOCK() - start

    def probe(self, tracer) -> None:
        """Traced runs only: extra untimed operations some per-layer metrics need."""


class TrainA(Workload):
    """One training.train call per round, from the same initial weights."""

    name = "train_a"
    MODEL = dict(context_len=512, patch_size=8, dropout=0.1, **DIMS)
    BATCH = 8
    UPDATES = 4           # per train() call; its graphs, freed only by the cyclic GC, peak near 2.2 GB
    PEAK_LR = 0.005
    CORPUS_BYTES = 64 * 1024
    LOSS_TAIL = 2         # loss_bits is the mean loss of the last updates of a call
    MARGIN = 0.5          # bits the final loss must fall below update 0's

    def setup(self) -> None:
        self.cfg = ModelConfig(**self.MODEL)
        rng = np.random.default_rng(self.seed)
        doc = Document("train", pseudo_text(rng, self.CORPUS_BYTES))
        self.windows = make_windows([doc], self.cfg.context_len)
        self.init = training.init_weights(self.cfg, self.seed)
        self.train_cfg = training.TrainConfig(
            peak_lr=self.PEAK_LR, total_updates=self.UPDATES, batch_size=self.BATCH,
            warmup_updates=1, dropout=self.cfg.dropout, seed=self.seed)
        warm = training.TrainConfig(peak_lr=self.PEAK_LR, total_updates=1, batch_size=self.BATCH,
                                    warmup_updates=1, dropout=self.cfg.dropout, seed=self.seed)
        training.train(self._fresh_model(), self.windows, warm)
        self.times: list[float] = []
        self.curves: list[list[float]] = []
        self.rss_growth: list[float] = []

    def _fresh_model(self) -> MegabyteDecoder:
        params = Parameters()
        for name, t in self.init.items():
            params.add(name, tensor.Tensor(t.data.copy()), self.init.decays(name))
        return MegabyteDecoder(self.cfg, params)

    def round(self, tracer) -> None:
        model = self._fresh_model()
        gc.collect()          # set-up garbage; after the first round there is none
        rss = current_rss_mb()
        if tracer:
            tracer.section = "op"
        curve, dt = self._attempt(training.train, model, self.windows, self.train_cfg)
        # The call's graphs are reference cycles that only the cyclic GC
        # frees. Reclaiming them is part of the operation's cost, so the
        # collection right after the call is timed with it (and, traced,
        # counted in training.gc_pause_ms).
        grown = current_rss_mb() - rss
        start = CLOCK()
        gc.collect()
        reclaim = CLOCK() - start
        if tracer:
            tracer.section = "idle"
        if curve is None:
            return
        dt += reclaim
        self.rss_growth.append(grown / self.UPDATES)
        self.times.append(dt)
        self.curves.append([r.loss_bits for r in curve])
        self.work_bytes += self.UPDATES * self.BATCH * self.cfg.context_len

    def probe(self, tracer) -> None:
        """One more train call under tracemalloc: the memory it allocated
        and still holds after returning is graph garbage awaiting the
        cyclic GC."""
        tracer.section = "memory"
        model = self._fresh_model()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, dt = self._attempt(training.train, model, self.windows, self.train_cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tracer.section = "idle"
        if dt is not None:
            self.held_mb_per_update = held / 2**20 / self.UPDATES

    def check(self) -> list[str]:
        return check_train_curves(self.curves, self.MARGIN)

    def end_to_end(self) -> dict:
        per_call = self.UPDATES * self.BATCH * self.cfg.context_len
        return {"ref_bytes_per_s": statistics.median(per_call / t for t in self.times),
                "ref_ms_per_op": statistics.median(self.times) / self.UPDATES * 1e3,
                "loss_bits": statistics.fmean(self.curves[0][-self.LOSS_TAIL:])}

    def counters(self) -> dict:
        return {"updates": self.UPDATES * len(self.times),
                "rss_growth_mb_per_update": statistics.fmean(self.rss_growth) if self.rss_growth else 0.0,
                "held_mb_per_update": getattr(self, "held_mb_per_update", 0.0)}


class EvalLong(Workload):
    """One evaluate_bpb call per round over a corpus of mixed-length
    documents, one longer than T and the rest shorter."""

    name = "eval_long"
    CONTEXT = 8192
    DOC_LENGTHS = (9000, 700)
    WARM_BYTES = 1000

    def setup(self) -> None:
        t = self.CONTEXT
        p = costmodel.optimal_patch(t, round_to_divisor=True).best_divisor
        self.cfg = ModelConfig(context_len=t, patch_size=p, dropout=0.0, **DIMS)
        rng = np.random.default_rng(self.seed)
        self.docs = [Document(f"doc{i}", pseudo_text(rng, n)) for i, n in enumerate(self.DOC_LENGTHS)]
        self.model = MegabyteDecoder(self.cfg, training.init_weights(self.cfg, self.seed))
        warm = Document("warm", pseudo_text(rng, self.WARM_BYTES))
        inference.evaluate_bpb(self.model, [warm], mode=EVAL_MODE)
        self.times: list[float] = []
        self.reports = []

    def round(self, tracer) -> None:
        if tracer:
            tracer.section = "op"
        report, dt = self._attempt(inference.evaluate_bpb, self.model, self.docs, mode=EVAL_MODE)
        if tracer:
            tracer.section = "idle"
        if report is None:
            return
        self.times.append(dt)
        self.reports.append(report)
        self.work_bytes += sum(len(d.data) for d in self.docs)

    def check(self) -> list[str]:
        long_doc = max(self.docs, key=lambda d: len(d.data))
        return check_eval_reports(self.reports, self.docs) + check_long_document(self.model, long_doc)

    def end_to_end(self) -> dict:
        total = sum(len(d.data) for d in self.docs)
        return {"ref_bytes_per_s": statistics.median(total / t for t in self.times),
                "ref_ms_per_op": statistics.median(self.times) * 1e3,
                "loss_bits": self.reports[0].bpb}

    def counters(self) -> dict:
        return {}


class GenerateLong(Workload):
    """One round is, for each request in a fixed list, a generate(prompt, 1)
    call (first-byte latency) and then the full-length generate call."""

    name = "generate_long"
    gauge = "small"
    MODEL = dict(context_len=4096, patch_size=16, dropout=0.0, **DIMS)
    # (prompt bytes, output bytes, temperature)
    REQUESTS = ((0, 768, 1.0), (64, 384, 0.0), (256, 256, 1.0), (512, 128, 0.0), (2048, 32, 1.0))
    WARM = (256, 64)

    def setup(self) -> None:
        self.cfg = ModelConfig(**self.MODEL)
        rng = np.random.default_rng(self.seed)
        self.requests = [(pseudo_text(rng, plen), n, temp, int(rng.integers(2**31)))
                         for plen, n, temp in self.REQUESTS]
        self.model = MegabyteDecoder(self.cfg, training.init_weights(self.cfg, self.seed))
        inference.generate(self.model, pseudo_text(rng, self.WARM[0]), self.WARM[1], seed=0)
        self.first_ms: list[float] = []
        self.full_s = 0.0
        self.outputs: list[list] = []     # per round, per request: (first trace, full trace)
        self.serial_steps = 0
        self.prefill_s = 0.0
        self.prefill_bytes = 0

    def round(self, tracer) -> None:
        results = []
        for prompt, n, temp, seed in self.requests:
            if tracer:
                tracer.section = "first"
            first, dt_first = self._attempt(inference.generate, self.model, prompt, 1,
                                            temperature=temp, seed=seed)
            if tracer:
                tracer.section = "op"
            full, dt_full = self._attempt(inference.generate, self.model, prompt, n,
                                          temperature=temp, seed=seed)
            if tracer:
                tracer.section = "idle"
            if first is not None:
                self.first_ms.append(dt_first * 1e3)
            if full is not None:
                self.full_s += dt_full
                self.work_bytes += len(full.data)
                self.serial_steps += full.total_serial_steps
            results.append((first, full))
        self.outputs.append(results)

    def probe(self, tracer) -> None:
        """Time generate(prompt, 0), which only feeds the prompt."""
        tracer.section = "prefill"
        for prompt, _, temp, seed in self.requests:
            if prompt:
                _, dt = self._attempt(inference.generate, self.model, prompt, 0,
                                      temperature=temp, seed=seed)
                if dt is not None:
                    self.prefill_s += dt
                    self.prefill_bytes += len(prompt)
        tracer.section = "idle"

    def check(self) -> list[str]:
        errors = []
        reference = self.outputs[0]
        for i, (prompt, n, temp, _) in enumerate(self.requests):
            first, full = reference[i]
            if full is None:
                continue
            errors += [f"request {i}: {e}" for e in check_generation(self.model, prompt, n, temp, full)]
            if first is not None and (first.data != full.data[:1] or first.logprobs[0] != full.logprobs[0]):
                errors.append(f"request {i}: generate(prompt, 1) disagrees with the full call's first byte")
            for r, later in enumerate(self.outputs[1:], start=1):
                other = later[i][1]
                if other is not None and (other.data != full.data
                                          or not np.array_equal(other.logprobs, full.logprobs)):
                    errors.append(f"request {i}: round {r} output differs from round 0")
        return errors

    def end_to_end(self) -> dict:
        logprobs = np.concatenate([full.logprobs for _, full in self.outputs[0] if full is not None])
        return {"ref_bytes_per_s": self.work_bytes / self.full_s,
                "ref_ms_per_op": statistics.median(self.first_ms),
                "loss_bits": float(-np.mean(logprobs) / LN2)}

    def counters(self) -> dict:
        return {"serial_steps": self.serial_steps,
                "prefill_ms_per_prompt_byte": _div(self.prefill_s * 1e3, self.prefill_bytes)}


WORKLOADS = {w.name: w for w in (TrainA, EvalLong, GenerateLong)}

# -- tracing ---------------------------------------------------------------

MODEL_METHODS = ("forward", "embed_global", "global_forward", "combine_for_local",
                 "project_global", "local_forward", "output_head")
TENSOR_FUNCTIONS = ("matmul", "concat", "broadcast_to", "embedding", "gather_last",
                    "softmax_last", "log_softmax_last", "layer_norm", "causal_conv1d",
                    "causal_attention", "dropout")
TRAINING_FUNCTIONS = ("train", "sequence_loss_bits", "grad_global_norm", "clip_gradients", "adam_step")
OPTIMIZER = ("training.grad_global_norm", "training.clip_gradients", "training.adam_step")
# Wrapped only for call counts and self times; no metric reads them by
# name, so a program without one still traces (per_layer names the rest).
OPTIONAL = {"model.project_global", "model.output_head", "tensor.concat", "tensor.broadcast_to",
            "tensor.gather_last", "tensor.softmax_last", "tensor.causal_conv1d", "tensor.dropout"}


def install(tracer: Tracer) -> None:
    """Wrap the public names the per-layer metrics read."""
    def wrap(owner, attr, name, units=None):
        tracer.wrap(owner, attr, name, units, required=name not in OPTIONAL)

    for attr in MODEL_METHODS:
        units = (lambda a, k: int(np.size(a[1]))) if attr == "forward" else None
        wrap(MegabyteDecoder, attr, f"model.{attr}", units)
    for attr in TENSOR_FUNCTIONS:
        units = (lambda a, k: int(np.size(a[1]))) if attr == "embedding" else None
        wrap(tensor, attr, f"tensor.{attr}", units)
    wrap(tensor.Tensor, "backward", "tensor.backward")
    tracer.count(tensor.Tensor, "__init__", "tensor.Tensor")
    for attr in TRAINING_FUNCTIONS:
        wrap(training, attr, f"training.{attr}")
    for attr in ("evaluate_bpb", "generate"):
        wrap(inference, attr, f"inference.{attr}")


# name -> unit; the values come from per_layer() below.
PER_LAYER_UNITS = {
    "model.forward_ms": "ms",
    "model.embed_global_ms": "ms",
    "model.global_forward_ms": "ms",
    "model.combine_for_local_ms": "ms",
    "model.local_forward_ms": "ms",
    "tensor.log_softmax_last_ms": "ms",
    "tensor.causal_attention_ms": "ms",
    "inference.evaluate_bpb_self_ms": "ms",
    "inference.forward_bytes_per_scored_byte": "B/B",
    "training.sequence_loss_bits_ms": "ms",
    "tensor.backward_ms": "ms",
    "training.optimizer_ms": "ms",
    "tensor.nodes_per_update": "count",
    "training.gc_pause_ms": "ms",
    "training.rss_growth_mb_per_update": "MB",
    "training.held_mb_per_update": "MB",
    "inference.prefill_ms_per_prompt_byte": "ms/B",
    "inference.generate_self_ms_per_byte": "ms/B",
    "tensor.matmul_ms_per_byte": "ms/B",
    "tensor.causal_attention_ms_per_byte": "ms/B",
    "tensor.layer_norm_ms_per_byte": "ms/B",
    "tensor.embedding_ms_per_byte": "ms/B",
    "tensor.calls_per_byte": "1/B",
    "tensor.embedding_rows_per_byte": "rows/B",
    "inference.ms_per_serial_step": "ms/step",
}


def per_layer(tr: Tracer, wl: Workload) -> dict:
    """Per-layer metrics of the timed operations (section "op").

    "_ms" model and forward-level metrics are per model.forward call, the
    training ones per update, "_per_byte" ones per byte that ref_bytes_per_s
    counts (trained, scored or generated). A layer the workload never
    reaches reads 0.
    """
    c = wl.counters()
    op = "op"
    fwd = tr.calls(op, "model.forward")
    upd = c.get("updates", 0)
    w = wl.work_bytes
    ms = 1e3

    def per_forward(name):
        return _div(tr.inclusive_s(op, name) * ms, fwd)

    return {
        "model.forward_ms": per_forward("model.forward"),
        "model.embed_global_ms": per_forward("model.embed_global"),
        "model.global_forward_ms": per_forward("model.global_forward"),
        "model.combine_for_local_ms": per_forward("model.combine_for_local"),
        "model.local_forward_ms": per_forward("model.local_forward"),
        "tensor.log_softmax_last_ms": per_forward("tensor.log_softmax_last"),
        "tensor.causal_attention_ms": per_forward("tensor.causal_attention"),
        "inference.evaluate_bpb_self_ms": _div(tr.self_s(op, "inference.evaluate_bpb") * ms, fwd),
        "inference.forward_bytes_per_scored_byte": _div(tr.units(op, "model.forward"), w),
        "training.sequence_loss_bits_ms": _div(tr.inclusive_s(op, "training.sequence_loss_bits") * ms, upd),
        "tensor.backward_ms": _div(tr.inclusive_s(op, "tensor.backward") * ms, upd),
        "training.optimizer_ms": _div(sum(tr.inclusive_s(op, n, parents=("training.train",))
                                          for n in OPTIMIZER) * ms, upd),
        "tensor.nodes_per_update": _div(tr.counts[(op, "tensor.Tensor")], upd),
        "training.gc_pause_ms": _div(tr.gc_pause_s[op] * ms, upd),
        "training.rss_growth_mb_per_update": c.get("rss_growth_mb_per_update", 0.0),
        "training.held_mb_per_update": c.get("held_mb_per_update", 0.0),
        "inference.prefill_ms_per_prompt_byte": c.get("prefill_ms_per_prompt_byte", 0.0),
        "inference.generate_self_ms_per_byte": _div(tr.self_s(op, "inference.generate") * ms, w),
        "tensor.matmul_ms_per_byte": _div(tr.inclusive_s(op, "tensor.matmul") * ms, w),
        "tensor.causal_attention_ms_per_byte": _div(tr.inclusive_s(op, "tensor.causal_attention") * ms, w),
        "tensor.layer_norm_ms_per_byte": _div(tr.inclusive_s(op, "tensor.layer_norm") * ms, w),
        "tensor.embedding_ms_per_byte": _div(tr.inclusive_s(op, "tensor.embedding") * ms, w),
        "tensor.calls_per_byte": _div(tr.calls_with_prefix(op, "tensor."), w),
        "tensor.embedding_rows_per_byte": _div(tr.units(op, "tensor.embedding"), w),
        "inference.ms_per_serial_step": _div(tr.inclusive_s(op, "inference.generate") * ms,
                                             c.get("serial_steps", 0)),
    }


# -- one run ---------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ref_bytes_per_s": "B/s",
                    "ref_ms_per_op": "ms", "loss_bits": "bits"}


def at_reference_speed(values: dict, units: dict, slowdown: float) -> dict:
    """Times (s, ms, ms/...) divided and rates (B/s) multiplied by the
    reference kernel's slowdown; other metrics as they are."""
    def scale(unit):
        if unit == "s" or unit.startswith("ms"):
            return 1.0 / slowdown
        return slowdown if unit == "B/s" else 1.0
    return {k: v * scale(units[k]) for k, v in values.items()}


def run(name: str, seed: int, seconds: float, trace: bool, t0: float,
        workloads: dict = WORKLOADS, out_dir: str | None = None) -> dict:
    """Set up `name` SETUP_REPEATS times, run whole rounds for about
    `seconds` of wall time, check the outputs, and return the result
    object. t0 is the CLOCK reading set-up is counted from (0 in a fresh
    process, whose CPU clock starts at process start); imports count as
    set-up. The workload's reference kernel runs before every set-up and
    every round, and every time is reported at its nominal speed."""
    import_s = CLOCK() - t0
    gauge = Gauge(workloads[name].gauge, CLOCK)
    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        if tracer:
            install(tracer)
        setups = []
        for _ in range(SETUP_REPEATS):
            wl = None
            gc.collect()
            gauge.sample()
            start = CLOCK()
            wl = workloads[name](seed)
            wl.setup()
            setups.append(CLOCK() - start)

        # Whole rounds only; stop before a round that would overrun `seconds`.
        start, cpu_start = time.perf_counter(), CLOCK()
        longest = 0.0
        while True:
            r0 = time.perf_counter()
            gauge.sample()
            wl.round(tracer)
            longest = max(longest, time.perf_counter() - r0)
            if time.perf_counter() - start + longest > seconds:
                break
        wall_s, cpu_s = time.perf_counter() - start, CLOCK() - cpu_start
        if tracer:
            wl.probe(tracer)
        if wl.attempted == wl.failed:
            raise RuntimeError(f"all {wl.attempted} operations of {name} failed")
        if tracer:
            tracer.section = "check"
        errors = wl.check()

    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    # A CPU share well below 1 means the run waited for a core; a slowdown
    # away from 1 means the host ran slower (or faster) than nominal.
    slowdown = gauge.slowdown()
    print(f"timed rounds: {wall_s:.3f} s wall, {cpu_s:.3f} s CPU, CPU share {_div(cpu_s, wall_s):.3f}; "
          f"{gauge.kind} reference kernel {gauge.median_ms():.3f} ms over {len(gauge.samples)} "
          f"samples, slowdown {slowdown:.3f}")
    e2e = {"setup_s": import_s + statistics.median(setups), "peak_rss_mb": peak_rss_mb(),
           **wl.end_to_end()}
    e2e = at_reference_speed(e2e, END_TO_END_UNITS, slowdown)
    if tracer:
        print("traced end_to_end: " + " ".join(f"{k}={v!r}" for k, v in e2e.items()))
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"))
        units = PER_LAYER_UNITS
        values = at_reference_speed(per_layer(tracer, wl), units, slowdown)
    else:
        values, units = e2e, END_TO_END_UNITS
    return {"correct": not errors, "attempted": wl.attempted, "failed": wl.failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units}}
