"""Quick tests of the benchmark itself, on tiny configs.

Each output check must pass the program's real output and reject a
deliberately wrong one; every workload must run end to end through
harness.run, traced and untraced; BENCHMARK.json must name exactly the
metrics the harness prints.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import reference  # noqa: E402
from harness import EvalLong, GenerateLong, TrainA  # noqa: E402
from megabyte import inference, training  # noqa: E402
from megabyte.data import Document  # noqa: E402
from megabyte.model import MegabyteDecoder, ModelConfig  # noqa: E402

ROOT = os.path.dirname(harness.HERE)
TINY = dict(global_dim=4, local_dim=8, global_layers=1, local_layers=2, dropout=0.0)


class TinyTrain(TrainA):
    MODEL = dict(TINY, context_len=16, patch_size=4, dropout=0.1)
    BATCH = 4
    UPDATES = 3
    PEAK_LR = 0.05
    CORPUS_BYTES = 1024
    MARGIN = 0.05


class TinyEval(EvalLong):
    CONTEXT = 32
    DOC_LENGTHS = (45, 20, 7)
    WARM_BYTES = 10


class TinyGenerate(GenerateLong):
    MODEL = dict(TINY, context_len=32, patch_size=4)
    REQUESTS = ((0, 9, 1.0), (5, 6, 0.0), (13, 3, 1.0))
    WARM = (4, 2)


TINY_WORKLOADS = {w.name: w for w in (TinyTrain, TinyEval, TinyGenerate)}


def tiny_model(**over) -> MegabyteDecoder:
    cfg = ModelConfig(**{**TINY, "context_len": 16, "patch_size": 4, **over})
    return MegabyteDecoder(cfg, training.init_weights(cfg, 3))


def text(n: int, seed: int = 0) -> bytes:
    return harness.pseudo_text(np.random.default_rng(seed), n)


# -- train_a -----------------------------------------------------------------

def test_train_check_accepts_a_falling_curve_and_rejects_faults():
    good = [8.01, 7.2, 6.5, 6.1]
    assert harness.check_train_curves([good, list(good)], margin=0.5) == []
    assert harness.check_train_curves([[8.01, 7.0, math.nan, 6.0]], 0.5)
    assert harness.check_train_curves([[7.9, 7.0, 6.5, 6.0]], 0.5)         # not near-uniform at init
    assert harness.check_train_curves([[8.0, 7.9, 7.8, 7.6]], 0.5)         # fell too little
    assert harness.check_train_curves([good, [8.01, 7.2, 6.5, 6.1000001]], 0.5)  # not reproducible


def test_pseudo_text_is_seeded_and_scores_near_uniform_at_init():
    assert text(300, 1) == text(300, 1) != text(300, 2)
    model = tiny_model()
    ids = np.frombuffer(text(64), dtype=np.uint8).astype(np.int64).reshape(4, 16)
    loss = training.sequence_loss_bits(model.forward(ids), ids, np.ones_like(ids, dtype=bool)).item()
    assert abs(loss - 8.0) < 0.05


# -- eval_long ---------------------------------------------------------------

@pytest.mark.parametrize("n", [17, 24, 32, 45])
def test_reference_bpb_matches_evaluate_bpb(n):
    model = tiny_model()
    doc = Document("d", text(n, n))
    want = harness.reference_bpb(model, doc.data)
    got = inference.evaluate_bpb(model, [doc], mode=harness.EVAL_MODE).bpb
    assert abs(got - want) <= 1e-9 * want
    assert harness.check_long_document(model, doc) == []


def test_long_document_check_rejects_a_byte_scored_twice(monkeypatch):
    model = tiny_model()
    doc = Document("d", text(40))
    real = inference.evaluate_bpb

    def one_byte_twice(model, docs, mode):
        rep = real(model, docs, mode=mode)
        n = sum(len(d.data) for d in docs)
        rep.bpb = rep.bpb * (n + 1) / n       # one more byte at the mean cost
        return rep

    monkeypatch.setattr(inference, "evaluate_bpb", one_byte_twice)
    assert harness.check_long_document(model, doc)


def test_eval_report_check_rejects_miscounts():
    model = tiny_model()
    docs = [Document("a", text(40)), Document("b", text(9, 1))]
    reports = [inference.evaluate_bpb(model, docs, mode=harness.EVAL_MODE) for _ in range(2)]
    assert harness.check_eval_reports(reports, docs) == []
    reports[1].per_position_count[0] += 1            # one byte scored twice
    assert harness.check_eval_reports(reports, docs)
    reports[1].per_position_count[0] -= 1
    reports[1].cost_multiplier = 2
    assert harness.check_eval_reports(reports, docs)
    reports[1].cost_multiplier = 4
    reports[1].bpb += 1e-9
    assert harness.check_eval_reports(reports, docs)


# -- generate_long -----------------------------------------------------------

def test_expected_serial_steps_hand_values():
    cfg = ModelConfig(**dict(TINY, context_len=32, patch_size=4, global_layers=2, local_layers=3))
    assert harness.expected_serial_steps(0, 8, cfg) == 8 * 3 + 2 * 2      # patches at 0 and 4
    assert harness.expected_serial_steps(5, 4, cfg) == 4 * 3 + 1 * 2      # patch at 8
    assert harness.expected_serial_steps(4, 0, cfg) == 0


@pytest.mark.parametrize("prompt_len,temperature", [(0, 0.0), (6, 0.0), (3, 1.0)])
def test_generation_check_accepts_real_output(prompt_len, temperature):
    model = tiny_model()
    prompt = text(prompt_len, 5)
    trace = inference.generate(model, prompt, 16 - prompt_len, temperature=temperature, seed=7)
    assert harness.check_generation(model, prompt, 16 - prompt_len, temperature, trace) == []


def test_generation_check_rejects_faults():
    model = tiny_model()
    prompt = text(5, 5)

    def fresh(temperature=0.0):
        return inference.generate(model, prompt, 9, temperature=temperature, seed=7)

    bad = fresh()
    bad.logprobs[4] += 1e-3
    assert harness.check_generation(model, prompt, 9, 0.0, bad)
    bad = fresh()
    bad.total_serial_steps += 1                   # consistent with the array, off the formula
    bad.serial_steps[-1] += 1
    assert harness.check_generation(model, prompt, 9, 0.0, bad)
    bad = fresh()
    bad.serial_steps[-1] -= 1
    assert harness.check_generation(model, prompt, 9, 0.0, bad)
    sampled = fresh(temperature=1.0)                  # sampled bytes checked as if greedy
    assert harness.check_generation(model, prompt, 9, 0.0, sampled)
    assert harness.check_generation(model, prompt, 8, 0.0, fresh())


# -- whole runs --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_and_checks(name, trace, tmp_path):
    res = harness.run(name, seed=2, seconds=0.0, trace=trace, t0=time.process_time(),
                      workloads=TINY_WORKLOADS, out_dir=str(tmp_path))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if trace:
        assert os.path.exists(tmp_path / f"trace-{name}-seed2.json")
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def program_callables():
    return (training.train, inference.generate, inference.evaluate_bpb, MegabyteDecoder.forward,
            harness.tensor.matmul, harness.tensor.Tensor.backward, harness.tensor.Tensor.__init__)


@pytest.mark.parametrize("trace", [False, True])
def test_only_the_traced_run_wraps_the_program(trace):
    originals = program_callables()
    seen = []

    class Probe(TinyGenerate):
        def round(self, tracer):
            seen.append(program_callables())
            super().round(tracer)

    harness.run(Probe.name, seed=1, seconds=0.0, trace=trace, t0=time.process_time(),
                workloads={Probe.name: Probe})
    inside = seen[0]
    assert all((a is b) != trace for a, b in zip(inside, originals))
    assert program_callables() == originals


def test_tracing_fails_when_a_metric_name_is_missing(monkeypatch):
    forward = MegabyteDecoder.forward
    monkeypatch.delattr(MegabyteDecoder, "local_forward")
    with pytest.raises(AttributeError, match="model.local_forward"):
        harness.run(TinyEval.name, seed=1, seconds=0.0, trace=True, t0=time.process_time(),
                    workloads=TINY_WORKLOADS)
    assert MegabyteDecoder.forward is forward             # wrappers installed so far are undone


def test_tracing_skips_a_missing_optional_name(monkeypatch):
    monkeypatch.delattr(MegabyteDecoder, "output_head")
    tracer = harness.Tracer()
    with tracer:
        harness.install(tracer)
        assert "output_head" not in MegabyteDecoder.__dict__
    assert not tracer._undo


def test_times_and_rates_are_rescaled_by_the_reference_slowdown():
    units = {"a_s": "s", "b_ms": "ms", "c": "ms/B", "rate": "B/s", "mem": "MB", "n": "count"}
    got = harness.at_reference_speed({k: 8.0 for k in units}, units, slowdown=2.0)
    assert got == {"a_s": 4.0, "b_ms": 4.0, "c": 4.0, "rate": 16.0, "mem": 8.0, "n": 8.0}
    twice = 2 * reference.NOMINAL_MS["small"] / 1e3          # seconds
    gauge = harness.Gauge("small", clock=iter([0.0, twice, 1.0, 1.0 + twice, 2.0, 2.5]).__next__)
    for _ in range(3):
        gauge.sample()
    assert gauge.slowdown() == pytest.approx(2.0)      # the median sample took twice nominal


def test_benchmark_json_names_what_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_a",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
