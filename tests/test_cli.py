"""Subcommand behavior: artifacts, exit codes, determinism, checkpoint
round trips, and the key=value config contract."""

import io
import os
import re

import numpy as np
import pytest

from conftest import overflow_local_ff

from megabyte.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from megabyte.cli import main
from megabyte.config import ConfigError, config_to_text, load_config, parse_config
from megabyte.data import load_corpus
from megabyte.inference import evaluate_bpb, generate
from megabyte.model import MegabyteDecoder, ModelConfig
from megabyte.training import TrainConfig, init_weights

TOY_CONFIG = """\
# toy run
context_length = 16
patch_size = 4
global_dim = 4
local_dim = 8
global_layers = 1
local_layers = 1
dropout = 0.0
peak_lr = 0.01
total_updates = 3
warmup_updates = 2
batch_size = 2
seed = 7
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "run.cfg").write_text(TOY_CONFIG)
    rng = np.random.default_rng(0)
    (tmp_path / "corpus.bin").write_bytes(bytes(rng.integers(0, 256, 256, dtype=np.uint8)))
    return tmp_path


def _train(workdir, ckpt_name="model.ckpt", extra=()):
    return main(["train", "--config", str(workdir / "run.cfg"),
                 "--data", str(workdir / "corpus.bin"),
                 "--out", str(workdir / ckpt_name), *extra])


# -- train ------------------------------------------------------------------------

def test_train_writes_checkpoint_and_curve(workdir, capsys):
    assert _train(workdir) == 0
    assert (workdir / "model.ckpt").exists()
    curve = (workdir / "model.ckpt.loss.csv").read_text().splitlines()
    assert curve[0] == "step,lr,loss_bits_per_byte,grad_norm"
    assert len(curve) == 4  # header + 3 updates


def test_train_same_seed_identical_checkpoints(workdir):
    assert _train(workdir, "a.ckpt") == 0
    assert _train(workdir, "b.ckpt") == 0
    assert (workdir / "a.ckpt").read_bytes() == (workdir / "b.ckpt").read_bytes()


def test_train_missing_required_key_exit2(workdir, capsys):
    cfg = "\n".join(l for l in TOY_CONFIG.splitlines() if not l.startswith("patch_size"))
    (workdir / "run.cfg").write_text(cfg)
    assert _train(workdir) == 2
    assert "patch_size" in capsys.readouterr().err


def test_train_unknown_key_exit2(workdir, capsys):
    (workdir / "run.cfg").write_text(TOY_CONFIG + "mystery_knob = 3\n")
    assert _train(workdir) == 2
    assert "mystery_knob" in capsys.readouterr().err


@pytest.mark.parametrize("field,edits", [
    ("global_layers", [("global_layers = 1", "global_layers = -1")]),
    ("local_heads", [("seed = 7", "seed = 7\nlocal_heads = -2")]),
    ("warmup_updates", [("warmup_updates = 2", "warmup_updates = -2")]),
    ("total_updates", [("total_updates = 3", "total_updates = -1"),
                       ("warmup_updates = 2", "warmup_updates = -2")]),
])
def test_train_negative_count_exit2(workdir, capsys, field, edits):
    text = TOY_CONFIG
    for old, new in edits:
        text = text.replace(old, new)
    (workdir / "run.cfg").write_text(text)
    with pytest.raises(ConfigError, match=field):
        load_config(workdir / "run.cfg")
    assert _train(workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (workdir / "model.ckpt").exists()


@pytest.mark.parametrize("key,value", [
    ("peak_lr", "nan"), ("clip_norm", "nan"), ("clip_norm", "inf"), ("weight_decay", "nan"),
    ("adam_beta1", "1.0"), ("adam_eps", "0"), ("clip_norm", "0"),
])
def test_train_unusable_value_exit2(workdir, capsys, key, value):
    # Each of these once trained to NaN weights (or, for weight_decay=nan,
    # silently without decay, and for clip_norm=0 with every gradient
    # scaled to 0) and exited 0.
    text = re.sub(rf"^{key} = .*\n", "", TOY_CONFIG, flags=re.M) + f"{key} = {value}\n"
    with pytest.raises(ConfigError, match=key):
        parse_config(text.encode())
    (workdir / "run.cfg").write_text(text)
    assert _train(workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err
    assert not (workdir / "model.ckpt").exists()


@pytest.mark.parametrize("edit,extra,key", [
    ("seed = -1", (), "seed"),
    ("seed = 7", ("--seed", "-1"), "seed"),
    ("seed = 7\nwindow_stride = 1000", (), "window_stride"),
    ("seed = 7\nwindow_stride = -1", (), "window_stride"),
], ids=["seed_key", "seed_flag", "window_stride", "window_stride_negative"])
def test_train_bad_seed_or_stride_exit2(workdir, capsys, edit, extra, key):
    # Each once exited 2 with a numpy or make_windows message that did not
    # name the key.
    (workdir / "run.cfg").write_text(TOY_CONFIG.replace("seed = 7", edit))
    assert _train(workdir, extra=extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err
    assert not (workdir / "model.ckpt").exists()


def test_train_negative_log_every_exit2(workdir, capsys):
    # `step % -1 == 0` holds at every step, so this once printed each step
    # and exited 0.
    assert _train(workdir, extra=("--log-every", "-1")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--log-every" in err and "Traceback" not in err
    assert not (workdir / "model.ckpt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit3(workdir, capsys):
    (workdir / "run.cfg").write_text(TOY_CONFIG.replace("peak_lr = 0.01", "peak_lr = 1e9")
                                     .replace("total_updates = 3", "total_updates = 40"))
    assert _train(workdir) == 3
    assert "numerical failure" in capsys.readouterr().err


# -- eval -----------------------------------------------------------------------------

def test_eval_untrained_near_uniform(workdir, capsys):
    cfg_text = TOY_CONFIG.replace("total_updates = 3", "total_updates = 1") \
                         .replace("warmup_updates = 2", "warmup_updates = 1") \
                         .replace("peak_lr = 0.01", "peak_lr = 0.0")
    (workdir / "run.cfg").write_text(cfg_text)
    assert _train(workdir) == 0
    rc = main(["eval", "--ckpt", str(workdir / "model.ckpt"),
               "--data", str(workdir / "corpus.bin"), "--mode", "basic",
               "--csv", str(workdir / "report.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    bpb = float([l for l in out.splitlines() if "bpb=" in l][0].split("bpb=")[1].split()[0])
    assert abs(bpb - 8.0) < 0.1
    assert "cost=1X" in out
    assert (workdir / "report.csv").read_text().startswith("metric,value")


def test_eval_sliding_strided_cost_4x(workdir, capsys):
    assert _train(workdir) == 0
    rc = main(["eval", "--ckpt", str(workdir / "model.ckpt"),
               "--data", str(workdir / "corpus.bin"), "--mode", "sliding+strided"])
    assert rc == 0
    assert "cost=4X" in capsys.readouterr().out


def test_eval_reproducible(workdir, capsys):
    assert _train(workdir) == 0
    capsys.readouterr()  # discard the training banner
    args = ["eval", "--ckpt", str(workdir / "model.ckpt"),
            "--data", str(workdir / "corpus.bin"), "--mode", "strided"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


# -- generate -----------------------------------------------------------------------------

def test_generate_greedy_reproducible(workdir, capsys):
    assert _train(workdir) == 0
    for name in ("g1.bin", "g2.bin"):
        rc = main(["generate", "--ckpt", str(workdir / "model.ckpt"),
                   "--length", "12", "--temperature", "0", "--out", str(workdir / name),
                   "--trace", str(workdir / (name + ".csv"))])
        assert rc == 0
    assert (workdir / "g1.bin").read_bytes() == (workdir / "g2.bin").read_bytes()
    assert (workdir / "g1.bin.csv").read_text() == (workdir / "g2.bin.csv").read_text()
    assert len((workdir / "g1.bin").read_bytes()) == 12


def test_generate_zero_length(workdir):
    assert _train(workdir) == 0
    rc = main(["generate", "--ckpt", str(workdir / "model.ckpt"),
               "--length", "0", "--out", str(workdir / "empty.bin")])
    assert rc == 0
    assert (workdir / "empty.bin").read_bytes() == b""


def test_generate_over_length_exit2(workdir, capsys):
    assert _train(workdir) == 0
    rc = main(["generate", "--ckpt", str(workdir / "model.ckpt"),
               "--length", "99", "--out", str(workdir / "x.bin")])
    assert rc == 2


def test_generate_negative_length_exit2(tmp_path, capsys):
    mc, tc = _toy_pair()
    save_checkpoint(tmp_path / "m.ckpt", mc, tc, init_weights(mc, 0))
    rc = main(["generate", "--ckpt", str(tmp_path / "m.ckpt"), "--length", "-1",
               "--out", str(tmp_path / "x.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generate_overflow_exit3(tmp_path, capsys):
    mc, tc = _toy_pair()
    save_checkpoint(tmp_path / "m.ckpt", mc, tc, overflow_local_ff(init_weights(mc, 0)))
    rc = main(["generate", "--ckpt", str(tmp_path / "m.ckpt"), "--length", "4",
               "--out", str(tmp_path / "x.bin")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numerical failure" in err and "produced by matmul" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("temp", ["nan", "inf"])
def test_generate_non_finite_temperature_exit2(tmp_path, capsys, temp):
    mc, tc = _toy_pair()
    save_checkpoint(tmp_path / "m.ckpt", mc, tc, init_weights(mc, 0))
    rc = main(["generate", "--ckpt", str(tmp_path / "m.ckpt"), "--length", "4",
               "--temperature", temp, "--out", str(tmp_path / "x.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "temperature" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.bin").exists()


def test_generate_prompt_file_continues_prompt(workdir):
    assert _train(workdir) == 0
    (workdir / "prompt.bin").write_bytes(b"hello")
    rc = main(["generate", "--ckpt", str(workdir / "model.ckpt"), "--length", "6",
               "--prompt-file", str(workdir / "prompt.bin"), "--out", str(workdir / "g.bin")])
    assert rc == 0
    mc, _, params = load_checkpoint(workdir / "model.ckpt")
    expected = generate(MegabyteDecoder(mc, params), b"hello", 6).data
    assert (workdir / "g.bin").read_bytes() == expected


def test_generate_trace_serial_steps_match_formula(workdir):
    assert _train(workdir) == 0
    rc = main(["generate", "--ckpt", str(workdir / "model.ckpt"),
               "--length", "16", "--temperature", "0",
               "--out", str(workdir / "g.bin"), "--trace", str(workdir / "g.csv")])
    assert rc == 0
    from megabyte.costmodel import serial_steps
    last = (workdir / "g.csv").read_text().strip().splitlines()[-1]
    total = int(last.split(",")[-1])
    assert total == serial_steps(1, 1, 4, 16)[0]


# -- CSV outputs -----------------------------------------------------------------------------

def test_run_csvs_hold_plain_numbers(workdir):
    # eval --csv and generate --trace once wrote numpy floats with !r, as
    # cells like np.float64(-5.53), which no CSV reader takes for a number.
    assert _train(workdir) == 0
    ckpt, corpus = workdir / "model.ckpt", workdir / "corpus.bin"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(corpus),
                 "--csv", str(workdir / "eval.csv")]) == 0
    assert main(["generate", "--ckpt", str(ckpt), "--length", "12", "--seed", "3",
                 "--out", str(workdir / "g.bin"), "--trace", str(workdir / "trace.csv")]) == 0

    def rows(name, header, *types):
        text = (workdir / name).read_text()
        assert "\r" not in text and text.endswith("\n")
        first, *lines = text.splitlines()
        assert first == header
        return [[t(c) for t, c in zip(types, line.split(","), strict=True)] for line in lines]

    curve = rows("model.ckpt.loss.csv", "step,lr,loss_bits_per_byte,grad_norm",
                 int, float, float, float)
    assert [r[0] for r in curve] == [0, 1, 2]

    mc, _, params = load_checkpoint(ckpt)
    model = MegabyteDecoder(mc, params)
    report = evaluate_bpb(model, load_corpus(corpus))
    values = dict(rows("eval.csv", "metric,value", str, str))
    assert float(values.pop("bpb")) == report.bpb
    assert int(values.pop("cost_multiplier")) == report.cost_multiplier
    assert len(values) == 2 * mc.patch_size
    assert [float(values[f"pos{i}_loss"]) for i in range(mc.patch_size)] \
        == report.per_position_loss.tolist()
    assert [int(values[f"pos{i}_count"]) for i in range(mc.patch_size)] \
        == report.per_position_count.tolist()

    trace = generate(model, b"", 12, seed=3)
    cells = rows("trace.csv", "byte,log_prob,serial_steps", int, float, int)
    assert bytes(r[0] for r in cells) == trace.data
    assert [r[1] for r in cells] == trace.logprobs.tolist()
    assert [r[2] for r in cells] == trace.serial_steps.tolist()


# -- cost ------------------------------------------------------------------------------------

def test_cost_single_row(workdir, capsys):
    rc = main(["cost", "--spec", "transformer:m=8", "--seq-len", "64"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(lines) == 2
    assert lines[1].startswith("transformer,8,0,,,64,16.0")


def test_cost_figure_sweep_megabyte_cheaper(workdir, capsys):
    rc = main(["cost",
               "--spec", "megabyte:mg=452e6,ml=151e6,p=8",
               "--spec", "transformer:m=660e6",
               "--seq-len-range", "8192:131072:4",
               "--csv", str(workdir / "sweep.csv")])
    assert rc == 0
    rows = [l.split(",") for l in (workdir / "sweep.csv").read_text().splitlines()
            if l and not l.startswith("#")][1:]
    mega = [float(r[6]) for r in rows if r[0] == "megabyte"]
    dense = [float(r[6]) for r in rows if r[0] == "transformer"]
    assert len(mega) == 3 and len(dense) == 3
    assert all(m < d for m, d in zip(mega, dense))


def test_cost_malformed_size_exit2(capsys):
    assert main(["cost", "--spec", "transformer:m=lots", "--seq-len", "64"]) == 2
    assert main(["cost", "--spec", "transformer:m=660e6"]) == 2  # no seq len


@pytest.mark.parametrize("spec", ["transformer:m=1e400,l=2", "megabyte:mg=inf,ml=10,p=4",
                                  "transformer:m=nan"])
def test_cost_non_finite_size_exit2(capsys, spec):
    assert main(["cost", "--spec", spec, "--seq-len", "64"]) == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("spec, field", [("transformer:m=1e6,l=-3", "l_global"),
                                         ("megabyte:mg=4000,ml=100,p=4,ll=-1", "l_local"),
                                         ("transformer:m=1000,d=-64", "embed_dim"),
                                         ("megabyte:mg=1e6,ml=1e5,patch=8", "key 'patch'"),
                                         ("transformer:m=8,l=2,lg=5", "key 'lg'")])
def test_cost_negative_count_exit2(capsys, spec, field):
    assert main(["cost", "--spec", spec, "--seq-len", "64"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--spec", "transformer:m=8", "--seq-len-range", "8:64"],
    ["--spec", "transformer:m=8", "--seq-len-range", "8:x:2"],
    ["--spec", "transformer:m=8", "--seq-len-range", "64:8:2"],
    ["--spec", "transformer:m=8,l", "--seq-len", "64"],
], ids=["range-parts", "range-not-int", "range-order", "spec-field"])
def test_cost_usage_error_exit2(capsys, argv):
    assert main(["cost", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# -- scan -------------------------------------------------------------------------------------

def _write_ppm(path, h, w, seed=0):
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=h * w * 3, dtype=np.uint8).tobytes()
    path.write_bytes(f"P6 {w} {h} 255\n".encode() + payload)
    return payload


def test_scan_raster_1x1(workdir):
    _write_ppm(workdir / "img.ppm", 1, 1)
    rc = main(["scan", "--ppm", str(workdir / "img.ppm"), "--mode", "raster",
               "--out", str(workdir / "seq.bin")])
    assert rc == 0
    assert len((workdir / "seq.bin").read_bytes()) == 3


def test_scan_patch_then_inverse_round_trip(workdir):
    payload = _write_ppm(workdir / "img.ppm", 6, 6, seed=1)
    rc = main(["scan", "--ppm", str(workdir / "img.ppm"), "--mode", "patch",
               "--patch-size", "12", "--out", str(workdir / "seq.bin")])
    assert rc == 0
    rc = main(["scan", "--ppm", str(workdir / "seq.bin"), "--mode", "patch",
               "--patch-size", "12", "--inverse", "--width", "6", "--height", "6",
               "--out", str(workdir / "back.ppm")])
    assert rc == 0
    back = (workdir / "back.ppm").read_bytes()
    assert back.endswith(payload)


def test_scan_bad_patch_size_exit2(workdir, capsys):
    _write_ppm(workdir / "img.ppm", 4, 4)
    rc = main(["scan", "--ppm", str(workdir / "img.ppm"), "--mode", "patch",
               "--patch-size", "10", "--out", str(workdir / "seq.bin")])
    assert rc == 2


@pytest.mark.parametrize("inverse", [False, True], ids=["scan", "inverse"])
@pytest.mark.parametrize("size", ["0", "-3", "-12"])
def test_scan_nonpositive_patch_size_exit2(workdir, capsys, size, inverse):
    _write_ppm(workdir / "img.ppm", 4, 4)
    extra = ["--inverse", "--width", "4", "--height", "4"] if inverse else []
    rc = main(["scan", "--ppm", str(workdir / "img.ppm"), "--mode", "patch",
               "--patch-size", size, "--out", str(workdir / "out.bin"), *extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not (workdir / "out.bin").exists()


@pytest.mark.parametrize("mode, dims", [("raster", ["--width", "0", "--height", "5"]),
                                        ("patch", ["--patch-size", "12", "--width", "0",
                                                   "--height", "0"])],
                         ids=["raster", "patch"])
def test_scan_inverse_rejects_an_empty_image(workdir, capsys, mode, dims):
    # A PPM with a zero side is one `scan` itself refuses to read.
    (workdir / "empty.bin").write_bytes(b"")
    rc = main(["scan", "--ppm", str(workdir / "empty.bin"), "--mode", mode, "--inverse",
               *dims, "--out", str(workdir / "out.ppm")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not (workdir / "out.ppm").exists()


@pytest.mark.parametrize("argv, match", [
    (["--mode", "patch"], "--patch-size"),
    (["--mode", "raster", "--inverse", "--width", "4"], "--width and --height"),
], ids=["patch-without-size", "inverse-without-dims"])
def test_scan_usage_error_exit2(workdir, capsys, argv, match):
    _write_ppm(workdir / "img.ppm", 4, 4)
    rc = main(["scan", "--ppm", str(workdir / "img.ppm"), *argv,
               "--out", str(workdir / "out.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and match in err and "Traceback" not in err
    assert not (workdir / "out.bin").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--ckpt", "{dir}", "--data", "{dir}/corpus.bin"],
    ["scan", "--ppm", "{dir}", "--mode", "raster", "--out", "{dir}/seq.bin"],
], ids=["eval-ckpt", "scan-ppm"])
def test_input_path_is_a_directory_exit2(workdir, capsys, argv):
    rc = main([a.format(dir=workdir) for a in argv])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- checkpoint format ---------------------------------------------------------------------

def _toy_pair():
    mc = ModelConfig(context_len=8, patch_size=4, global_dim=3, local_dim=4,
                     global_layers=1, local_layers=1, vocab_size=19,
                     conv_encoder=True, cross_patch_window=2, dropout=0.05)
    tc = TrainConfig(peak_lr=0.5, total_updates=10, batch_size=3,
                     warmup_updates=4, weight_decay=0.2, seed=11, dropout=0.05,
                     window_stride=4)
    return mc, tc


def test_checkpoint_round_trip_bit_exact(tmp_path):
    mc, tc = _toy_pair()
    params = init_weights(mc, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, params)
    mc2, tc2, params2 = load_checkpoint(path)
    assert mc2 == mc and tc2 == tc
    assert [n for n, _ in params2.items()] == [n for n, _ in params.items()]
    for name, t in params.items():
        assert np.array_equal(params2[name].data, t.data)
        assert params2[name].data.dtype == t.data.dtype
        assert params2.decays(name) == params.decays(name)


def _archive(members: dict) -> bytes:
    """An `.npz` archive of `members`, written by `np.savez`, so every CRC is valid."""
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _members(path) -> dict:
    with np.load(path) as npz:
        return dict(npz)


def _with_config(members: dict, old: bytes, new: bytes) -> bytes:
    text = members["config"].tobytes().replace(old, new)
    return _archive({**members, "config": np.frombuffer(text, dtype=np.uint8)})


def test_checkpoint_not_a_zip(tmp_path):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="not a .npz checkpoint"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="not a .npz checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("corrupt, match", [
    (lambda b, m: _with_config(m, b"vocab_size=19", b"vocab_size=\xff9"), "bad embedded config"),
    (lambda b, m: _with_config(m, b"vocab_size=19", b"vocab_size=1x"), "bad embedded config"),
    (lambda b, m: _with_config(m, b"vocab_size=19", b"vocab_size=18"),
     re.escape("'global_embed' has shape (19, 3), expected (18, 3)")),
    # Byte-level renames, in the local header and the central directory
    # alike; zip's CRCs cover member data, not names. Zipfile reads a name
    # without the UTF-8 flag as cp437.
    (lambda b, m: b.replace(b"gl_proj.npy", b"\xffl_proj.npy"),
     "unexpected member " + re.escape(repr(b"\xffl_proj".decode("cp437")))),
    (lambda b, m: b.replace(b"global_pad.npy", b"global_pos.npy"),
     "member 'global_pos'.*repeated"),
], ids=["config-not-utf8", "config-bad-value", "config-shape-mismatch", "name-not-utf8",
        "name-repeated"])
def test_checkpoint_corrupt_config_or_name(tmp_path, corrupt, match):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    blob = path.read_bytes()
    bad = corrupt(blob, _members(path))
    assert bad != blob
    path.write_bytes(bad)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("member, value", [
    ("gl_proj", lambda a: a.T),
    ("gl_proj", lambda a: np.zeros((0, 2**40))),
    ("gl_proj", lambda a: a.astype(np.int64)),
    ("gl_proj", lambda a: a.astype(np.float32)),
    ("gl_proj", lambda a: np.float64(1.0)),
    ("gl_proj", lambda a: np.array([1.0, None], dtype=object)),
    ("config", None),
], ids=["wrong-shape", "zero-size-huge-dim", "int64", "float32", "0-d", "object-pickled",
        "missing-config"])
def test_checkpoint_rejects_well_formed_wrong_member(tmp_path, member, value):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    members = _members(path)
    if value is None:
        del members[member]
    else:
        members[member] = value(members[member])
    path.write_bytes(_archive(members))
    with pytest.raises(CheckpointError, match=re.escape(repr(member))):
        load_checkpoint(path)


def test_checkpoint_bit_flips_raise_or_change_nothing(tmp_path):
    mc, tc = _toy_pair()
    params = init_weights(mc, 0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, params)
    blob = path.read_bytes()
    rng = np.random.default_rng(0)
    for _ in range(300):
        bad = bytearray(blob)
        for bit in rng.choice(8 * len(blob), rng.integers(1, 4), replace=False):
            bad[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(bad))
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            continue
        mc2, tc2, params2 = loaded
        assert (mc2, tc2) == (mc, tc)
        assert [n for n, _ in params2.items()] == [n for n, _ in params.items()]
        for name, t in params.items():
            assert params2[name].data.dtype == t.data.dtype
            assert params2[name].data.tobytes() == t.data.tobytes()
            assert params2.decays(name) == params.decays(name)


def test_checkpoint_non_finite_tensor_eval_exit2(workdir, capsys):
    mc, tc = _toy_pair()
    params = init_weights(mc, 0)
    params["gl_proj"].data[1, 2] = np.nan
    path = workdir / "m.ckpt"
    save_checkpoint(path, mc, tc, params)
    with pytest.raises(CheckpointError, match="'gl_proj' holds inf or NaN"):
        load_checkpoint(path)
    rc = main(["eval", "--ckpt", str(path), "--data", str(workdir / "corpus.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "gl_proj" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["bit-flip", "v1-mbcp"])
def test_checkpoint_corrupt_or_v1_file_cli_exit2(workdir, capsys, kind):
    mc, tc = _toy_pair()
    path = workdir / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    if kind == "bit-flip":
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10  # lands in tensor data, so a CRC-32 fails
        path.write_bytes(bytes(blob))
        match = "fails its CRC-32 check"
    else:
        # The old binary layout: magic, u32 version 1, then the payload.
        path.write_bytes(b"MBCP" + (1).to_bytes(4, "little") + bytes(64))
        match = "not a .npz checkpoint"
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)
    for argv in (["eval", "--ckpt", str(path), "--data", str(workdir / "corpus.bin")],
                 ["generate", "--ckpt", str(path), "--length", "4",
                  "--out", str(workdir / "x.bin")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err and "Traceback" not in err
    assert not (workdir / "x.bin").exists()


def test_checkpoint_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    before = path.read_bytes()

    written = []

    def failing_fsync(fd):
        written.append(os.fstat(fd).st_size)
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, mc, tc, init_weights(mc, 1))
    monkeypatch.undo()
    assert written and written[0] > 0  # the archive was written before the save failed
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    params = init_weights(mc, 1)
    name, _ = list(params.items())[-1]
    params[name].data = params[name].data.astype(np.float16)  # rejected before any write
    with pytest.raises(CheckpointError, match=re.escape(f"{name!r} has unsupported dtype float16")):
        save_checkpoint(path, mc, tc, params)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_surfaces_optimizer_constants(tmp_path):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    config = _members(path)["config"].tobytes().decode("utf-8")
    for needle in ("adam_beta1=0.9", "adam_beta2=0.98", "adam_eps=1e-08", "weight_decay=0.2"):
        assert needle in config.splitlines()


# -- config text -----------------------------------------------------------------------------

def test_config_round_trip():
    mc, tc = _toy_pair()
    assert parse_config(config_to_text(mc, tc).encode()) == (mc, tc)


# `config_to_text(*_toy_pair())` as written before keys followed field
# order: vocab_size came first.
VOCAB_FIRST_TEXT = """\
vocab_size=19
context_length=8
patch_size=4
global_dim=3
local_dim=4
global_layers=1
local_layers=1
global_heads=1
local_heads=1
cross_patch_window=2
conv_encoder=true
no_local=false
no_global=false
dropout=0.05
peak_lr=0.5
total_updates=10
batch_size=3
warmup_updates=4
end_lr=0.0
clip_norm=1.0
weight_decay=0.2
seed=11
adam_beta1=0.9
adam_beta2=0.98
adam_eps=1e-08
window_stride=4
"""


def test_config_in_vocab_first_order_still_loads(tmp_path):
    mc, tc = _toy_pair()
    text = config_to_text(mc, tc)
    assert text.splitlines()[6] == "vocab_size=19"
    assert sorted(text.splitlines()) == sorted(VOCAB_FIRST_TEXT.splitlines())
    old = parse_config(VOCAB_FIRST_TEXT.encode())
    assert old == parse_config(text.encode()) == (mc, tc)

    params = init_weights(mc, 0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, params)
    members = _members(path)
    assert members["config"].tobytes() == text.encode()
    members["config"] = np.frombuffer(VOCAB_FIRST_TEXT.encode(), dtype=np.uint8)
    path.write_bytes(_archive(members))
    mc2, tc2, params2 = load_checkpoint(path)
    assert (mc2, tc2) == (mc, tc)
    for name, t in params.items():
        assert np.array_equal(params2[name].data, t.data)


def test_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(("vocab_size=1\nvocab_size=2\n" + TOY_CONFIG).encode())
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(b"what is this line")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config((TOY_CONFIG + "no_local = maybe\n").encode())


def test_config_order_independent():
    lines = [l for l in TOY_CONFIG.splitlines() if l and not l.startswith("#")]
    a = parse_config("\n".join(lines).encode())
    b = parse_config("\n".join(reversed(lines)).encode())
    assert a == b


def test_config_file_not_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(TOY_CONFIG.encode("utf-8") + b"# \xff\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(path)
