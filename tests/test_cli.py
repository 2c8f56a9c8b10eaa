"""Subcommand behavior: artifacts, exit codes, determinism, checkpoint
round trips, and the key=value config contract."""

import re
import struct

import numpy as np
import pytest

from conftest import overflow_local_ff

from megabyte.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from megabyte.cli import main
from megabyte.config import (
    ConfigError,
    config_to_text,
    configs_from_values,
    load_config,
    parse_config_text,
)
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
    ("adam_beta1", "1.0"), ("adam_eps", "0"),
])
def test_train_unusable_value_exit2(workdir, capsys, key, value):
    # Each of these once trained to NaN weights (or, for weight_decay=nan,
    # silently without decay) and exited 0.
    text = re.sub(rf"^{key} = .*\n", "", TOY_CONFIG, flags=re.M) + f"{key} = {value}\n"
    with pytest.raises(ConfigError, match=key):
        configs_from_values(parse_config_text(text))
    (workdir / "run.cfg").write_text(text)
    assert _train(workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err
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
                                         ("transformer:m=1000,d=-64", "embed_dim")])
def test_cost_negative_count_exit2(capsys, spec, field):
    assert main(["cost", "--spec", spec, "--seq-len", "64"]) == 2
    assert field in capsys.readouterr().err


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
                     warmup_updates=4, weight_decay=0.2, seed=11, dropout=0.05)
    return mc, tc


def test_checkpoint_round_trip_bit_exact(tmp_path):
    mc, tc = _toy_pair()
    params = init_weights(mc, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, params, window_stride=8)
    mc2, tc2, params2, stride = load_checkpoint(path)
    assert mc2 == mc and tc2 == tc and stride == 8
    assert [n for n, _ in params2.items()] == [n for n, _ in params.items()]
    for name, t in params.items():
        assert np.array_equal(params2[name].data, t.data)
        assert params2[name].data.dtype == t.data.dtype
        assert params2.decays(name) == params.decays(name)


def test_checkpoint_bad_magic(tmp_path):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version mismatch"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def _first_name_offset(blob: bytes) -> int:
    # magic, version, config length, config text, tensor count, name length
    return 12 + int.from_bytes(blob[8:12], "little") + 4 + 2


@pytest.mark.parametrize("corrupt", [
    lambda b: b[:12] + b"\xff" + b[13:],
    lambda b: b.replace(b"vocab_size=19", b"vocab_size=1x"),
    lambda b: b.replace(b"vocab_size=19", b"vocab_size=18"),
    lambda b: b[:_first_name_offset(b)] + b"\xff" + b[_first_name_offset(b) + 1:],
    lambda b: b.replace(b"global_pad", b"global_pos"),
], ids=["config-not-utf8", "config-bad-value", "config-shape-mismatch", "name-not-utf8",
        "name-repeated"])
def test_checkpoint_corrupt_config_or_name(tmp_path, corrupt):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    blob = path.read_bytes()
    bad = corrupt(blob)
    assert len(bad) == len(blob) and bad != blob
    path.write_bytes(bad)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


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


def test_checkpoint_failed_save_keeps_previous_file(tmp_path):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    before = path.read_bytes()
    params = init_weights(mc, 1)
    name, _ = list(params.items())[-1]
    params[name].data = params[name].data.astype(np.float16)  # no dtype code: the save fails partway
    with pytest.raises(CheckpointError, match=re.escape(f"{name!r} has unsupported dtype float16")):
        save_checkpoint(path, mc, tc, params)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_float32_tensors_load_as_float64(tmp_path):
    # Hand-built in the layout of the checkpoint module docstring, with
    # every tensor stored as dtype code 1 (float32), as older files are.
    mc, tc = _toy_pair()
    values = {name: t.data.astype(np.float32) for name, t in init_weights(mc, 3).items()}
    text = config_to_text(mc, tc, 0).encode("utf-8")
    blob = b"MBCP" + struct.pack("<II", 1, len(text)) + text + struct.pack("<I", len(values))
    for name, arr in values.items():
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", arr.ndim)
        blob += b"".join(struct.pack("<I", d) for d in arr.shape)
        blob += struct.pack("<B", 1) + arr.astype("<f4").tobytes()
    path = tmp_path / "f32.ckpt"
    path.write_bytes(blob)
    mc2, _, params, _ = load_checkpoint(path)
    for name, arr in values.items():
        assert params[name].data.dtype == np.float64
        assert np.array_equal(params[name].data, arr)
    ids = np.arange(mc.context_len) % mc.vocab_size
    assert MegabyteDecoder(mc2, params).forward(ids).data.dtype == np.float64


def test_checkpoint_surfaces_optimizer_constants(tmp_path):
    mc, tc = _toy_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, init_weights(mc, 0))
    header = path.read_bytes()[12:400].decode("utf-8", errors="ignore")
    for needle in ("adam_beta1=0.9", "adam_beta2=0.98", "adam_eps=1e-08", "weight_decay=0.2"):
        assert needle in header


# -- config text -----------------------------------------------------------------------------

def test_config_round_trip():
    mc, tc = _toy_pair()
    text = config_to_text(mc, tc, window_stride=4)
    values = parse_config_text(text)
    from megabyte.config import configs_from_values
    mc2, tc2, stride = configs_from_values(values)
    assert mc2 == mc and tc2 == tc and stride == 4


# `config_to_text(*_toy_pair(), 4)` as written before keys followed field
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
    text = config_to_text(mc, tc, window_stride=4)
    assert text.splitlines()[6] == "vocab_size=19"
    assert sorted(text.splitlines()) == sorted(VOCAB_FIRST_TEXT.splitlines())
    old = configs_from_values(parse_config_text(VOCAB_FIRST_TEXT))
    assert old == configs_from_values(parse_config_text(text)) == (mc, tc, 4)

    params = init_weights(mc, 0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, mc, tc, params, window_stride=4)
    blob = path.read_bytes()
    assert blob.count(text.encode()) == 1
    path.write_bytes(blob.replace(text.encode(), VOCAB_FIRST_TEXT.encode()))
    mc2, tc2, params2, stride = load_checkpoint(path)
    assert (mc2, tc2, stride) == (mc, tc, 4)
    for name, t in params.items():
        assert np.array_equal(params2[name].data, t.data)


def test_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("vocab_size=1\nvocab_size=2\n" + TOY_CONFIG)
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("what is this line")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text(TOY_CONFIG + "no_local = maybe\n")


def test_config_order_independent():
    lines = [l for l in TOY_CONFIG.splitlines() if l and not l.startswith("#")]
    a = parse_config_text("\n".join(lines))
    b = parse_config_text("\n".join(reversed(lines)))
    assert a == b


def test_config_file_not_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(TOY_CONFIG.encode("utf-8") + b"# \xff\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(path)
