"""Command-line entry point: train, eval, generate, cost, and scan.

Exit codes: 0 success, 2 usage or config error, 3 numerical failure.
Every subcommand is deterministic; train and generate take --seed.

CSV outputs and their header lines; lines end in a bare newline, and every
number is written as Python prints it:
  train --loss-csv   step,lr,loss_bits_per_byte,grad_norm
  eval --csv         metric,value: bpb, cost_multiplier, then pos{i}_loss and
                     pos{i}_count for each within-patch index i
  generate --trace   byte,log_prob,serial_steps
  cost --csv         kind,m_g,m_l,P,D,T,flops_per_token,attn_ops,serial_steps
                     (after one "# note:" line)
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config
from .costmodel import ArchSpec, sweep_to_csv
from .data import (load_corpus, make_windows, parse_ppm, patch_scan, patch_unscan,
                   raster_scan, raster_unscan, write_ppm)
from .inference import evaluate_bpb, generate
from .model import MegabyteDecoder
from .training import init_weights, train


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="megabyte", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint + loss CSV")
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--data", required=True, help="corpus file or directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--loss-csv", default=None, help="loss curve path (default: OUT.loss.csv)")
    p.add_argument("--log-every", type=int, default=0, help="print progress every N steps")

    p = sub.add_parser("eval", help="score a corpus in bits per byte")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", default="basic",
                   choices=["basic", "sliding", "strided", "sliding+strided"])
    p.add_argument("--csv", default=None, help="also write the report as CSV")

    p = sub.add_parser("generate", help="sample bytes from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prompt-file", default=None)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="raw generated bytes")
    p.add_argument("--trace", default=None, help="trace CSV (byte, log-prob, serial steps)")

    p = sub.add_parser("cost", help="analytical FLOPS/attention/serial-step sweep")
    p.add_argument("--spec", action="append", required=True, metavar="KIND:k=v,...",
                   help="KIND is transformer, linear_transformer or megabyte; keys m, mg, "
                        "ml (parameter counts), p (patch size), d (embedding dim), l or lg "
                        "(global layers), ll (local layers), each set at most once; e.g. "
                        "megabyte:mg=452e6,ml=151e6,p=8 or transformer:m=660e6,l=24")
    p.add_argument("--seq-len", action="append", type=int, default=None)
    p.add_argument("--seq-len-range", default=None, metavar="MIN:MAX:MULT",
                   help="geometric range, e.g. 8192:1048576:4")
    p.add_argument("--masked", action="store_true", help="halve counts for the causal mask")
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("scan", help="linearize a PPM image to a byte sequence (or invert)")
    p.add_argument("--ppm", required=True, help="input: PPM image, or scanned bytes with --inverse")
    p.add_argument("--mode", required=True, choices=["raster", "patch"])
    p.add_argument("--patch-size", type=int, default=None, help="patch size in bytes (3*p*p)")
    p.add_argument("--out", required=True)
    p.add_argument("--inverse", action="store_true", help="rebuild a PPM from scanned bytes")
    p.add_argument("--width", type=int, default=None, help="image width (inverse mode)")
    p.add_argument("--height", type=int, default=None, help="image height (inverse mode)")
    return ap


def _write_csv(path, header: str, rows) -> None:
    """Write `header` and one comma-joined line per row. A cell is a name or
    a Python int or float (numpy values go through .tolist() first), so
    str() writes every number as a plain decimal."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_train(args) -> int:
    if args.log_every < 0:
        raise ValueError(f"--log-every must be >= 0, got {args.log_every}")
    model_cfg, train_cfg = load_config(args.config)
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    docs = load_corpus(args.data)
    windows = make_windows(docs, model_cfg.context_len,
                           train_cfg.window_stride or model_cfg.context_len)

    params = init_weights(model_cfg, train_cfg.seed)
    model = MegabyteDecoder(model_cfg, params)
    curve = train(model, windows, train_cfg, log_every=args.log_every)

    save_checkpoint(args.out, model_cfg, train_cfg, params)
    loss_path = args.loss_csv or (args.out + ".loss.csv")
    _write_csv(loss_path, "step,lr,loss_bits_per_byte,grad_norm",
               ((r.step, r.lr, r.loss_bits, r.grad_norm) for r in curve))
    final = curve[-1].loss_bits if curve else float("nan")
    print(f"wrote {args.out} and {loss_path} (final loss {final:.4f} bpb)")
    return 0


def _cmd_eval(args) -> int:
    model_cfg, _, params = load_checkpoint(args.ckpt)
    model = MegabyteDecoder(model_cfg, params)
    docs = load_corpus(args.data)
    report = evaluate_bpb(model, docs, mode=args.mode)
    print(report.summary())
    if args.csv:
        rows = [("bpb", report.bpb), ("cost_multiplier", report.cost_multiplier)]
        for i, (loss, n) in enumerate(zip(report.per_position_loss.tolist(),
                                          report.per_position_count.tolist())):
            rows += [(f"pos{i}_loss", loss), (f"pos{i}_count", n)]
        _write_csv(args.csv, "metric,value", rows)
    return 0


def _cmd_generate(args) -> int:
    model_cfg, _, params = load_checkpoint(args.ckpt)
    model = MegabyteDecoder(model_cfg, params)
    prompt = Path(args.prompt_file).read_bytes() if args.prompt_file else b""
    trace = generate(model, prompt, args.length,
                     temperature=args.temperature, seed=args.seed)
    Path(args.out).write_bytes(trace.data)
    if args.trace:
        _write_csv(args.trace, "byte,log_prob,serial_steps",
                   zip(trace.data, trace.logprobs.tolist(), trace.serial_steps.tolist()))
    print(f"wrote {len(trace.data)} bytes to {args.out} "
          f"({trace.total_serial_steps} serial steps)")
    return 0


def _parse_size(raw: str) -> int:
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"malformed size {raw!r}") from None
    if not math.isfinite(val) or val <= 0 or val != int(val):
        raise ValueError(f"size must be a positive integer, got {raw!r}")
    return int(val)


# Each --spec key: the ArchSpec field it sets and how its value is read.
_SPEC_KEYS = {"m": ("m", _parse_size), "mg": ("m_global", _parse_size),
              "ml": ("m_local", _parse_size), "p": ("patch_size", int),
              "d": ("embed_dim", int), "l": ("l_global", int), "lg": ("l_global", int),
              "ll": ("l_local", int)}


def _parse_spec(raw: str) -> ArchSpec:
    kind, _, rest = raw.partition(":")
    fields = {}
    try:
        for item in rest.split(",") if rest else ():
            key, eq, val = item.partition("=")
            key = key.strip().lower()
            if not eq:
                raise ValueError(f"malformed spec field {item!r}")
            if key not in _SPEC_KEYS:
                raise ValueError(f"unknown key {key!r}; keys are {', '.join(_SPEC_KEYS)}")
            name, parse = _SPEC_KEYS[key]
            if name in fields:
                raise ValueError(f"key {key!r} sets {name}, which an earlier key set")
            fields[name] = parse(val.strip())
        return ArchSpec(kind=kind.strip(), **fields)
    except ValueError as exc:
        raise ValueError(f"bad spec {raw!r}: {exc}") from None


def _cmd_cost(args) -> int:
    specs = [_parse_spec(s) for s in args.spec]
    seq_lens = list(args.seq_len or [])
    if args.seq_len_range:
        try:
            lo, hi, mult = map(int, args.seq_len_range.split(":"))
        except ValueError:
            raise ValueError("--seq-len-range must be three integers MIN:MAX:MULT") from None
        if lo < 1 or hi < lo or mult < 2:
            raise ValueError("--seq-len-range needs 1 <= MIN <= MAX and MULT >= 2")
        t = lo
        while t <= hi:
            seq_lens.append(t)
            t *= mult
    if not seq_lens:
        raise ValueError("give --seq-len and/or --seq-len-range")
    csv_text = sweep_to_csv(specs, seq_lens, masked=args.masked)
    if args.csv:
        Path(args.csv).write_text(csv_text)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_scan(args) -> int:
    if args.mode == "patch" and args.patch_size is None:
        raise ValueError("--mode patch requires --patch-size")
    src = Path(args.ppm).read_bytes()
    if args.inverse:
        if args.width is None or args.height is None:
            raise ValueError("--inverse requires --width and --height")
        if args.mode == "raster":
            img = raster_unscan(src, args.height, args.width)
        else:
            img = patch_unscan(src, args.height, args.width, args.patch_size)
        out = write_ppm(img)
    else:
        img = parse_ppm(src)
        out = raster_scan(img) if args.mode == "raster" else patch_scan(img, args.patch_size)
    Path(args.out).write_bytes(out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "generate": _cmd_generate,
    "cost": _cmd_cost,
    "scan": _cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        # Config, checkpoint, and shape problems are usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # TrainingDiverged included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
