"""Command-line entry point: train, eval, generate, cost, and scan.

Exit codes: 0 success, 2 usage or config error, 3 numerical failure.
All subcommands are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="megabyte", description=__doc__)
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
                   help="e.g. megabyte:mg=452e6,ml=151e6,p=8 or transformer:m=660e6,l=24")
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


def _cmd_train(args) -> int:
    from .checkpoint import save_checkpoint
    from .config import load_config
    from .data import load_corpus, make_windows
    from .model import MegabyteDecoder
    from .training import curve_to_csv, init_weights, train

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
    Path(loss_path).write_text(curve_to_csv(curve))
    final = curve[-1].loss_bits if curve else float("nan")
    print(f"wrote {args.out} and {loss_path} (final loss {final:.4f} bpb)")
    return 0


def _cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint
    from .data import load_corpus
    from .inference import evaluate_bpb
    from .model import MegabyteDecoder

    model_cfg, _, params = load_checkpoint(args.ckpt)
    model = MegabyteDecoder(model_cfg, params)
    docs = load_corpus(args.data)
    report = evaluate_bpb(model, docs, mode=args.mode)
    print(report.summary())
    if args.csv:
        lines = ["metric,value", f"bpb,{report.bpb!r}",
                 f"cost_multiplier,{report.cost_multiplier}"]
        for i, (loss, n) in enumerate(zip(report.per_position_loss,
                                          report.per_position_count)):
            lines.append(f"pos{i}_loss,{loss!r}")
            lines.append(f"pos{i}_count,{int(n)}")
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_generate(args) -> int:
    from .checkpoint import load_checkpoint
    from .inference import generate
    from .model import MegabyteDecoder

    model_cfg, _, params = load_checkpoint(args.ckpt)
    model = MegabyteDecoder(model_cfg, params)
    prompt = b""
    if args.prompt_file:
        prompt = Path(args.prompt_file).read_bytes()
    trace = generate(model, prompt, args.length,
                     temperature=args.temperature, seed=args.seed)
    Path(args.out).write_bytes(trace.data)
    if args.trace:
        lines = ["byte,log_prob,serial_steps"]
        for b, lp, steps in zip(trace.data, trace.logprobs, trace.serial_steps):
            lines.append(f"{b},{lp!r},{steps}")
        Path(args.trace).write_text("\n".join(lines) + "\n")
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


def _parse_spec(raw: str):
    from .costmodel import ArchSpec

    kind, _, rest = raw.partition(":")
    fields = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed spec field {item!r}")
            fields[key.strip().lower()] = val.strip()
    try:
        return ArchSpec(
            kind=kind.strip(),
            m=_parse_size(fields["m"]) if "m" in fields else 0,
            m_global=_parse_size(fields["mg"]) if "mg" in fields else 0,
            m_local=_parse_size(fields["ml"]) if "ml" in fields else 0,
            patch_size=int(fields.get("p", 1)),
            embed_dim=int(fields.get("d", 0)),
            l_global=int(fields.get("lg", fields.get("l", 0))),
            l_local=int(fields.get("ll", 0)),
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad spec {raw!r}: {exc}") from None


def _cmd_cost(args) -> int:
    from .costmodel import sweep_to_csv

    specs = [_parse_spec(s) for s in args.spec]
    seq_lens = list(args.seq_len or [])
    if args.seq_len_range:
        parts = args.seq_len_range.split(":")
        if len(parts) != 3:
            raise ValueError("--seq-len-range must be MIN:MAX:MULT")
        try:
            lo, hi, mult = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError("--seq-len-range must be integers") from None
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
    from .data import parse_ppm, patch_scan, patch_unscan, raster_scan, raster_unscan, write_ppm

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
        Path(args.out).write_bytes(write_ppm(img))
    else:
        img = parse_ppm(src)
        if args.mode == "raster":
            out = raster_scan(img)
        else:
            out = patch_scan(img, args.patch_size)
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
