"""Analytical compute-cost models for decoder architectures.

Per-token FLOPS from non-embedding parameter counts (2m for a dense
transformer, 2*(m_g/P + m_l) for the patch-decomposed decoder, an extra 9D
per token for linear attention), attention score counts, the optimal patch
size, and modeled serial-step counts during generation. Exact rational
arithmetic throughout so comparisons carry no float error.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

KINDS = ("transformer", "linear_transformer", "megabyte")

LINEAR_ATTENTION_NOTE = (
    "linear_transformer attention term 9*D/token may undercount decode-time "
    "recurrence cost on real hardware")


@dataclass
class ArchSpec:
    """One architecture point: a kind plus the sizes its formulas need.

    m is the non-embedding parameter count (m_g/m_l for the two halves of
    a megabyte spec); embed_dim enters only the linear-attention term;
    layer counts feed the serial-step model.
    """
    kind: str
    m: int = 0
    m_global: int = 0
    m_local: int = 0
    patch_size: int = 1
    embed_dim: int = 0
    l_global: int = 0
    l_local: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        for name in ("l_global", "l_local", "embed_dim"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.kind == "megabyte":
            if self.m_global <= 0:
                raise ValueError("megabyte spec needs m_global > 0")
            if self.m_local < 0 or self.patch_size < 1:
                raise ValueError("megabyte spec needs m_local >= 0 and patch_size >= 1")
        elif self.m <= 0:
            raise ValueError(f"{self.kind} spec needs m > 0")
        if self.kind == "linear_transformer" and self.embed_dim <= 0:
            raise ValueError("linear_transformer spec needs embed_dim > 0")


def flops_per_token(spec: ArchSpec) -> Fraction:
    """Forward-pass FLOPS per token from non-embedding parameters."""
    if spec.kind == "transformer":
        return Fraction(2 * spec.m)
    if spec.kind == "linear_transformer":
        return Fraction(2 * spec.m + 9 * spec.embed_dim)
    return 2 * (Fraction(spec.m_global, spec.patch_size) + spec.m_local)


def attention_ops(t: int, p: int | None = None, masked: bool = False) -> Fraction:
    """Attention score evaluations for a length-t sequence: query-key pairs
    over sequence positions. Heads split each score's width and do not
    multiply the pairs.

    p=None is the dense transformer (t^2); otherwise the patch decoder's
    (t/p)^2 + t*p. Counts are the unmasked upper bound; masked=True halves
    them (the causal mask skips about half the pairs).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if p is None:
        total = Fraction(t) * t
    else:
        if p < 1:
            raise ValueError("p must be >= 1")
        total = Fraction(t, p) ** 2 + Fraction(t * p)
    return total / 2 if masked else total


@dataclass
class PatchChoice:
    exact_minimizer: float     # continuous argmin of (T/P)^2 + T*P
    rule_of_thumb: float       # P = T^(1/3)
    rule_cost_bound: float     # T^(4/3)
    best_divisor: int | None = None


def optimal_patch(t: int, round_to_divisor: bool = False) -> PatchChoice:
    """Patch sizes that minimize the attention cost for a given length.

    The continuous minimizer of (T/P)^2 + T*P is (2T)^(1/3); the T^(1/3)
    rule of thumb lands within a constant factor and gives the T^(4/3)
    cost bound. Optionally also picks the divisor of T nearest the exact
    minimizer (ties resolved by cheaper formula cost).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    exact = (2 * t) ** (1.0 / 3.0)
    choice = PatchChoice(exact_minimizer=exact,
                         rule_of_thumb=t ** (1.0 / 3.0),
                         rule_cost_bound=t ** (4.0 / 3.0))
    if round_to_divisor:
        divisors = [d for d in range(1, t + 1) if t % d == 0]
        choice.best_divisor = min(
            divisors, key=lambda d: (abs(d - exact), attention_ops(t, d)))
    return choice


def serial_steps(l_global: int, l_local: int, p: int, t: int,
                 transformer_layers: int | None = None) -> tuple[int, int]:
    """Serial layer applications to generate t bytes: the patch decoder
    advances its global stack once per patch and its local stack once per
    byte, against a dense transformer that runs every layer every byte
    (depth l_global + l_local unless overridden to model a concrete
    baseline)."""
    if t % p != 0:
        raise ValueError("t must be a multiple of p")
    mega = (t // p) * (l_global + p * l_local)
    depth = transformer_layers if transformer_layers is not None else l_global + l_local
    return mega, t * depth


CSV_HEADER = ["kind", "m_g", "m_l", "P", "D", "T",
              "flops_per_token", "attn_ops", "serial_steps"]


def sweep_to_csv(specs: list[ArchSpec], seq_lens: list[int], masked: bool = False) -> str:
    """One row per (spec, T), formatted for replotting the cost comparison."""
    if not specs:
        raise ValueError("empty spec grid")
    if not seq_lens:
        raise ValueError("empty sequence-length range")
    buf = io.StringIO()
    buf.write(f"# note: {LINEAR_ATTENTION_NOTE}\n")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for spec in specs:
        for t in seq_lens:
            if spec.kind == "megabyte":
                m_g, m_l, p = spec.m_global, spec.m_local, spec.patch_size
                attn = attention_ops(t, p, masked)
                steps = serial_steps(spec.l_global, spec.l_local, p, t)[0] \
                    if t % p == 0 else ""
            else:
                m_g, m_l, p = spec.m, 0, ""
                attn = attention_ops(t, None, masked)
                depth = spec.l_global + spec.l_local
                steps = t * depth
            writer.writerow([spec.kind, m_g, m_l, p, spec.embed_dim or "", t,
                             float(flops_per_token(spec)), float(attn), steps])
    return buf.getvalue()
