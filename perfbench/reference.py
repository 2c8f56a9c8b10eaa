"""Reference kernels that gauge how fast the machine runs at the moment.

The machine the figures come from is a VM on a shared host, and its speed
moves between long spells: the same code has run at half speed for hours
and then at full speed, with no time stolen from the VM that the guest
could see, so neither wall time nor the process's CPU time takes the
change out. A run therefore also times a fixed kernel, written here and
independent of the program, that does the same kind of work as its
workload, and reports its times rescaled to the kernel's nominal speed.
A change in the program moves the workload's time and not the kernel's,
so it shows in full; a change in the machine's speed moves both.

Two kernels, one per kind of work the workloads do:

  small  numpy ops on one-row arrays driven from Python, as in per-byte
         decoding: bound by interpreter and per-call overhead
  gemm   float64 GEMMs of a few thousand rows and softmax/ReLU over their
         outputs, as in training and long-context scoring
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# CPU milliseconds of one kernel call at nominal speed: the median on a
# 2-core x86-64 VM (OpenBLAS, one BLAS thread, Python 3.11) while it ran
# at full speed. Only ratios to these are reported, so they fix the scale
# of the rescaled figures and nothing else.
NOMINAL_MS = {"small": 22.3, "gemm": 23.0}


class _Node:
    """A small object per op, as an autodiff engine makes."""

    __slots__ = ("data", "parents")

    def __init__(self, data, parents):
        self.data = data
        self.parents = parents


def small_kernel() -> float:
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((64, 64)) * 0.125 for _ in range(4)]
    x = _Node(rng.standard_normal((1, 64)), ())
    for _ in range(480):
        for w in weights:
            h = x.data @ w
            h = h - h.mean(axis=-1, keepdims=True)
            h = h / np.sqrt((h * h).mean(axis=-1, keepdims=True) + 1e-5)
            x = _Node(np.maximum(h, 0.0) + x.data[:, ::-1], (x,))
        z = x.data - x.data.max()
        x = _Node(z - np.log(np.exp(z).sum()), (x,))
    return float(x.data.sum())


class GemmKernel:
    """Its arrays are made once and written in place, so a call's time
    does not depend on how the allocator stands after whatever the run
    did before it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a0 = rng.standard_normal((2048, 64))
        self.b = rng.standard_normal((64, 256)) * 0.125
        self.a = np.empty_like(self.a0)
        self.c = np.empty((2048, 256))
        self.m = np.empty((2048, 1))
        self.s = np.empty((2048, 64))
        self.g = np.empty((64, 64))

    def __call__(self) -> float:
        a, b, c, m, s, g = self.a, self.b, self.c, self.m, self.s, self.g
        np.copyto(a, self.a0)
        total = 0.0
        for _ in range(6):
            np.matmul(a, b, out=c)
            np.maximum(c, 0.0, out=c)
            np.max(c, axis=-1, keepdims=True, out=m)
            np.subtract(c, m, out=c)
            np.exp(c, out=c)
            np.sum(c, axis=-1, keepdims=True, out=m)
            np.divide(c, m, out=c)
            np.matmul(c, b.T, out=s)
            np.matmul(a.T, s, out=g)
            total += float(g.sum())
            s *= 0.01
            a += s
        return total


KERNELS = {"small": lambda: small_kernel, "gemm": GemmKernel}


class Gauge:
    """Times one kernel now and then through a run and gives the ratio of
    its median time to nominal (above 1 when the machine runs slow)."""

    def __init__(self, kind: str, clock=time.process_time):
        self.kind = kind
        self.kernel = KERNELS[kind]()
        self.clock = clock
        self.samples: list[float] = []

    def sample(self) -> None:
        start = self.clock()
        self.kernel()
        self.samples.append((self.clock() - start) * 1e3)

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def slowdown(self) -> float:
        return self.median_ms() / NOMINAL_MS[self.kind]
