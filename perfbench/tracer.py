"""Per-layer timing from outside the program.

A Tracer replaces public callables (module functions, class methods) with
wrappers that time each call in CPU seconds of the process, credit the
time to the wrapped caller that was running, and count calls and work
units. Nothing in the program is edited and the untraced run never
constructs a Tracer, so it runs the program's own callables.

Spans are kept in memory as aggregates keyed by (section, parent, name):
the section is a label the workload sets around a group of operations
("op", "full", "first", "prefill"), and the parent is the innermost
wrapped call that was running when the span started.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.section = "setup"
        # (section, parent, name) -> [calls, inclusive s, self s, units]
        self.spans: dict[tuple[str, str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.gc_pause_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []       # [name, child seconds]
        self._undo: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- installing ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, units=None, required: bool = True) -> None:
        """Time every call of owner.attr under `name`; units(args) -> int
        adds a work count (rows, bytes) per call. A missing attribute
        raises AttributeError, since a metric that reads it would read 0;
        with required=False it is only reported on stderr and skipped."""
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            if required:
                raise AttributeError(f"cannot trace {name}: {owner.__name__}.{attr} does not exist")
            print(f"perfbench: {name} does not exist and is not traced", file=sys.stderr)
            return
        stack, spans, clock = self._stack, self.spans, time.process_time

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                rec = spans[(self.section, parent[0] if parent else "", name)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if units is not None:
                    rec[3] += units(args, kwargs)
                if parent is not None:
                    parent[1] += dur

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without timing them."""
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            raise AttributeError(f"cannot count {name}: {owner.__name__}.{attr} does not exist")
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.section, name)] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.process_time()
        else:
            self.gc_pause_s[self.section] += time.process_time() - self._gc_start

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> bool:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    # -- reading ---------------------------------------------------------

    def _select(self, section: str, name: str, parents=None):
        for (sec, parent, nm), rec in self.spans.items():
            if sec == section and nm == name and (parents is None or parent in parents):
                yield rec

    def calls(self, section: str, name: str) -> int:
        return sum(rec[0] for rec in self._select(section, name))

    def inclusive_s(self, section: str, name: str, parents=None) -> float:
        return sum(rec[1] for rec in self._select(section, name, parents))

    def self_s(self, section: str, name: str) -> float:
        return sum(rec[2] for rec in self._select(section, name))

    def units(self, section: str, name: str) -> int:
        return sum(rec[3] for rec in self._select(section, name))

    def calls_with_prefix(self, section: str, prefix: str) -> int:
        return sum(rec[0] for (sec, _, nm), rec in self.spans.items()
                   if sec == section and nm.startswith(prefix))

    def dump(self, path: str) -> None:
        rows = [{"section": sec, "parent": parent, "name": name, "calls": rec[0],
                 "inclusive_s": rec[1], "self_s": rec[2], "units": rec[3]}
                for (sec, parent, name), rec in sorted(self.spans.items())]
        with open(path, "w") as fh:
            json.dump({"spans": rows,
                       "counts": [{"section": s, "name": n, "count": c}
                                  for (s, n), c in sorted(self.counts.items())],
                       "gc_pause_s": dict(self.gc_pause_s)}, fh, indent=1)
