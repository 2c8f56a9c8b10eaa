"""Run every workload in two interleaved sets of runs and compare the sets.

    python3 perfbench/twosets.py                 # 2 sets x 10 runs per workload
    python3 perfbench/twosets.py --trace         # plus one traced run per workload

Run from the root of a checkout. Set A uses seeds 1..10 and set B seeds
101..110; runs alternate between the sets, and which set goes first
alternates from one run index to the next. Each run is the command in
BENCHMARK.json, in its own process, for run_seconds.

For every workload and end-to-end metric the table gives each set's
median, first and third quartile (statistics.quantiles, n=4) and spread
(interquartile distance over median), and whether the sets agree: each
spread within the metric's bound, and neither median
worse than the other by more than the bound. The failed share of
operations must be equal in both sets and every run correct. With
--trace, one traced run per workload (seed 1) reports the traced
end-to-end figures as a share of set A's medians, which is the tracing
overhead. Raw results go to perfbench/out/twosets.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SET_BASE = {"A": 0, "B": 100}
RUNS = 10
RUN_TIMEOUT_S = 180


def run_once(spec: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    if trace:
        seen = [ln for ln in lines if ln.startswith("traced end_to_end: ")]
        result["traced_end_to_end"] = {k: float(v) for k, v in
                                       (kv.split("=") for kv in seen[-1].split(": ", 1)[1].split())}
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative when better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(spec: dict, runs: dict, workloads: list[str]) -> bool:
    sets = list(SET_BASE)
    ok = True
    for wl in workloads:
        print(f"\n{wl}")
        for s in sets:
            res = runs[wl][s]
            share = [r["failed"] / r["attempted"] for r in res]
            walls = [r["wall_s"] for r in res]
            print(f"  set {s}: {len(res)} runs, correct {sum(r['correct'] for r in res)}/{len(res)}, "
                  f"failed share {sorted(set(share))}, run wall {min(walls):.1f}-{max(walls):.1f} s")
            ok &= all(r["correct"] for r in res) and len(set(share)) == 1
        shares = {s: {r["failed"] / r["attempted"] for r in runs[wl][s]} for s in sets}
        ok &= shares["A"] == shares["B"]
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {s: summary([r["metrics"][name]["value"] for r in runs[wl][s]]) for s in sets}
            verdict = []
            for s in sets:
                st = stats[s]
                if st["spread"] > bound:
                    verdict.append(f"set {s} spread over bound")
            d = max(worse_by(stats["A"]["median"], stats["B"]["median"], m["better"]),
                    worse_by(stats["B"]["median"], stats["A"]["median"], m["better"]))
            if d > bound:
                verdict.append(f"medians differ by {d:.1%}")
            ok &= not verdict
            for s in sets:
                st = stats[s]
                print(f"  {name:<12} {s:>3} {st['median']:>12.6g} {st['q1']:>12.6g} {st['q3']:>12.6g} "
                      f"{st['spread']:>7.2%} {bound:>6.2f}  "
                      f"{('; '.join(verdict) or 'agree') if s == sets[-1] else ''}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    sets = list(SET_BASE)
    runs = {wl: {s: [] for s in sets} for wl in workloads}
    traced = {}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    def save():
        with open(os.path.join(HERE, "out", "twosets.json"), "w") as fh:
            json.dump({"runs": runs, "traced": traced}, fh, indent=1)

    for i in range(RUNS):
        order = sets if i % 2 == 0 else sets[::-1]
        for wl in workloads:
            for s in order:
                r = run_once(spec, wl, SET_BASE[s] + 1 + i, trace=False)
                runs[wl][s].append(r)
                print(f"run {i} {wl} set {s} seed {r['seed']}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)
                save()
    if args.trace:
        for wl in workloads:
            traced[wl] = run_once(spec, wl, 1, trace=True)
            save()
    ok = compare(spec, runs, workloads)
    for wl, r in traced.items():
        base = {m["name"]: statistics.median(x["metrics"][m["name"]]["value"] for x in runs[wl]["A"])
                for m in spec["end_to_end"]}
        print(f"\n{wl} traced run (seed 1), end-to-end as a share of set A's median: "
              + " ".join(f"{k}={v / base[k]:.3f}" for k, v in r["traced_end_to_end"].items()))
    print("\nsets agree within bounds" if ok else "\nsets DO NOT agree within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
