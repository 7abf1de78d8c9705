#!/usr/bin/env python3
"""Interleaved A/B runs of fledabench: this checkout against a git ref.

    python3 ci/ab.py --against HEAD~1 --workload paper_routenet --pairs 8 --seed 1
    python3 ci/ab.py --against main --workload paper_flnet --pairs 4 --trace 1

The ref is extracted (`git archive`) into .ab/<sha>/ under this
checkout and kept there, so its benchmark build is reused by later
campaigns. Each pair runs the ref's own `fledabench/run.py` and this
checkout's, one after the other, alternating which goes first, so slow
drift on a noisy box lands on both sides alike. Neither tree's
`fledabench/` or `BENCHMARK.json` is touched: each run is `run.py`
exactly as the benchmark runs it.

Per metric it prints the median of each side, the IQR of each side,
wins k/N (pairs in which the change was better, in the direction
BENCHMARK.json gives the metric) and a verdict:

  better / worse  the gap between the medians exceeds the ref's IQR and
                  the change won (lost) in at least ceil(0.8 N) pairs
  no change       anything else

Quality metrics (AUC, %) must not move at all: every value that differs
between the sides in any pair is listed as moved. The whole campaign,
every run's metrics included, is written as JSON (--out, default
.ab/ab-<workload>-seed<S>-trace<T>.json).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUALITY_UNITS = ("AUC", "%")


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args):
    done = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True)
    return done.stdout.strip()


def extract(ref):
    """A clean tree of `ref` under .ab/, extracted once."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    tree = ROOT / ".ab" / sha[:12]
    if not (tree / "fledabench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return sha, tree


def directions():
    """metric name -> True when higher is better, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher"
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_once(tree, workload, seed, trace):
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    done = subprocess.run(
        [sys.executable, "fledabench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: run.py printed nothing "
                           f"(exit {done.returncode})")
    line = json.loads(lines[-1])
    if not line.get("correct"):
        raise RuntimeError(f"{tree}: run.py reported failures: {line}")
    return {name: m["value"] for name, m in line["metrics"].items()}, \
        {name: m["unit"] for name, m in line["metrics"].items()}


def quantile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(name, unit, ref_values, new_values, higher_better):
    n = len(ref_values)
    ref_med, new_med = quantile(ref_values, 0.5), quantile(new_values, 0.5)
    ref_iqr = quantile(ref_values, 0.75) - quantile(ref_values, 0.25)
    new_iqr = quantile(new_values, 0.75) - quantile(new_values, 0.25)
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for r, c in zip(ref_values, new_values) if sign * (c - r) > 0)
    losses = sum(1 for r, c in zip(ref_values, new_values)
                 if sign * (c - r) < 0)
    need = math.ceil(0.8 * n)
    gap = sign * (new_med - ref_med)
    verdict = "no change"
    if abs(new_med - ref_med) > ref_iqr:
        if gap > 0 and wins >= need:
            verdict = "better"
        elif gap < 0 and losses >= need:
            verdict = "worse"
    return {"metric": name, "unit": unit, "ref_median": ref_med,
            "change_median": new_med, "ref_iqr": ref_iqr,
            "change_iqr": new_iqr,
            "delta_pct": 100.0 * (new_med - ref_med) / ref_med
            if ref_med else None,
            "wins": wins, "pairs": n, "verdict": verdict}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="GIT_REF")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha, ref_tree = extract(args.against)
    sides = {"ref": ref_tree, "change": ROOT}
    runs = {"ref": [], "change": []}
    units = {}
    for i in range(args.pairs):
        order = ("ref", "change") if i % 2 == 0 else ("change", "ref")
        for side in order:
            values, u = run_once(sides[side], args.workload, args.seed,
                                 args.trace)
            runs[side].append(values)
            units.update(u)
        log(f"ab: pair {i + 1}/{args.pairs} done ({order[0]} first)")

    higher = directions()
    rows, moved = [], []
    for name in sorted(units):
        ref_values = [r[name] for r in runs["ref"]]
        new_values = [r[name] for r in runs["change"]]
        if units[name] in QUALITY_UNITS:
            for i, (r, c) in enumerate(zip(ref_values, new_values)):
                if r != c:
                    moved.append({"metric": name, "pair": i + 1, "ref": r,
                                  "change": c})
            continue
        rows.append(summarize(name, units[name], ref_values, new_values,
                              higher.get(name, False)))

    print(f"ab: {args.workload} seed {args.seed} trace {args.trace}, "
          f"{args.pairs} pairs, change vs {args.against} ({sha[:12]})")
    print(f"{'metric':<44} {'ref med':>11} {'chg med':>11} {'ref IQR':>9} "
          f"{'chg IQR':>9} {'delta':>8} {'wins':>6}  verdict")
    for r in rows:
        delta = f"{r['delta_pct']:+.1f}%" if r["delta_pct"] is not None else "n/a"
        print(f"{r['metric']:<44} {r['ref_median']:>11.5g} "
              f"{r['change_median']:>11.5g} {r['ref_iqr']:>9.3g} "
              f"{r['change_iqr']:>9.3g} {delta:>8} "
              f"{r['wins']:>2}/{r['pairs']:<3}  {r['verdict']}")
    quality = sorted(n for n in units if units[n] in QUALITY_UNITS)
    for name in quality:
        pairs = [m for m in moved if m["metric"] == name]
        ref_seen = sorted({r[name] for r in runs["ref"]})
        new_seen = sorted({r[name] for r in runs["change"]})
        if not pairs:
            print(f"{name}: identical in every pair ({ref_seen[0]!r})")
        elif len(ref_seen) == 1 and len(new_seen) == 1:
            print(f"{name}: MOVED in {len(pairs)}/{args.pairs} pairs: "
                  f"{ref_seen[0]!r} -> {new_seen[0]!r}")
        else:
            print(f"{name}: MOVED in {len(pairs)}/{args.pairs} pairs:")
            for m in pairs:
                print(f"  pair {m['pair']}: {m['ref']!r} -> {m['change']!r}")

    out = args.out or (ROOT / ".ab" / f"ab-{args.workload}-seed{args.seed}-"
                       f"trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "against": args.against, "against_sha": sha,
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pairs": args.pairs, "units": units, "runs": runs,
        "summary": rows, "moved": moved}, indent=1))
    print(f"ab: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
