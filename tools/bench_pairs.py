"""Run perfbench in alternating parent/change pairs and summarize each metric.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload sweep-rational --seeds 500-509 --out pairs.json
    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload sweep-default --seeds 1 --trace 1 --out traced.json

Both directories are coxline checkouts.  For each seed, `perfbench/run.py`
runs once in each checkout with that seed, the parent first on even pair
numbers and the change first on odd ones, so a drift of the host's speed
falls on both sides alike.  With --trace 0, per end-to-end metric the output
gives each side's median and quartiles over its runs, the number of pairs in
which the change read better, and the change's worsening of the median
relative to the parent's (negative means better) beside the metric's bound
in BENCHMARK.json.  Each run records its number of timed passes, and
peak_rss_mb gives each side's median of them: the worker's high-water mark
grows with the pass count, so an RSS move that only follows it shows.  With
--trace 1, it gives each side's per-layer figures.
Standard library only; the checkouts' own perfbench does the measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("sweep-default", "sweep-rational", "queries")


def parse_seeds(text):
    """'500-509' or '1,4,9' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def declared(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def commit_of(root):
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def run_once(root, workload, seed, seconds, trace):
    """perfbench's result object for one run, with its number of timed
    passes, or an error record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}", "stderr": proc.stderr[-2000:]}
    result["exit"] = proc.returncode
    with open(os.path.join(root, "perfbench", "out", f"last-{workload}-trace{trace}.json")) as fh:
        result["passes"] = len(json.load(fh)["passes"])
    if proc.stderr.strip():
        result["stderr"] = proc.stderr[-2000:]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, spec):
    """Per end-to-end metric: both sides' spread, pair wins and the worsening."""
    good = [(p, c) for p, c in pairs if "metrics" in p and "metrics" in c]
    out = {}
    for name, m in spec.items():
        higher = m["better"] == "higher"
        before = [p["metrics"][name]["value"] for p, _ in good]
        after = [c["metrics"][name]["value"] for _, c in good]
        if len(good) < 2:
            out[name] = {"pairs": len(good)}
            continue
        b, a = spread(before), spread(after)
        change = (a["median"] - b["median"]) / b["median"]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": b,
            "change": a,
            "pairs": len(good),
            "change_better_in": sum((y > x) if higher else (y < x) for x, y in zip(before, after)),
            "median_gap_over_parent_iqr": abs(a["median"] - b["median"]) / b["iqr"] if b["iqr"] else None,
            "worsening": -change if higher else change,
            "bound": m["bound"],
        }
        if name == "peak_rss_mb":
            out[name]["median_passes"] = {
                "parent": statistics.median(p["passes"] for p, _ in good),
                "change": statistics.median(c["passes"] for _, c in good),
            }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 500-509 or 1,2,3")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs = []
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
            status = "ok" if pair[side].get("correct") else "NOT CORRECT"
            print(f"{args.workload} seed {seed} {side}: {status}", file=sys.stderr, flush=True)
        pairs.append((pair["parent"], pair["change"]))

    report = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g} --trace {args.trace}, run from the root of each checkout",
        "commits": {side: commit_of(root) for side, root in sides.items()},
        "seeds": args.seeds,
        "first_in_pair": ["parent" if k % 2 == 0 else "change" for k in range(len(args.seeds))],
        "runs": [{"seed": s, "parent": p, "change": c} for s, (p, c) in zip(args.seeds, pairs)],
        "all_correct": all(r.get("correct") and r.get("failed") == 0 for pair in pairs for r in pair),
    }
    if args.trace == 0:
        report["end_to_end"] = summarize(pairs, declared(sides["parent"]))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
