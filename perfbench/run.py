"""Benchmark of coxline: the verify sweep and single-class queries.

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 35 --trace 0

Run from the root of a coxline checkout.  Workloads:

  sweep-default   `coxline verify` on the built-in configuration
  sweep-rational  `coxline --config ... verify` on rational configurations
  queries         one closed-loop client sending classify, h0, basis and
                  relations requests through `coxline --json ...`

Every timed pass (a sweep, or one round of the query stream) runs in a fresh
process, worker.py, that imports coxline from ./src and calls
coxline.cli.main.  Passes repeat while the next one is expected to end
within --seconds; metrics are medians over passes, and latency percentiles
are taken over every item of the run.  Before timing, negative controls and the checker's self-test must
come out as expected; after timing, every answer is checked against the
independent computations of check.py.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics, the end-to-end
metrics with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from math import comb

import check
import selftest
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-default", "sweep-rational", "queries")
MIN_PASSES = 5
MIN_TRACED_PAIRS = 3
MIN_LATENCIES = 1000  # ten samples beyond the 99th percentile
PASS_TIMEOUT_S = 150


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so a worker's reading can
    # be set against the moment it was spawned
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(root, calls, per_class, trace, spans_path=None):
    spec = {"calls": [c.argv for c in calls], "trace": trace, "spans": spans_path, "per_class": per_class}
    spawned = monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        cwd=root,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(json.dumps(spec).encode(), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    result["setup_s"] = result["first"] - spawned
    result["wall_s"] = sum(result["latencies"])
    return result


# A sweep check, the module attribute it reads, the fault planted there, and
# the failure the sweep must report.  If a change drops one of these checks
# from run_sweep, the control fails the benchmark instead of reading faster.
PLANTED = (
    ("standard monomial count", "cli", "enumerate_standard_monomials", lambda f: lambda D: list(f(D))[1:]),
    ("closed-form count", "coxmono", "count_at_level", lambda f: lambda D, lam: f(D, lam) + 1),
    ("h0 via stripping", "picard", "h0", lambda f: lambda D: f(D) + 1),
    ("oracle interpolation rank", "oracle", "h0_rank", lambda f: lambda cfg, D: f(cfg, D) + 1),
)


def negative_controls(cli, oracle):
    """Problems if the program fails to catch a planted fault."""
    problems = []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--json", "--n", "4", "verify", "--dmax", "1", "--inject-bad-relation"])
    checks = [f["check"] for r in json.loads(buf.getvalue())["reports"] for f in r["failures"]]
    if code != 1 or not any(c.startswith("relation(") for c in checks):
        problems.append(f"verify --inject-bad-relation: exit {code}, failures {checks}")
    bent = oracle.PointConfig.explicit([(0, 1, 1), (1, 0, 1), (2, 0, 1)], q=(0, 1, 0))
    report = cli.run_sweep(bent, 3)
    if not any(f["check"] == "basis independence" for f in report.failures):
        problems.append(f"non-collinear configuration passed basis independence: {report.failures[:3]}")
    for check_name, module_name, attr, plant in PLANTED:
        module = sys.modules[f"coxline.{module_name}"]
        original = getattr(module, attr)
        setattr(module, attr, plant(original))
        try:
            report = cli.run_sweep(oracle.PointConfig.default(3), 2)
        finally:
            setattr(module, attr, original)
        if not any(f["check"] == check_name for f in report.failures):
            problems.append(f"fault planted in {module_name}.{attr}, but the sweep reported no {check_name!r} failure")
    return problems


def check_sampled(cli, samples):
    """coxline's own basis and h0 of sampled swept classes, untimed.  They
    have d <= 8 and sum a_i <= d, so the sympy rank is always taken."""
    problems = []
    for cfg_args, t, d, a in samples:
        argv = ["--json", *cfg_args, "basis", " ".join(map(str, (d, *a)))]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        found = check_one(workloads.Call("basis", argv, len(a), d, a, t), code, buf.getvalue())
        problems += [f"{' '.join(argv)}: {msg}" for msg in found]
    return problems


def check_calls(passes, calls):
    """Per call index, the problems found in any pass; each distinct answer is checked once."""
    verdicts = {}
    bad = {}
    for p in passes:
        for k, (c, code, text) in enumerate(zip(calls, p["codes"], p["outputs"])):
            key = (k, code, text)
            if key not in verdicts:
                verdicts[key] = check_one(c, code, text)
            if verdicts[key]:
                bad.setdefault(k, verdicts[key])
    return bad


def check_one(c, code, text):
    if code != 0:
        return [f"{' '.join(c.argv)}: exit code {code}"]
    try:
        payload = json.loads(text)
    except ValueError:
        return [f"{' '.join(c.argv)}: output is not JSON"]
    if c.kind == "verify":
        return check.check_verify(payload, c.pairs)
    if c.kind == "relations":
        return check.check_relations(payload, c.t, c.q)
    checker = {"classify": check.check_classify, "h0": check.check_h0, "basis": check.check_basis}[c.kind]
    return checker(payload, c.d, c.a, c.t)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    end_to_end, per_layer = declared_metrics()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "coxline", "cli.py")):
        print(f"error: no coxline sources under {src}; run from the root of a coxline checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from coxline import cli, oracle

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    problems = negative_controls(cli, oracle) + selftest.run(cli.main)
    sweep = args.workload != "queries"
    if not sweep:
        calls = workloads.query_calls(args.seed)
        sampled = []
    else:
        calls = workloads.sweep_calls(args.workload, args.seed, out_dir)
        sampled = workloads.sampled_sweep_classes(calls, args.seed)

    # with --trace 1, each untraced pass is followed by a traced one, and
    # the spans of the first traced pass are written out.  No pass is
    # started that would end after --seconds, once the minimum is made.
    passes, traced, rounds = [], [], []
    spans = os.path.join(out_dir, f"spans-{args.workload}.jsonl.gz")
    start = monotonic()
    while True:
        enough = len(passes) >= (MIN_TRACED_PAIRS if args.trace else MIN_PASSES)
        if not args.trace:
            enough = enough and sum(len(p["item_latencies"]) for p in passes) >= MIN_LATENCIES
        if enough and monotonic() - start + statistics.median(rounds) > args.seconds:
            break
        began = monotonic()
        passes.append(run_pass(root, calls, sweep, False))
        if args.trace:
            traced.append(run_pass(root, calls, False, True, None if traced else spans))
        rounds.append(monotonic() - began)

    # untimed checks of every answer
    bad = check_calls(passes + traced, calls)
    problems += check_sampled(cli, sampled)
    for k, msgs in bad.items():
        print(f"FAILED {' '.join(calls[k].argv)}: {msgs[:3]}", file=sys.stderr)
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)

    def items_of(c):
        return sum(comb(d + n + 1, n + 1) for n, d in c.pairs) if sweep else 1

    per_pass = sum(items_of(c) for c in calls)
    attempted = per_pass * (len(passes) + len(traced))
    failed = sum(items_of(calls[k]) for k in bad) * (len(passes) + len(traced))

    if args.trace:
        # the host's speed drifts within seconds, so compare neighbours
        overhead = statistics.median(t["wall_s"] / u["wall_s"] for u, t in zip(passes, traced)) - 1
        metrics = {}
        for name, unit in per_layer.items():
            value = overhead if name == "trace.overhead" else statistics.median_low(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        latencies = [x for p in passes for x in p["item_latencies"]]
        values = {
            "items_per_s": statistics.median(per_pass / p["wall_s"] for p in passes),
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_p99_ms": 1e3 * statistics.quantiles(latencies, n=100)[98],
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_kib"] / 1024 for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end.items()}

    # each request kind's share of a pass's time, so that a gain can be traced
    # to the kinds it helps; median over the untraced passes
    kind_share = {
        kind: statistics.median(
            sum(t for c, t in zip(calls, p["latencies"]) if c.kind == kind) / p["wall_s"] for p in passes
        )
        for kind in sorted({c.kind for c in calls})
    }
    summary = {
        "workload": args.workload,
        "kind_share": kind_share,
        "seed": args.seed,
        "passes": [{k: p[k] for k in ("wall_s", "setup_s", "peak_rss_kib")} for p in passes],
        "traced": [{"wall_s": p["wall_s"], "layers": p["layers"]} for p in traced],
        "items_per_pass": per_pass,
        "latency_samples": sum(len(p["item_latencies"]) for p in passes),
    }
    with open(os.path.join(out_dir, f"last-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:28s} {m['value']:14.6g} {m['unit']}")
    for kind, share in kind_share.items():
        print(f"{args.workload:15s} {'share.' + kind:28s} {share:14.3f} of a pass's time")
    print(f"{args.workload:15s} {len(passes) + len(traced)} passes, {attempted} items attempted, {failed} failed")
    result = {
        "correct": not bad and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
