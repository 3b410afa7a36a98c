"""Time cold single-class queries, sweeps and relation checks at growing
size on two checkouts.

    python3 tools/bench_scaling.py --parent PARENT_DIR --change CHANGE_DIR \\
        --out BENCH_scaling.json [--timeout 600]

Both directories are coxline checkouts.  Every case runs once per checkout
in a fresh process (the parent first on even case numbers and the change
first on odd ones, so a drift of the host's speed falls on both sides
alike):

- cold `h0`, `basis` and `classify` of (d; d/2, d/4, d/4) and (d; 1, d-5,
  d-5) at d = 10, 20, 30, 40, 50, on the default n = 3 configuration and
  on the README's rational one (t = 0, 1/2, 7, q = 1 : 2 : 1); at d = 30
  and 40 these include `basis "30 1 25 25"` and `basis "40 20 10 10"`;
- `verify` sweeps of that rational configuration at --dmax 12 and 16;
- `--json --n N relations` on the default configuration at n = 15, 30,
  45 and 60 (the series `relations`, whose size column d holds n).

The child process wraps a few of coxline's functions in timers and reports,
per stage, the calls and the self time (time inside the function minus the
wrapped functions it calls): picard.h0, picard.strip_base_components,
coxmono.enumerate_standard_monomials, coxmono.count_standard_monomials_closed_form,
oracle.constraint_rows, oracle.h0_rank, oracle.realize_run (or, in a
checkout without it, oracle.realize_monomial), oracle.verify_basis_independence,
relations.derive_relations, relations.spoly_reduce and
oracle._rank_of_sparse_rows, whose inputs' largest matrix and
coefficient bit length are recorded too.  A generator such as realize_run
is timed over each of its steps, and counts one call per value it yields.  A
case that runs past --timeout is recorded as such.  Per case the output
gives both sides' figures, whether their stdout and exit codes are
byte-identical, and the parent/change ratio of the in-process time; per
series it gives the slope of log(time) against log(d) (log(n) for
`relations`), or null when the series never reaches FIT_FLOOR_S or has
fewer than 3 timed points.  The
`verify` sweep series have 2 points (SWEEP_DMAX), and a fit through two
single runs moves with one slow run, so they get no slope; compare their
per-case times instead.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time

README_CFG = "t = 0, 1/2, 7\nq = 1, 2, 1\n"
DEGREES = (10, 20, 30, 40, 50)
COMMANDS = ("h0", "basis", "classify")
SHAPES = {
    "half-quarter": lambda d: (d, d // 2, d // 4, d // 4),
    "one-two-large": lambda d: (d, 1, d - 5, d - 5),
}
SWEEP_DMAX = (12, 16)
RELATION_NS = (15, 30, 45, 60)
# a series whose largest time is below this is flat CLI work that does not
# grow with d, so an exponent fitted to it is noise
FIT_FLOOR_S = 0.1

CHILD = r"""
import inspect, io, json, sys, time
from contextlib import redirect_stdout
from coxline import cli, coxmono, oracle, picard, relations

STAGES = {
    "picard.h0": (picard, "h0"),
    "picard.strip": (picard, "strip_base_components"),
    "coxmono.enumerate": (coxmono, "enumerate_standard_monomials"),
    "coxmono.closed_form": (coxmono, "count_standard_monomials_closed_form"),
    "oracle.constraint_rows": (oracle, "constraint_rows"),
    "oracle.h0_rank": (oracle, "h0_rank"),
    "oracle.realize": (oracle, "realize_run" if hasattr(oracle, "realize_run") else "realize_monomial"),
    "oracle.basis_verify": (oracle, "verify_basis_independence"),
    "oracle.rank": (oracle, "_rank_of_sparse_rows"),
    "relations.derive_relations": (relations, "derive_relations"),
    "relations.spoly_reduce": (relations, "spoly_reduce"),
}
stats = {name: {"calls": 0, "self_s": 0.0} for name in STAGES}
rank = {"max_rows": 0, "max_cols": 0, "max_input_bits": 0}
stack = [0.0]  # time spent in wrapped callees of each open frame


def settle(name, t0):
    spent = time.perf_counter() - t0
    inner = stack.pop()
    stats[name]["self_s"] += spent - inner
    stack[-1] += spent


def wrap(name, fn):
    def timed_steps(*args, **kwargs):
        steps = fn(*args, **kwargs)
        while True:
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                value = next(steps)
            except StopIteration:
                return
            finally:
                settle(name, t0)
            stats[name]["calls"] += 1
            yield value

    def timed(*args, **kwargs):
        if name == "oracle.rank":
            rows = list(args[0])
            args = (rows,) + args[1:]
            cols = set()
            for row in rows:
                cols.update(row)
                for v in row.values():
                    rank["max_input_bits"] = max(rank["max_input_bits"], abs(v).bit_length())
            rank["max_rows"] = max(rank["max_rows"], len(rows))
            rank["max_cols"] = max(rank["max_cols"], len(cols))
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stats[name]["calls"] += 1
            settle(name, t0)
    return timed_steps if inspect.isgeneratorfunction(fn) else timed


def install():
    for name, (module, attr) in STAGES.items():
        setattr(module, attr, wrap(name, getattr(module, attr)))
    # cli holds its own reference to the enumeration
    cli.enumerate_standard_monomials = coxmono.enumerate_standard_monomials


install()
buf = io.StringIO()
t0 = time.perf_counter()
with redirect_stdout(buf):
    code = cli.main(sys.argv[1:])
main_s = time.perf_counter() - t0
sys.stdout.write(buf.getvalue())
sys.stderr.write("\n" + json.dumps({"exit": code, "main_s": main_s, "stages": stats, "rank": rank}) + "\n")
"""


def run_case(root, argv, timeout):
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"timeout_s": timeout}
    record = {"process_s": time.perf_counter() - t0}
    try:
        record.update(json.loads(proc.stderr.strip().splitlines()[-1]))
    except (IndexError, ValueError):
        record["error"] = proc.stderr[-2000:]
    record["returncode"] = proc.returncode
    record["stdout_sha256"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
    record["stdout_bytes"] = len(proc.stdout.encode())
    return record


def cases(readme_cfg):
    configs = {"default": ["--n", "3"], "readme-rational": ["--config", readme_cfg]}
    for cfg_name, cfg_args in configs.items():
        for shape, make in SHAPES.items():
            for command in COMMANDS:
                for d in DEGREES:
                    cls = " ".join(map(str, make(d)))
                    yield {"config": cfg_name, "series": f"{command} {shape}", "d": d,
                           "argv": cfg_args + [command, cls]}
    for dmax in SWEEP_DMAX:
        yield {"config": "readme-rational", "series": "verify sweep", "d": dmax,
               "argv": configs["readme-rational"] + ["verify", "--dmax", str(dmax)]}
    for n in RELATION_NS:
        yield {"config": "default", "series": "relations", "d": n,
               "argv": ["--json", "--n", str(n), "relations"]}


def slope(points):
    """Least-squares slope of log(t) against log(d); None for fewer than 3
    timed points or when the largest time is below FIT_FLOOR_S."""
    pts = [(math.log(d), math.log(t)) for d, t in points if t and t > 0]
    if len(pts) < 3 or max(t for _, t in points if t) < FIT_FLOOR_S:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--timeout", type=float, default=600, help="seconds per case and side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as tmp:
        readme_cfg = os.path.join(tmp, "readme.cfg")
        with open(readme_cfg, "w") as fh:
            fh.write(README_CFG)
        results = []
        for k, case in enumerate(cases(readme_cfg)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                case[side] = run_case(sides[side], case["argv"], args.timeout)
            p, c = case["parent"], case["change"]
            done = "main_s" in p and "main_s" in c
            # None when a side did not finish
            case["identical_stdout"] = (p["stdout_sha256"], p["returncode"]) == (
                c["stdout_sha256"], c["returncode"]) if done else None
            case["parent_over_change"] = p["main_s"] / c["main_s"] if done else None
            case["argv"] = ["README.cfg" if a == readme_cfg else a for a in case["argv"]]
            results.append(case)
            print(f"{case['config']} {case['series']} d={case['d']}: parent "
                  f"{p.get('main_s', p.get('timeout_s'))} change {c.get('main_s', c.get('timeout_s'))}",
                  file=sys.stderr, flush=True)

    series = {}
    for case in results:
        key = f"{case['config']}: {case['series']}"
        for side in sides:
            t = case[side].get("main_s")
            series.setdefault(key, {}).setdefault(side, []).append((case["d"], t))
    fits = {key: {side: slope(pts) for side, pts in by_side.items()} for key, by_side in series.items()}
    report = {
        "command": "python3 -c CHILD [coxline arguments], one fresh process per case and side, "
                   "run from the root of each checkout with PYTHONPATH=src",
        "timeout_s": args.timeout,
        "cases": results,
        "log_log_slope_in_d": fits,
        "all_identical": all(case["identical_stdout"] is not False for case in results),
        "unfinished": [f"{c['config']}: {c['series']} d={c['d']}" for c in results if c["identical_stdout"] is None],
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
