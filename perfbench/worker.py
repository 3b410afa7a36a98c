"""One timed pass: a fresh process that sends a list of argument vectors to
coxline.cli.main, as a user's `coxline ...` commands would.

Reads {"calls": [[arg, ...], ...], "trace": bool, "spans": path or null,
"per_class": bool} as JSON on stdin and prints one JSON line: the clock
reading at the first call, each call's exit code, captured output and
latency, the item latencies, the peak resident set, and, when traced, the
per-layer figures of layers.py.

An item is one call, or with per_class one class of a verify sweep: the time
from the sweep taking the class from cli.nef_classes to taking the next one,
which is one clock reading per class.

Run from the root of a coxline checkout; it imports coxline from ./src.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from coxline import cli  # noqa: E402


def main():
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    clock = time.perf_counter
    sweeps = []  # per sweep, the clock at each class and at the end
    sweep_classes = cli.nef_classes

    def nef_classes(n, d_max):
        stamps = []
        sweeps.append(stamps)
        for D in sweep_classes(n, d_max):
            stamps.append(clock())
            if tracer is not None:
                tracer.item = f"n{n}:{D.d};{','.join(map(str, D.a))}"
            yield D
        stamps.append(clock())

    cli.nef_classes = nef_classes
    codes, outputs, latencies = [], [], []
    first = time.clock_gettime(time.CLOCK_MONOTONIC)
    for k, argv in enumerate(spec["calls"]):
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call_cli(cli.main, argv, k)
        except Exception as exc:  # a crash fails this call, not the pass
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        codes.append(code)
        outputs.append(buf.getvalue())
    result = {
        "first": first,
        "codes": codes,
        "outputs": outputs,
        "latencies": latencies,
        "item_latencies": [b - a for s in sweeps for a, b in zip(s, s[1:])] if spec["per_class"] else latencies,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(outputs)
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
