"""Spans around coxline's public functions, for the traced run only.

Tracer.install() replaces, in the running process, the module attributes of
the public functions that the verify path and the query commands reach
with wrappers that record a span and call the original.  The program calls
them through those attributes, so the spans come in the program's own order
and nesting, and no file of the program changes.  Each span carries the id
of the item in progress, Tracer.item: the query number, set by call_cli,
or the class being swept, set by worker.py's hook on cli.nef_classes.

A layer's time is its spans' self time: duration minus the direct child
spans.  Time spent by the wrappers' own counters is recorded as child spans
named trace.hook, so it is charged to no layer; it shows in the traced
run's overhead against the untraced run.
"""

from __future__ import annotations

import gzip
import json
import time
from math import comb

from coxline import cli, coxmono, oracle, picard, relations

# metric prefix -> (module, attribute); cli also holds its own reference to
# enumerate_standard_monomials, which is replaced there as well
SPANNED = {
    "picard.h0": (picard, "h0"),
    "picard.strip": (picard, "strip_base_components"),
    "coxmono.enumerate": (coxmono, "enumerate_standard_monomials"),
    "coxmono.closed_form": (coxmono, "count_at_level"),
    "oracle.constraint_rows": (oracle, "constraint_rows"),
    "oracle.h0_rank": (oracle, "h0_rank"),
    "oracle.realize": (oracle, "realize_monomial"),
    "oracle.basis_verify": (oracle, "verify_basis_independence"),
    "relations.derive": (relations, "derive_relations"),
    "relations.spoly": (relations, "spoly_reduce"),
}
CLI_SPAN = "cli.main"
HOOK_SPAN = "trace.hook"


def _bits(values):
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, item, parent index or -1, start, end)
        self.stack = []
        self.item = None
        self.counts = {"strip_steps": 0, "monomials": 0, "spoly_pairs": 0}
        self.max_rows = self.max_cols = self.max_bits = 0
        self._row_bits = {}  # id of a constraint row -> (its bits, the row)
        self.caches = [v for v in vars(oracle).values() if hasattr(v, "cache_info")]
        self.h0_rank = oracle.h0_rank

    # ------------------------------------------------------------ recording

    def _span(self, name, fn, hook=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.spans[idx] = (name, self.item, parent, t0, t1)
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                self.spans.append((HOOK_SPAN, self.item, parent, hook_start, clock()))
            return result

        return traced

    def call_cli(self, main, argv, k):
        """The benchmark's own call into cli.main, as the root span of item k."""
        self.item = f"call{k}"
        return self._span(CLI_SPAN, main)(argv)

    # --------------------------------------------------------------- counters

    def _strip(self, args, result):
        removed = result[1]
        self.counts["strip_steps"] += removed.l + sum(removed.e)

    def _enumerate(self, args, result):
        self.counts["monomials"] += len(result)

    def _rows(self, args, result):
        D = args[1]
        self.max_rows = max(self.max_rows, len(result))
        self.max_cols = max(self.max_cols, comb(D.d + 2, 2))
        for row in result:
            seen = self._row_bits.get(id(row))
            if seen is None:
                # the row is held so that its id cannot be reused by another
                seen = self._row_bits[id(row)] = (_bits(row.values()), row)
            self.max_bits = max(self.max_bits, seen[0])

    def _realize(self, args, result):
        self.max_bits = max(self.max_bits, _bits(result.coeffs.values()))

    def _spoly(self, args, result):
        self.counts["spoly_pairs"] += 1

    def install(self):
        hooks = {
            "picard.strip": self._strip,
            "coxmono.enumerate": self._enumerate,
            "oracle.constraint_rows": self._rows,
            "oracle.realize": self._realize,
            "relations.spoly": self._spoly,
        }
        for name, (module, attr) in SPANNED.items():
            setattr(module, attr, self._span(name, getattr(module, attr), hooks.get(name)))
        cli.enumerate_standard_monomials = coxmono.enumerate_standard_monomials

    # ---------------------------------------------------------------- results

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _name, _item, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = {}
        for (name, _item, _parent, t0, t1), c in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (t1 - t0) - c
        return totals

    def layer_metrics(self, outputs):
        self_s = self.self_times()
        info = self.h0_rank.cache_info()
        lookups = info.hits + info.misses
        out = {f"{name}_s": self_s.get(name, 0.0) for name in SPANNED}
        out.update(
            {
                "cli.self_s": self_s.get(CLI_SPAN, 0.0),
                "trace.hook_s": self_s.get(HOOK_SPAN, 0.0),
                "picard.strip_steps": self.counts["strip_steps"],
                "coxmono.monomials": self.counts["monomials"],
                "oracle.max_matrix_rows": self.max_rows,
                "oracle.max_matrix_cols": self.max_cols,
                "oracle.max_coeff_bits": self.max_bits,
                "oracle.h0_rank_hit_ratio": info.hits / lookups if lookups else 0.0,
                "oracle.cache_entries": sum(c.cache_info().currsize for c in self.caches),
                "relations.spoly_pairs": self.counts["spoly_pairs"],
                "cli.output_bytes": sum(len(o.encode()) for o in outputs),
                "spans": len(self.spans),
            }
        )
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, item, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"name": name, "item": item, "parent": parent, "start": t0, "end": t1}) + "\n")
