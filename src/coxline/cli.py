"""Command-line interface: classify classes, dump bases and relations, and
run the full cross-verification sweep.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import coxmono, oracle, picard, relations
from .coxmono import enumerate_standard_monomials
from .oracle import PointConfig
from .picard import DivisorClass

DIVISOR_GRAMMAR = "whitespace-separated integers: d a1 ... an"


class UsageError(Exception):
    pass


@dataclass
class SweepReport:
    n: int
    d_max: int
    classes_checked: int = 0
    failures: list[dict] = field(default_factory=list)
    complete: bool = True

    @property
    def ok(self) -> bool:
        return not self.failures

    def add_failure(self, D: DivisorClass | None, check: str, expected, got):
        self.failures.append(
            {
                "divisor": D.to_json() if D is not None else None,
                "check": check,
                "expected": str(expected),
                "got": str(got),
            }
        )

    def finalize(self) -> "SweepReport":
        self.failures.sort(key=lambda f: (str(f["divisor"]), f["check"]))
        return self

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d_max": self.d_max,
            "classes_checked": self.classes_checked,
            "failures": self.failures,
            "complete": self.complete,
            "ok": self.ok,
        }


def nef_classes(n: int, d_max: int):
    """All nef classes with 0 <= d <= d_max, lexicographic in (d, a1..an)."""
    for d in range(0, d_max + 1):
        yield from (DivisorClass(d, a) for a in _vectors_summing_at_most(d, n))


def _vectors_summing_at_most(budget: int, parts: int):
    if parts == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _vectors_summing_at_most(budget - first, parts - 1):
            yield (first,) + rest


def run_sweep(cfg: PointConfig, d_max: int, rels=None, max_classes=None) -> SweepReport:
    """Cross-verify every nef class with d <= d_max against the oracle.

    Per class: the standard-monomial count, the per-level closed form, chi,
    h0 via stripping, and the interpolation rank must all agree, and the
    enumerated standard monomials must pass the basis verification, which
    is also the one check of their degrees.  A negative per-level count
    raised by the closed form is reported with its message.  Per relation
    pair, the S-polynomial must reduce to zero.  A relation list may be injected to
    exercise the failure paths; by default it is derived from cfg.  When
    max_classes is hit the report stops early and is flagged incomplete.
    """
    n = cfg.n
    report = SweepReport(n=n, d_max=d_max)
    if rels is None:
        rels = relations.derive_relations(cfg)
    for r in rels:
        if not relations.verify_relation_geometrically(cfg, r):
            report.add_failure(None, f"relation({r.i}) form identity", 0, "nonzero residual")
    for i in range(1, len(rels) + 1):
        for j in range(i + 1, len(rels) + 1):
            nf = relations.spoly_reduce(i, j, rels)
            if not nf.is_zero():
                report.add_failure(None, f"spoly({i},{j}) normal form", 0, nf)
    for D in nef_classes(n, d_max):
        if max_classes is not None and report.classes_checked >= max_classes:
            report.complete = False
            break
        report.classes_checked += 1
        expected = picard.chi(D)
        mons = enumerate_standard_monomials(D)
        counted = len(mons)
        if counted != expected:
            report.add_failure(D, "standard monomial count", expected, counted)
        try:
            closed = coxmono.count_standard_monomials_closed_form(D)
        except ArithmeticError as exc:
            report.add_failure(D, "per-level count non-negative", ">= 0", exc)
        else:
            if closed != expected:
                report.add_failure(D, "closed-form count", expected, closed)
        h0_strip = picard.h0(D)
        if h0_strip != expected:
            report.add_failure(D, "h0 via stripping", expected, h0_strip)
        h0_oracle = oracle.h0_rank(cfg, D)
        if h0_oracle != expected:
            report.add_failure(D, "oracle interpolation rank", expected, h0_oracle)
        if not oracle.verify_basis_independence(cfg, D, mons):
            report.add_failure(D, "basis independence", True, False)
    return report.finalize()


def _parse_divisor(tokens, n: int) -> DivisorClass:
    flat = " ".join(tokens).split()
    try:
        values = [int(tok) for tok in flat]
    except ValueError as exc:
        raise UsageError(f"bad divisor class {' '.join(flat)!r}; expected {DIVISOR_GRAMMAR}") from exc
    if len(values) != n + 1:
        raise UsageError(
            f"expected {n + 1} integers for n = {n} ({DIVISOR_GRAMMAR}), got {len(values)}"
        )
    return DivisorClass(values[0], tuple(values[1:]))


def _load_cfg(args) -> PointConfig:
    if args.config:
        return oracle.load_config(args.config)
    return PointConfig.default(args.n)


def _classify_payload(D: DivisorClass) -> dict:
    eff = picard.effective_coords(D)
    nef = picard.nef_coords(D)
    payload = {
        "divisor": D.to_json(),
        "effective": eff is not None,
        "effective_coords": None if eff is None else {"m": eff.m, "c": list(eff.c)},
        "nef": nef is not None,
        "nef_coords": None if nef is None else {"b": nef.b, "b_i": list(nef.b_i)},
        "chi": picard.chi(D),
        "h0": picard.h0(D),
    }
    if eff is not None:
        nef_part, removed = picard.strip_base_components(D)
        payload["nef_part"] = nef_part.to_json()
        payload["removed"] = removed.to_json()
    else:
        payload["nef_part"] = None
        payload["removed"] = None
    return payload


def _basis_payload(cfg: PointConfig, D: DivisorClass) -> dict:
    if not picard.is_effective(D):
        return {"divisor": D.to_json(), "h0": 0, "monomials": [], "note": "h0 = 0, empty basis"}
    mons = enumerate_standard_monomials(D)
    entries = []
    for m in mons:
        form = oracle.realize_monomial(cfg, m)
        entries.append({"monomial": m.to_json(), "text": str(m), "form": form.to_json(), "form_text": str(form)})
    return {
        "divisor": D.to_json(),
        "h0": picard.h0(D),
        "monomials": entries,
        "independent": oracle.verify_basis_independence(cfg, D, mons),
    }


def _corrupt_first(rels):
    if not rels:
        return rels
    bad = rels[0]
    return [relations.Relation(bad.n, bad.i, bad.a_coeff + 1, bad.b_coeff)] + rels[1:]


def _relations_payload(cfg: PointConfig, corrupt: bool = False) -> dict:
    rels = relations.derive_relations(cfg)
    if corrupt:
        rels = _corrupt_first(rels)
    payload = {"n": cfg.n, "relations": [], "spoly": []}
    if cfg.n == 2:
        payload["note"] = "free polynomial ring on 5 generators, no relations"
    for r in rels:
        payload["relations"].append(
            {
                **r.to_json(),
                "text": str(r),
                "geometric_ok": relations.verify_relation_geometrically(cfg, r),
            }
        )
    for i in range(1, len(rels) + 1):
        for j in range(i + 1, len(rels) + 1):
            payload["spoly"].append([i, j, relations.spoly_reduce(i, j, rels).is_zero()])
    payload["ok"] = all(r["geometric_ok"] for r in payload["relations"]) and all(
        z for _, _, z in payload["spoly"]
    )
    return payload


def _emit(payload, as_json: bool, lines):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coxline",
        description="Exact section-ring computations for plane blow-ups at collinear points.",
    )
    parser.add_argument("--config", help="point configuration file (keys: n, t, q)")
    parser.add_argument("--n", type=int, default=3, help="number of points for the built-in configuration (default 3)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="cone membership, decompositions, chi, h0")
    p_classify.add_argument("divisor", nargs="+", help=DIVISOR_GRAMMAR)

    p_h0 = sub.add_parser("h0", help="section-space dimension of a class")
    p_h0.add_argument("divisor", nargs="+", help=DIVISOR_GRAMMAR)

    p_basis = sub.add_parser("basis", help="standard-monomial basis with realized forms")
    p_basis.add_argument("divisor", nargs="+", help=DIVISOR_GRAMMAR)

    p_rel = sub.add_parser("relations", help="derive and check the defining relations")
    p_rel.add_argument(
        "--inject-bad-relation",
        action="store_true",
        help="perturb one coefficient to demonstrate failure detection",
    )

    p_verify = sub.add_parser("verify", help="full cross-verification sweep")
    p_verify.add_argument("--dmax", type=int, default=4, help="largest line degree to sweep (default 4)")
    p_verify.add_argument("--n-list", help="comma-separated point counts, e.g. '3,4,5' (default: the loaded n)")
    p_verify.add_argument(
        "--max-classes",
        type=int,
        help="stop each sweep after this many classes and flag the report incomplete",
    )
    p_verify.add_argument(
        "--inject-bad-relation",
        action="store_true",
        help="perturb one relation coefficient to demonstrate failure detection",
    )

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "verify":
        return _cmd_verify(args)
    cfg = _load_cfg(args)
    if args.command == "relations":
        payload = _relations_payload(cfg, corrupt=args.inject_bad_relation)
        lines = [f"n = {payload['n']}"]
        if "note" in payload:
            lines.append(payload["note"])
        for r in payload["relations"]:
            lines.append(f"{r['text']}    geometric check: {'ok' if r['geometric_ok'] else 'FAILED'}")
        for i, j, z in payload["spoly"]:
            lines.append(f"S(g{i}, g{j}) -> {'0' if z else 'NONZERO'}")
        _emit(payload, args.json, lines)
        return 0 if payload["ok"] else 1

    D = _parse_divisor(args.divisor, cfg.n)
    if args.command == "classify":
        payload = _classify_payload(D)
        lines = [
            f"divisor: {D}",
            f"effective: {payload['effective']}    coords: {payload['effective_coords']}",
            f"nef: {payload['nef']}    coords: {payload['nef_coords']}",
            f"chi: {payload['chi']}",
            f"h0: {payload['h0']}",
        ]
        if payload["nef_part"] is not None:
            lines.append(f"nef part: {DivisorClass(**payload['nef_part'])}    removed: {payload['removed']}")
        _emit(payload, args.json, lines)
        return 0
    if args.command == "h0":
        payload = {"divisor": D.to_json(), "h0": picard.h0(D)}
        _emit(payload, args.json, [f"h0({D}) = {payload['h0']}"])
        return 0
    if args.command == "basis":
        payload = _basis_payload(cfg, D)
        lines = [f"divisor: {D}", f"h0: {payload['h0']}"]
        if "note" in payload:
            lines.append(payload["note"])
        for entry in payload["monomials"]:
            lines.append(f"  {entry['text']:<24} -> {entry['form_text']}")
        if "independent" in payload:
            lines.append(f"independent: {payload['independent']}")
        _emit(payload, args.json, lines)
        return 0 if payload.get("independent", True) else 1
    raise UsageError(f"unknown command {args.command!r}")


def _cmd_verify(args) -> int:
    if args.config:
        cfgs = [oracle.load_config(args.config)]
        if args.n_list:
            wanted = [int(tok) for tok in args.n_list.split(",")]
            if wanted != [cfgs[0].n]:
                raise UsageError("--n-list must match the n of the loaded config")
    else:
        n_list = [int(tok) for tok in args.n_list.split(",")] if args.n_list else [args.n]
        cfgs = [PointConfig.default(n) for n in n_list]
    if args.dmax < 0:
        raise UsageError("--dmax must be >= 0")
    if args.max_classes is not None and args.max_classes < 0:
        raise UsageError("--max-classes must be >= 0")
    reports = []
    for cfg in cfgs:
        rels = relations.derive_relations(cfg)
        if args.inject_bad_relation:
            rels = _corrupt_first(rels)
        reports.append(run_sweep(cfg, args.dmax, rels=rels, max_classes=args.max_classes))
    payload = {"reports": [r.to_json() for r in reports], "ok": all(r.ok for r in reports)}
    lines = []
    for r in reports:
        lines.append(
            f"n={r.n} dmax={r.d_max}: {r.classes_checked} classes checked, "
            f"{len(r.failures)} failures"
            + ("" if r.complete else " (INCOMPLETE: class budget exceeded)")
        )
        for f in r.failures:
            lines.append(f"  FAIL {f['divisor']} {f['check']}: expected {f['expected']}, got {f['got']}")
    _emit(payload, args.json, lines)
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
