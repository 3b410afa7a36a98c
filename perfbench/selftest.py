"""Self-test of the checker in check.py: it must accept genuine answers and
reject each of a set of wrong ones.

    python3 perfbench/selftest.py      # from the root of a coxline checkout

Genuine answers come from coxline.cli.main; the wrong ones are made from
them by hand.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

import check


def _answer(cli_main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["--json", *argv])
    return json.loads(buf.getvalue())


def cases(cli_main):
    """(name, checker on a payload, genuine payload, wrong payload)."""
    t3, t5, q = ("0", "1", "2"), ("0", "1", "2", "3", "4"), ("0", "1", "0")

    h0 = _answer(cli_main, ["--n", "3", "h0", "3 1 1 1"])
    h0_bad = dict(h0, h0=h0["h0"] + 1)

    classify = _answer(cli_main, ["--n", "3", "classify", "5 4 4 0"])
    classify_bad = copy.deepcopy(classify)
    classify_bad["removed"]["l"] += 1

    rels = _answer(cli_main, ["--n", "5", "relations"])
    rels_bad = copy.deepcopy(rels)
    rels_bad["relations"][1]["a"] = str(Fraction(rels_bad["relations"][1]["a"]) + 1)

    basis = _answer(cli_main, ["--n", "3", "basis", "4 2 1 1"])
    basis_dropped = copy.deepcopy(basis)
    basis_dropped["monomials"].pop()
    basis_repeated = copy.deepcopy(basis)
    basis_repeated["monomials"][-1] = basis_repeated["monomials"][0]
    basis_bent = copy.deepcopy(basis)
    basis_bent["monomials"][0]["form"]["terms"][0]["coeff"] = "12345"

    verify = _answer(cli_main, ["--n", "4", "verify", "--dmax", "2"])
    verify_short = copy.deepcopy(verify)
    verify_short["reports"][0]["classes_checked"] -= 1

    return [
        ("h0 off by one", lambda p: check.check_h0(p, 3, (1, 1, 1), t3), h0, h0_bad),
        ("stripped copies off by one", lambda p: check.check_classify(p, 5, (4, 4, 0), t3), classify, classify_bad),
        ("changed relation coefficient", lambda p: check.check_relations(p, t5, q), rels, rels_bad),
        ("basis with one form dropped", lambda p: check.check_basis(p, 4, (2, 1, 1), t3), basis, basis_dropped),
        ("basis with a form repeated", lambda p: check.check_basis(p, 4, (2, 1, 1), t3), basis, basis_repeated),
        ("basis form that does not vanish", lambda p: check.check_basis(p, 4, (2, 1, 1), t3), basis, basis_bent),
        ("sweep one class short", lambda p: check.check_verify(p, [(4, 2)]), verify, verify_short),
    ]


def run(cli_main):
    """Problems with the checker itself; an empty list means it behaves."""
    problems = []
    for name, checker, good, bad in cases(cli_main):
        if checker(good):
            problems.append(f"{name}: genuine answer rejected: {checker(good)}")
        if not checker(bad):
            problems.append(f"{name}: wrong answer accepted")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from coxline import cli

    found = run(cli.main)
    for line in found:
        print("FAIL", line)
    print(f"checker self-test: {len(cases(cli.main))} cases, {len(found)} problems")
    sys.exit(1 if found else 0)
