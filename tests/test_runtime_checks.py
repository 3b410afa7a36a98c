"""The library's internal consistency checks hold even under `python -O`.

Each case plants a fault in a fresh interpreter started with -O, which strips
every `assert`, and requires a check to catch it: either the library raises
ArithmeticError, or the sweep reports the check that failed, which the case
turns into an ArithmeticError with `sweep_reports`.
"""

import subprocess
import sys

import pytest

from child_env import child_env

PRELUDE = """
from coxline import coxmono, relations
from coxline.cli import run_sweep
from coxline.oracle import PointConfig
from coxline.picard import DivisorClass
assert False, "asserts must be stripped in this interpreter"

def sweep_reports(check, cfg, d_max):
    failed = {f["check"] for f in run_sweep(cfg, d_max).failures}
    if check in failed:
        raise ArithmeticError(f"run_sweep reported {check!r}")
"""

FAULTS = {
    # every enumerated run gets one extra e1: the degree of its monomials is
    # off, which the basis check, the one degree check of enumerated
    # monomials, catches; d = 0, where the extra e1 meets no s1 and the
    # initial-ideal check of the enumeration passes
    "enumeration degree": """
real = coxmono.StandardRun
coxmono.StandardRun = lambda lam, sh, eh, *tail: real(lam, sh, (eh[0] + 1,) + eh[1:], *tail)
sweep_reports("basis independence", PointConfig.default(3), 0)
""",
    # s3*e3 traded for s1*e1 in every monomial of a run that s3*e3 divides,
    # s = lo..hi-1: same degree, but inside the initial ideal; the last
    # monomial of the run, which it does not divide, drops out
    "enumeration initial ideal": """
real = coxmono.StandardRun
def traded(lam, sh, eh, rest, lo, hi, off_pen, off_last):
    if lo < hi:
        sh, eh, rest, hi = (sh[0] + 1,) + sh[1:], (eh[0] + 1,) + eh[1:], rest - 1, hi - 1
    return real(lam, sh, eh, rest, lo, hi, off_pen, off_last)
coxmono.StandardRun = traded
coxmono.enumerate_standard_monomials(DivisorClass(1, (0, 0, 0)))
""",
    # every run one monomial too long: the count is taken by walking the
    # runs that the enumeration lists, so it is off by the number of runs
    "enumeration run length": """
real = coxmono.StandardRun
coxmono.StandardRun = lambda lam, sh, eh, rest, lo, hi, *offs: real(lam, sh, eh, rest, lo, hi + 1, *offs)
sweep_reports("standard monomial count", PointConfig.default(3), 2)
""",
    # the incidence bit of l1 at p1 flipped on a fresh default config: the
    # forms that vanish at p1 only through s1 now fall short there, which
    # the vanishing check of the basis check catches
    "incidence bit": """
cfg = PointConfig.default(3)
rows = [list(row) for row in cfg.incidence]
rows[1][0] ^= 1
object.__setattr__(cfg, "incidence", tuple(map(tuple, rows)))
sweep_reports("basis independence", cfg, 2)
""",
    # one coefficient of every line product off by 1: each step of a level
    # run multiplies by l[n-1] and divides exactly by l[n], which the
    # perturbed product no longer allows.  Dividing by l[n-1] instead would
    # not do as a fault here: it divides the product exactly, and its
    # wrong forms leave no remainder to report
    "run division": """
from coxline import cli, oracle
real = oracle._times_line
def perturbed(form, line):
    out = real(form, line)
    out[next(iter(out))] += 1
    return out
oracle._times_line = perturbed
cli._basis_payload(PointConfig.default(3), DivisorClass(2, (0, 0, 0)))
""",
    "closed-form level": """
coxmono.count_at_level = lambda D, lam: -1
coxmono.count_standard_monomials_closed_form(DivisorClass(2, (1, 1, 0)))
""",
    "relation residual": """
real = relations._line_dependency
def off(u, v, w):
    a, b = real(u, v, w)
    return a + 1, b
relations._line_dependency = off
relations.derive_relations(PointConfig.default(4))
""",
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_fault_raises_under_optimize(fault):
    script = PRELUDE.lstrip("\n") + (
        "try:\n"
        + "".join(f"    {line}\n" for line in FAULTS[fault].strip().splitlines())
        + "except ArithmeticError as exc:\n"
        "    print('caught:', exc)\n"
        "else:\n"
        "    print('missed')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("caught:"), proc.stdout + proc.stderr
