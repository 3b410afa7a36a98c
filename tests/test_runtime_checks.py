"""The library's internal consistency checks hold even under `python -O`.

Each case plants a fault in a fresh interpreter started with -O, which strips
every `assert`, and requires a check to catch it: either the library raises
ArithmeticError, or the sweep reports the check that failed, which the case
turns into an ArithmeticError with `sweep_reports`.
"""

import os
import subprocess
import sys

import pytest

import coxline

SRC = os.path.dirname(os.path.dirname(os.path.abspath(coxline.__file__)))

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
    # every enumerated monomial gets one extra e1: its degree is off, which
    # the basis check, the one degree check of enumerated monomials, catches
    "enumeration degree": """
real = coxmono.CoxMonomial
coxmono.CoxMonomial = lambda lam, s, e: real(lam, s, (e[0] + 1,) + e[1:])
sweep_reports("basis independence", PointConfig.default(3), 2)
""",
    # s3*e3 traded for s1*e1: same degree, but inside the initial ideal
    "enumeration initial ideal": """
real = coxmono.CoxMonomial
def traded(lam, s, e):
    if s[-1] and e[-1]:
        s = (s[0] + 1,) + s[1:-1] + (s[-1] - 1,)
        e = (e[0] + 1,) + e[1:-1] + (e[-1] - 1,)
    return real(lam, s, e)
coxmono.CoxMonomial = traded
coxmono.enumerate_standard_monomials(DivisorClass(1, (0, 0, 0)))
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
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("caught:"), proc.stdout + proc.stderr
