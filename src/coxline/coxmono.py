"""Monomials in the section-ring generators and standard-monomial counting.

The ring has 2n + 1 generators: l of degree L - E[1] - ... - E[n], s[i] of
degree L - E[i], and e[i] of degree E[i].  A monomial l^lam * s^sigma *
e^epsilon therefore has degree

    d    = lam + sum(sigma),
    a[i] = lam + sigma[i] - epsilon[i].

Standard monomials are the ones avoiding the initial ideal
(s[1]e[1], ..., s[n-2]e[n-2]): no index i <= n-2 carries both a positive
sigma[i] and a positive epsilon[i].  Their count in each degree is the
multigraded Hilbert function of the quotient ring.

A CoxMonomial is only a value to enumerate and to print; the relations'
arithmetic works on sparse exponents of its own (coxline.relations).  Both
print through monomial_text, so the text of a monomial is written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .picard import DivisorClass, is_nef


@dataclass(frozen=True, init=False)
class CoxMonomial:
    """Exponent vector (lam; sigma[1..n]; epsilon[1..n]), all non-negative.

    A value that the enumeration yields and the basis command prints, as
    text or as JSON; it has no arithmetic.
    """

    lam: int
    sigma: tuple[int, ...]
    epsilon: tuple[int, ...]

    def __init__(self, lam: int, sigma, epsilon):
        # converted and checked in locals, so the fields are set in one step
        lam = int(lam)
        sigma = tuple(map(int, sigma))
        epsilon = tuple(map(int, epsilon))
        if len(sigma) != len(epsilon):
            raise ValueError("sigma and epsilon must have the same length")
        if len(sigma) < 2:
            raise ValueError("need n >= 2")
        if lam < 0 or min(sigma) < 0 or min(epsilon) < 0:
            raise ValueError("exponents must be non-negative")
        self.__dict__.update(lam=lam, sigma=sigma, epsilon=epsilon)

    @property
    def n(self) -> int:
        return len(self.sigma)

    def __str__(self) -> str:
        return monomial_text(self.n, ((2 * self.n, self.lam), *enumerate(self.sigma + self.epsilon)))

    def to_json(self) -> dict:
        return {"l": self.lam, "s": list(self.sigma), "e": list(self.epsilon)}


def monomial_text(n: int, exps) -> str:
    """The text of l^lam * s^sigma * e^epsilon from its (variable, exponent)
    pairs, s1..sn, e1..en, l numbered 0..2n, in the order they print: l
    first, then s1..sn, e1..en.  Each factor with a positive exponent is its
    name or name^exponent, joined by '*'; '1' when there is none."""
    parts = []
    for v, x in exps:
        if x:
            name = "l" if v == 2 * n else f"{'se'[v // n]}{v % n + 1}"
            parts.append(name if x == 1 else f"{name}^{x}")
    return "*".join(parts) if parts else "1"


def head_in_initial_ideal(sigma_head, eps_head) -> bool:
    """True iff some s[i]e[i] divides s^sigma_head * e^eps_head, the first
    n - 2 exponents of a monomial: whether the monomial lies in the initial
    ideal (s[1]e[1], ..., s[n-2]e[n-2])."""
    for s, e in zip(sigma_head, eps_head):
        if s > 0 and e > 0:
            return True
    return False


class StandardRun(NamedTuple):
    """One level run: the monomials l^lam * s^sigma * e^epsilon with

        sigma   = sigma_head + (s, rest - s)
        epsilon = eps_head + (s + off_pen, rest - s + off_last)

    for s = lo..hi.  The degree d = lam + sum(sigma_head) + rest,
    a[i] = lam + sigma_head[i] - eps_head[i] (i <= n-2),
    a[n-1] = lam - off_pen and a[n] = lam - off_last is the same at every
    s, and each exponent is monotone in s, so they are all non-negative
    when they are at s = lo and s = hi.  Whether a monomial of the run lies
    in the initial ideal depends on (sigma_head, eps_head) alone.
    """

    lam: int
    sigma_head: tuple[int, ...]
    eps_head: tuple[int, ...]
    rest: int
    lo: int
    hi: int
    off_pen: int
    off_last: int

    @classmethod
    def of(cls, m: CoxMonomial) -> "StandardRun":
        """The run of length one that holds exactly m."""
        *head, pen, last = m.sigma
        *eps_head, e_pen, e_last = m.epsilon
        return cls(m.lam, tuple(head), tuple(eps_head), pen + last, pen, pen, e_pen - pen, e_last - last)

    def monomials(self):
        """The run's monomials, built in ascending s."""
        lam, head, eps, rest, lo, hi, off_pen, off_last = self
        for s in range(lo, hi + 1):
            yield CoxMonomial(lam, head + (s, rest - s), eps + (s + off_pen, rest - s + off_last))


class StandardMonomials:
    """The standard monomials of one class, held as their level runs.

    len() is the number of monomials, counted when the runs were listed.
    Iterating builds the CoxMonomials on demand, in canonical order.
    """

    __slots__ = ("runs", "_count")

    def __init__(self, runs: tuple[StandardRun, ...], count: int):
        self.runs = runs
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for run in self.runs:
            yield from run.monomials()


def enumerate_standard_monomials(D: DivisorClass) -> StandardMonomials:
    """All standard monomials of degree exactly D, in canonical order, as
    one StandardRun per level.

    For a fixed exponent lam of l, the equations sum(sigma) = d - lam and
    sigma[i] - epsilon[i] = a[i] - lam pin sigma[i] = max(a[i] - lam, 0) for
    i <= n-2 (complementarity), leaving a single free interval lo..hi for
    sigma[n-1].  Listing is by ascending lam, then ascending sigma[n-1].

    Each run is checked once to avoid the initial ideal, and the monomial
    count is taken by walking every run one s at a time, so it stays a
    listing apart from the per-level closed form (count_at_level).  Degrees
    are not checked here but once per run, by oracle.basis_failure, to which
    the sweep and the basis command pass the result.
    """
    n, d, a = D.n, D.d, D.a
    head, a_pen, a_last = a[: n - 2], a[n - 2], a[n - 1]
    runs = []
    count = 0
    for lam in range(0, d + 1):
        sig_forced = tuple([ai - lam if ai > lam else 0 for ai in head])
        eps_forced = tuple([lam - ai if lam > ai else 0 for ai in head])
        rest = d - lam - sum(sig_forced)
        # epsilon[i] = sigma[i] - a[i] + lam for the two free indices
        off_pen, off_last = lam - a_pen, lam - a_last
        lo = max(-off_pen, 0)
        hi = rest - max(-off_last, 0)
        if lo > hi:
            continue
        run = StandardRun(lam, sig_forced, eps_forced, rest, lo, hi, off_pen, off_last)
        if head_in_initial_ideal(run.sigma_head, run.eps_head):
            raise ArithmeticError(f"enumerated level {run} of {D} lies in the initial ideal")
        runs.append(run)
        # walked, not taken as hi - lo + 1: check 1 stays a listing
        for _ in range(run.lo, run.hi + 1):
            count += 1
    return StandardMonomials(tuple(runs), count)


def count_at_level(D: DivisorClass, lam: int) -> int:
    """Signed count of standard monomials of degree D with l-exponent lam.

    Equals d + 1 - lam - sum(max(a[k] - lam, 0)); non-negative whenever D
    is nef, which the closed-form counter checks at runtime.
    """
    count = D.d + 1 - lam
    for ak in D.a:
        if ak > lam:
            count -= ak - lam
    return count


def count_standard_monomials_closed_form(D: DivisorClass) -> int:
    """Sum of the per-level counts over lam = 0..d; nef classes only."""
    if not is_nef(D):
        raise ValueError(f"closed-form count needs a nef class, got {D}; enumerate instead")
    total = 0
    for lam in range(0, D.d + 1):
        s = count_at_level(D, lam)
        if s < 0:
            raise ArithmeticError(f"per-level count went negative on a nef class: {D}, lam={lam}")
        total += s
    return total
