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
"""

from __future__ import annotations

from dataclasses import dataclass

from .picard import DivisorClass, is_nef


@dataclass(frozen=True, init=False)
class CoxMonomial:
    """Exponent vector (lam; sigma[1..n]; epsilon[1..n]), all non-negative."""

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

    @classmethod
    def unit(cls, n: int) -> "CoxMonomial":
        return cls(0, (0,) * n, (0,) * n)

    @classmethod
    def gen_l(cls, n: int) -> "CoxMonomial":
        return cls(1, (0,) * n, (0,) * n)

    @classmethod
    def gen_s(cls, n: int, i: int) -> "CoxMonomial":
        return cls(0, tuple(1 if j == i - 1 else 0 for j in range(n)), (0,) * n)

    @classmethod
    def gen_e(cls, n: int, i: int) -> "CoxMonomial":
        return cls(0, (0,) * n, tuple(1 if j == i - 1 else 0 for j in range(n)))

    def total_degree(self) -> int:
        """Exponent sum, i.e. degree in the free polynomial ring."""
        return self.lam + sum(self.sigma) + sum(self.epsilon)

    def __mul__(self, other: "CoxMonomial") -> "CoxMonomial":
        if self.n != other.n:
            raise ValueError("mixed number of points")
        return CoxMonomial(
            self.lam + other.lam,
            tuple(x + y for x, y in zip(self.sigma, other.sigma)),
            tuple(x + y for x, y in zip(self.epsilon, other.epsilon)),
        )

    def divides(self, other: "CoxMonomial") -> bool:
        return (
            self.n == other.n
            and self.lam <= other.lam
            and all(x <= y for x, y in zip(self.sigma, other.sigma))
            and all(x <= y for x, y in zip(self.epsilon, other.epsilon))
        )

    def __floordiv__(self, other: "CoxMonomial") -> "CoxMonomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return CoxMonomial(
            self.lam - other.lam,
            tuple(x - y for x, y in zip(self.sigma, other.sigma)),
            tuple(x - y for x, y in zip(self.epsilon, other.epsilon)),
        )

    def lcm(self, other: "CoxMonomial") -> "CoxMonomial":
        if self.n != other.n:
            raise ValueError("mixed number of points")
        return CoxMonomial(
            max(self.lam, other.lam),
            tuple(max(x, y) for x, y in zip(self.sigma, other.sigma)),
            tuple(max(x, y) for x, y in zip(self.epsilon, other.epsilon)),
        )

    def __str__(self) -> str:
        parts = []
        if self.lam:
            parts.append("l" if self.lam == 1 else f"l^{self.lam}")
        for name, exps in (("s", self.sigma), ("e", self.epsilon)):
            for i, x in enumerate(exps, start=1):
                if x:
                    parts.append(f"{name}{i}" if x == 1 else f"{name}{i}^{x}")
        return "*".join(parts) if parts else "1"

    def to_json(self) -> dict:
        return {"l": self.lam, "s": list(self.sigma), "e": list(self.epsilon)}


def degree_of(m: CoxMonomial) -> DivisorClass:
    return DivisorClass(
        m.lam + sum(m.sigma),
        tuple(m.lam + s - e for s, e in zip(m.sigma, m.epsilon)),
    )


def has_degree(m: CoxMonomial, D: DivisorClass) -> bool:
    """degree_of(m) == D, as plain arithmetic on the exponents."""
    lam, sigma = m.lam, m.sigma
    # zip would truncate, so the lengths are compared first
    if len(sigma) != len(D.a) or lam + sum(sigma) != D.d:
        return False
    for s, e, ai in zip(sigma, m.epsilon, D.a):
        if lam + s - e != ai:
            return False
    return True


def generators(n: int) -> list[tuple[str, CoxMonomial]]:
    """The 2n + 1 ring generators with their display names."""
    gens = [("l", CoxMonomial.gen_l(n))]
    gens += [(f"s{i}", CoxMonomial.gen_s(n, i)) for i in range(1, n + 1)]
    gens += [(f"e{i}", CoxMonomial.gen_e(n, i)) for i in range(1, n + 1)]
    return gens


def in_initial_ideal(m: CoxMonomial) -> bool:
    """True iff some s[i]e[i] with i <= n-2 divides m."""
    sigma, epsilon = m.sigma, m.epsilon
    for i in range(len(sigma) - 2):
        if sigma[i] > 0 and epsilon[i] > 0:
            return True
    return False


def enumerate_standard_monomials(D: DivisorClass) -> tuple[CoxMonomial, ...]:
    """All standard monomials of degree exactly D, in canonical order.

    For a fixed exponent lam of l, the equations sum(sigma) = d - lam and
    sigma[i] - epsilon[i] = a[i] - lam pin sigma[i] = max(a[i] - lam, 0) for
    i <= n-2 (complementarity), leaving a single free interval for
    sigma[n-1].  Listing is by ascending lam, then ascending sigma[n-1].

    Each monomial is checked to avoid the initial ideal.  Its degree is not
    checked here but once, by oracle.verify_basis_independence, to which the
    sweep and the basis command pass the enumerated monomials.
    """
    n, d, a = D.n, D.d, D.a
    head, a_pen, a_last = a[: n - 2], a[n - 2], a[n - 1]
    found = []
    for lam in range(0, d + 1):
        sig_forced = tuple([ai - lam if ai > lam else 0 for ai in head])
        eps_forced = tuple([lam - ai if lam > ai else 0 for ai in head])
        rest = d - lam - sum(sig_forced)
        if rest < 0:
            continue
        # epsilon[i] = sigma[i] - a[i] + lam for the two free indices
        off_pen, off_last = lam - a_pen, lam - a_last
        lo = max(-off_pen, 0)
        hi = rest - max(-off_last, 0)
        for s_pen in range(lo, hi + 1):
            s_last = rest - s_pen
            m = CoxMonomial(lam, sig_forced + (s_pen, s_last), eps_forced + (s_pen + off_pen, s_last + off_last))
            if in_initial_ideal(m):
                raise ArithmeticError(f"enumerated {m} lies in the initial ideal")
            found.append(m)
    return tuple(found)


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


def enumerate_monomials(D: DivisorClass) -> list[CoxMonomial]:
    """All monomials of the free ring of degree exactly D (no initial-ideal cut)."""
    n, d, a = D.n, D.d, D.a
    out = []
    for lam in range(0, d + 1):
        lows = [max(ai - lam, 0) for ai in a]
        budget = d - lam - sum(lows)
        if budget < 0:
            continue
        for extra in _weak_compositions(budget, n):
            sigma = tuple(lo + x for lo, x in zip(lows, extra))
            eps = tuple(s - ai + lam for s, ai in zip(sigma, a))
            out.append(CoxMonomial(lam, sigma, eps))
    return out


def _weak_compositions(total: int, parts: int):
    """All non-negative integer vectors of given length summing to total, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest
