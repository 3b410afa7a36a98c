"""Reference definitions for the tests, written from the definitions rather
than from the library's code paths: the degree of a monomial, membership in
the initial ideal, the monomials of the free ring in one degree, the
intersection form, the canonical and exceptional classes, and the classes
that the cone and stripping coordinates stand for.  No code of coxline
calls these; the tests check the library against them.
"""

from coxline.coxmono import CoxMonomial
from coxline.picard import DivisorClass


def degree_of(m: CoxMonomial) -> DivisorClass:
    """l has degree L - E[1] - ... - E[n], s[i] has L - E[i], e[i] has E[i]."""
    return DivisorClass(
        m.lam + sum(m.sigma),
        tuple(m.lam + s - e for s, e in zip(m.sigma, m.epsilon)),
    )


def in_initial_ideal(m: CoxMonomial) -> bool:
    """True iff some s[i]e[i] with i <= n-2 divides m: both exponents of
    some index i <= n-2 are positive."""
    return any(m.sigma[i] > 0 and m.epsilon[i] > 0 for i in range(m.n - 2))


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


def intersect(A: DivisorClass, B: DivisorClass) -> int:
    """Intersection number under L.L = 1, E[i].E[i] = -1, mixed products 0."""
    if A.n != B.n:
        raise ValueError(f"classes live in different lattices: n={A.n} vs n={B.n}")
    return A.d * B.d - sum(x * y for x, y in zip(A.a, B.a))


def canonical_class(n: int) -> DivisorClass:
    """K = -3L + E[1] + ... + E[n]; never effective on these surfaces."""
    return DivisorClass(-3, (-1,) * n)


def exceptional(n: int, i: int) -> DivisorClass:
    """The class E_i, i in 1..n."""
    if not 1 <= i <= n:
        raise ValueError(f"exceptional index {i} out of range 1..{n}")
    return DivisorClass(0, tuple(-1 if j == i - 1 else 0 for j in range(n)))


def effective_divisor(coords) -> DivisorClass:
    """The class m*(L - E[1] - ... - E[n]) + sum(c[i]*E[i]) of EffectiveCoords."""
    return DivisorClass(coords.m, tuple(coords.m - ci for ci in coords.c))


def nef_divisor(coords) -> DivisorClass:
    """The class b*L + sum(b_i[i]*(L - E[i])) of NefCoords."""
    return DivisorClass(coords.b + sum(coords.b_i), tuple(coords.b_i))


def fixed_divisor(fixed) -> DivisorClass:
    """The class l*(L - E[1] - ... - E[n]) + sum(e[i]*E[i]) that a FixedPart removed."""
    return DivisorClass(fixed.l, tuple(fixed.l - ei for ei in fixed.e))


def fixed_is_empty(fixed) -> bool:
    """True iff stripping removed nothing."""
    return fixed.l == 0 and not any(fixed.e)
