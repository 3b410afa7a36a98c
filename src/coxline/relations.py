"""The defining trinomial relations and their Groebner-basis checks.

Since the lines through q and p[i] all pass through q, any three of them
satisfy a linear dependence.  Anchoring on the last two gives, for each
i <= n-2,

    g[i] = s[i]e[i] + a[i] * s[n-1]e[n-1] + b[i] * s[n]e[n],

a trinomial of multidegree L with nonzero rational coefficients.  Under
graded lex with the variable order s1 > ... > sn > e1 > ... > en > l the
leading monomials are the pairwise-coprime s[i]e[i], so the g[i] form a
Groebner basis of the ideal they generate; the checks here confirm that
computationally rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coxmono import CoxMonomial, degree_of
from .oracle import PointConfig, _lead


def _grlex_key(m: CoxMonomial):
    # variable order s1 > ... > sn > e1 > ... > en > l
    return (m.total_degree(), m.sigma + m.epsilon + (m.lam,))


@dataclass(frozen=True)
class Relation:
    """g[i] = s[i]e[i] + a_coeff * s[n-1]e[n-1] + b_coeff * s[n]e[n].

    The trinomial is built once, with the relation; polynomial() returns
    that one GradedPolynomial, which every division by the relation uses.
    """

    n: int
    i: int
    a_coeff: Fraction
    b_coeff: Fraction
    _polynomial: GradedPolynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a_coeff", Fraction(self.a_coeff))
        object.__setattr__(self, "b_coeff", Fraction(self.b_coeff))
        if not 1 <= self.i <= self.n - 2:
            raise ValueError(f"relation index {self.i} out of range 1..{self.n - 2}")
        if self.a_coeff == 0 or self.b_coeff == 0:
            raise ValueError(
                "degenerate configuration: relation coefficients must be nonzero"
            )
        n, i = self.n, self.i
        g = GradedPolynomial(
            {
                CoxMonomial.gen_s(n, i) * CoxMonomial.gen_e(n, i): Fraction(1),
                CoxMonomial.gen_s(n, n - 1) * CoxMonomial.gen_e(n, n - 1): self.a_coeff,
                CoxMonomial.gen_s(n, n) * CoxMonomial.gen_e(n, n): self.b_coeff,
            }
        )
        object.__setattr__(self, "_polynomial", g)

    def polynomial(self) -> "GradedPolynomial":
        return self._polynomial

    def to_json(self) -> dict:
        return {"i": self.i, "a": str(self.a_coeff), "b": str(self.b_coeff)}

    def __str__(self) -> str:
        n = self.n
        return (
            f"g{self.i} = s{self.i}*e{self.i} + ({self.a_coeff})*s{n - 1}*e{n - 1}"
            f" + ({self.b_coeff})*s{n}*e{n}"
        )


class GradedPolynomial:
    """Element of the free ring supported in a single multidegree.

    terms maps CoxMonomial to nonzero rational coefficients; mixing degrees
    raises, so multihomogeneity is a construction invariant.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms):
        clean = {}
        degree = None
        for m, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            dm = degree_of(m)
            if degree is None:
                degree = dm
            elif dm != degree:
                raise ValueError(
                    f"terms of mixed multidegree: {dm} vs {degree}"
                )
            clean[m] = c
        self.terms = clean
        self.degree = degree  # None for the zero polynomial

    @classmethod
    def from_monomial(cls, m: CoxMonomial, c=1) -> "GradedPolynomial":
        return cls({m: c})

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> CoxMonomial | None:
        if not self.terms:
            return None
        return max(self.terms, key=_grlex_key)

    def leading_coeff(self) -> Fraction:
        lm = self.leading_monomial()
        return self.terms[lm] if lm is not None else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return GradedPolynomial(out)

    def times_monomial(self, mono: CoxMonomial, c=1) -> "GradedPolynomial":
        c = Fraction(c)
        return GradedPolynomial({m * mono: c * v for m, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if c == 1:
                parts.append(str(m))
            elif c == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"({c})*{m}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"GradedPolynomial({self})"


def _monic_line(line) -> tuple[Fraction, Fraction, Fraction]:
    """An integer line (cx, cy, cz) scaled to leading coefficient 1."""
    lead = _lead(line)
    return tuple(Fraction(c, lead) for c in line)


def derive_relations(cfg: PointConfig) -> list[Relation]:
    """Solve the three-line dependencies l[i] + a*l[n-1] + b*l[n] = 0.

    The lines are cfg.int_lines, each scaled to leading coefficient 1.
    Returns n - 2 relations, each with nonzero coefficients and each
    verified by verify_relation_geometrically, which raises ArithmeticError
    if a dependency fails to close.  For n = 2 the section ring is free and
    the list is empty.
    """
    n = cfg.n
    lines = [_monic_line(line) for line in cfg.int_lines]
    out = []
    for i in range(1, n - 1):
        a, b = _line_dependency(lines[i - 1], lines[n - 2], lines[n - 1])
        r = Relation(n, i, a, b)
        if not verify_relation_geometrically(cfg, r):
            raise ArithmeticError(f"dependency failed to close for i={i}: {r}")
        out.append(r)
    return out


def _line_dependency(u, v, w) -> tuple[Fraction, Fraction]:
    """Coefficients (a, b) with u + a*v + b*w = 0 for three lines through q,
    each given as its coefficient triple (cx, cy, cz), solved on the x and z
    entries: v x w is a multiple of q, so its y entry, this minor, is
    nonzero unless v and w are proportional, since q is off y = 0."""
    det = v[0] * w[2] - v[2] * w[0]
    if det == 0:
        raise ValueError("the two anchor lines are proportional; invalid configuration")
    return (u[2] * w[0] - u[0] * w[2]) / det, (v[2] * u[0] - v[0] * u[2]) / det


def normal_form(p: GradedPolynomial, rels) -> GradedPolynomial:
    """Remainder of p under division by the g[i] of rels.

    The largest remaining term (graded lex) is divided by the first g[i],
    in the order of rels, whose leading monomial divides it; a term that
    none divides goes to the remainder.  Each g[i] is the one polynomial
    its Relation holds, monic in its leading term s[i]e[i], so the term's
    own exponents name the g[i] that can divide it: the i <= n-2 with
    sigma[i] > 0 and epsilon[i] > 0.
    """
    # i - 1 -> (position in rels, g[i], its leading monomial), for the first
    # relation of each index in the order of rels
    gens = {}
    for pos, r in enumerate(rels):
        if r.i - 1 not in gens:
            g = r.polynomial()
            gens[r.i - 1] = (pos, g, g.leading_monomial())
    work = dict(p.terms)
    remainder = {}
    while work:
        m = max(work, key=_grlex_key)
        c = work.pop(m)
        sigma, eps = m.sigma, m.epsilon
        divisors = [gens[i] for i in range(len(sigma) - 2) if sigma[i] and eps[i] and i in gens]
        if not divisors:
            remainder[m] = c
            continue
        _, g, lm = min(divisors, key=lambda entry: entry[0])
        quot = m // lm
        # g is monic in its leading term, which cancels the popped one
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            key = quot * gm
            val = work.get(key, Fraction(0)) - c * gc
            if val:
                work[key] = val
            else:
                work.pop(key, None)
    return GradedPolynomial(remainder)


def s_polynomial(f: GradedPolynomial, g: GradedPolynomial) -> GradedPolynomial:
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = lmf.lcm(lmg)
    return f.times_monomial(lcm // lmf, 1 / f.leading_coeff()) - g.times_monomial(
        lcm // lmg, 1 / g.leading_coeff()
    )


def spoly_reduce(i: int, j: int, rels) -> GradedPolynomial:
    """Normal form of the S-polynomial of g[i], g[j]; zero certifies the basis."""
    if not 1 <= i < j <= len(rels):
        raise ValueError(f"need 1 <= i < j <= {len(rels)}, got ({i}, {j})")
    s = s_polynomial(rels[i - 1].polynomial(), rels[j - 1].polynomial())
    return normal_form(s, rels)


def verify_relation_geometrically(cfg: PointConfig, r: Relation) -> bool:
    """Check l[i] + a*l[n-1] + b*l[n] = 0 coefficientwise, on the lines
    cfg.int_lines scaled to leading coefficient 1."""
    if cfg.n != r.n:
        raise ValueError(f"config has {cfg.n} points but relation has n = {r.n}")
    u, v, w = (_monic_line(cfg.int_lines[k]) for k in (r.i - 1, r.n - 2, r.n - 1))
    return all(x + r.a_coeff * y + r.b_coeff * z == 0 for x, y, z in zip(u, v, w))
