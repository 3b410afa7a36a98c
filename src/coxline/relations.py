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

from dataclasses import dataclass
from fractions import Fraction

from .coxmono import CoxMonomial, degree_of, in_initial_ideal
from .oracle import PointConfig, line_forms


def _grlex_key(m: CoxMonomial):
    # variable order s1 > ... > sn > e1 > ... > en > l
    return (m.total_degree(), m.sigma + m.epsilon + (m.lam,))


@dataclass(frozen=True)
class Relation:
    """g[i] = s[i]e[i] + a_coeff * s[n-1]e[n-1] + b_coeff * s[n]e[n]."""

    n: int
    i: int
    a_coeff: Fraction
    b_coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a_coeff", Fraction(self.a_coeff))
        object.__setattr__(self, "b_coeff", Fraction(self.b_coeff))
        if not 1 <= self.i <= self.n - 2:
            raise ValueError(f"relation index {self.i} out of range 1..{self.n - 2}")
        if self.a_coeff == 0 or self.b_coeff == 0:
            raise ValueError(
                "degenerate configuration: relation coefficients must be nonzero"
            )

    def polynomial(self) -> "GradedPolynomial":
        n, i = self.n, self.i
        return GradedPolynomial(
            {
                CoxMonomial.gen_s(n, i) * CoxMonomial.gen_e(n, i): Fraction(1),
                CoxMonomial.gen_s(n, n - 1) * CoxMonomial.gen_e(n, n - 1): self.a_coeff,
                CoxMonomial.gen_s(n, n) * CoxMonomial.gen_e(n, n): self.b_coeff,
            }
        )

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

    @classmethod
    def zero(cls) -> "GradedPolynomial":
        return cls({})

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

    def scaled(self, c) -> "GradedPolynomial":
        c = Fraction(c)
        return GradedPolynomial({m: c * v for m, v in self.terms.items()})

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


@dataclass(frozen=True)
class ReductionStep:
    """One division step: subtracted coeff * multiplier * g[divisor_index]."""

    divisor_index: int
    multiplier: CoxMonomial
    coeff: Fraction

    def to_json(self) -> dict:
        return {
            "divisor": self.divisor_index,
            "multiplier": self.multiplier.to_json(),
            "coeff": str(self.coeff),
        }


def derive_relations(cfg: PointConfig) -> list[Relation]:
    """Solve the three-line dependencies l[i] + a*l[n-1] + b*l[n] = 0.

    Returns n - 2 relations, each verified to hold identically as plane
    forms and to have nonzero coefficients.  For n = 2 the section ring is
    free and the list is empty.
    """
    n = cfg.n
    if n < 2:
        raise ValueError("unsupported: need at least two points")
    if n == 2:
        return []
    _, lines = line_forms(cfg)
    out = []
    for i in range(1, n - 1):
        a, b = _line_dependency(lines[i - 1], lines[n - 2], lines[n - 1])
        residual = lines[i - 1] + lines[n - 2].scale(a) + lines[n - 1].scale(b)
        if not residual.is_zero():
            raise ArithmeticError(f"dependency failed to close for i={i}: {residual}")
        out.append(Relation(n, i, a, b))
    return out


def _line_dependency(u, v, w) -> tuple[Fraction, Fraction]:
    """Coefficients (a, b) with u + a*v + b*w = 0 for three concurrent lines."""
    uc = [u.coeffs.get(e, Fraction(0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    vc = [v.coeffs.get(e, Fraction(0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    wc = [w.coeffs.get(e, Fraction(0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            det = vc[r1] * wc[r2] - vc[r2] * wc[r1]
            if det == 0:
                continue
            a = (-uc[r1] * wc[r2] + uc[r2] * wc[r1]) / det
            b = (-vc[r1] * uc[r2] + vc[r2] * uc[r1]) / det
            return a, b
    raise ValueError("the two anchor lines are proportional; invalid configuration")


def normal_form(p: GradedPolynomial, rels) -> GradedPolynomial:
    """Remainder of p under division by the g[i], ascending index order."""
    nf, _ = reduce_with_trace(p, rels)
    return nf


def reduce_with_trace(
    p: GradedPolynomial, rels
) -> tuple[GradedPolynomial, tuple[ReductionStep, ...]]:
    """Division with the full step log (divisor index, multiplier, coeff)."""
    gens = [(r.i, r.polynomial()) for r in rels]
    lms = [g.leading_monomial() for _, g in gens]
    work = dict(p.terms)
    remainder = {}
    steps = []
    while work:
        m = max(work, key=_grlex_key)
        c = work.pop(m)
        for (idx, g), lm in zip(gens, lms):
            if lm.divides(m):
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
                steps.append(ReductionStep(idx, quot, c))
                break
        else:
            remainder[m] = c
    return GradedPolynomial(remainder), tuple(steps)


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
    """Check l[i] + a*l[n-1] + b*l[n] = 0 coefficientwise as plane forms."""
    if cfg.n != r.n:
        raise ValueError(f"config has {cfg.n} points but relation has n = {r.n}")
    _, lines = line_forms(cfg)
    residual = (
        lines[r.i - 1]
        + lines[r.n - 2].scale(r.a_coeff)
        + lines[r.n - 1].scale(r.b_coeff)
    )
    return residual.is_zero()


def is_standard_support(p: GradedPolynomial) -> bool:
    """True iff no term of p lies in the initial ideal."""
    return all(not in_initial_ideal(m) for m in p.terms)
