"""The defining trinomial relations and their Groebner-basis checks.

Since the lines through q and p[i] all pass through q, any three of them
satisfy a linear dependence.  Anchoring on the last two gives, for each
i <= n-2,

    g[i] = s[i]e[i] + a[i] * s[n-1]e[n-1] + b[i] * s[n]e[n],

a trinomial of multidegree L with nonzero rational coefficients.  Under
graded lex with the variable order s1 > ... > sn > e1 > ... > en > l the
leading monomials are the pairwise-coprime s[i]e[i], so the g[i] form a
Groebner basis of the ideal they generate (Buchberger's first criterion);
the checks here confirm that computationally rather than assuming it.

A monomial here is the tuple of its (variable, exponent) pairs with a
positive exponent, sorted by variable, where s1..sn are the variables
0..n-1, e1..en are n..2n-1 and l is 2n.  A term of an S-pair reduction
has at most four of them, so each step costs the same at every n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .coxmono import monomial_text
from .oracle import PointConfig, _lead
from .picard import DivisorClass


def _grlex_key(m):
    # total degree, then exponents from the largest variable down; -var ranks
    # a variable that only one monomial has above the other's next variable
    return (sum(x for _, x in m), tuple((-v, x) for v, x in m))


def _combine(m, k, op):
    """The monomial with exponents op(m's, k's), variable by variable: the
    product for operator.add, the quotient for operator.sub, the lcm for max."""
    out = dict(m)
    for v, x in k:
        out[v] = op(out.get(v, 0), x)
    return tuple(sorted((v, x) for v, x in out.items() if x))


def _se(n: int, i: int):
    """The monomial s[i]e[i]."""
    return ((i - 1, 1), (n + i - 1, 1))


def _degree_parts(m, n: int):
    """(d, lam, delta) with the degree of m equal to d*L - sum(a[i]*E[i]),
    a[i] = lam + delta.get(i, 0): delta holds the nonzero sigma[i] - epsilon[i]."""
    d = lam = 0
    delta = {}
    for v, x in m:
        if v == 2 * n:
            lam = x
            d += x
        elif v < n:
            d += x
            delta[v] = delta.get(v, 0) + x
        else:
            delta[v - n] = delta.get(v - n, 0) - x
    return d, lam, {i: x for i, x in delta.items() if x}


def _degree_class(parts, n: int) -> DivisorClass:
    d, lam, delta = parts
    return DivisorClass(d, tuple(lam + delta.get(i, 0) for i in range(n)))


def _same_degree(p, q, n: int) -> bool:
    if p[0] != q[0]:
        return False
    if p[1] == q[1]:
        return p[2] == q[2]
    # a different exponent of l shifts every a[i], so every index is read
    return all(p[1] + p[2].get(i, 0) == q[1] + q[2].get(i, 0) for i in range(n))


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
        n = self.n
        g = GradedPolynomial(
            n, {_se(n, self.i): 1, _se(n, n - 1): self.a_coeff, _se(n, n): self.b_coeff}
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
    """Element of the free ring on the 2n + 1 generators, supported in a
    single multidegree.

    terms maps a monomial, as its sorted (variable, exponent) pairs, to a
    nonzero rational coefficient; mixing degrees raises, so multihomogeneity
    is a construction invariant.
    """

    __slots__ = ("n", "terms", "_degree")

    def __init__(self, n: int, terms):
        clean = {}
        first = None
        for m, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            parts = _degree_parts(m, n)
            if first is None:
                first = parts
            elif not _same_degree(parts, first, n):
                raise ValueError(
                    f"terms of mixed multidegree: {_degree_class(parts, n)} vs {_degree_class(first, n)}"
                )
            clean[m] = c
        self.n = n
        self.terms = clean
        self._degree = first

    @property
    def degree(self) -> DivisorClass | None:
        """The multidegree; None for the zero polynomial."""
        return None if self._degree is None else _degree_class(self._degree, self.n)

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=_grlex_key)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedPolynomial) and self.terms == other.terms

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True):
            # m ascends by variable, so l, variable 2n, is last when present
            text = monomial_text(self.n, m[-1:] + m[:-1] if m and m[-1][0] == 2 * self.n else m)
            if c == 1:
                parts.append(text)
            elif c == -1:
                parts.append(f"-{text}")
            else:
                parts.append(f"({c})*{text}")
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
    own variables name the g[i] that can divide it: each s[i] of the term
    whose e[i] the term has too.
    """
    n = p.n
    # variable of s[i] -> (position in rels, g[i]), for the first relation of
    # each index in the order of rels
    gens = {}
    for pos, r in enumerate(rels):
        if r.n != n:
            raise ValueError("mixed number of points")
        gens.setdefault(r.i - 1, (pos, r.polynomial()))
    work = dict(p.terms)
    remainder = {}
    while work:
        m = max(work, key=_grlex_key)
        c = work.pop(m)
        own = dict(m)
        divisors = [gens[v] for v in own if v in gens and v + n in own]
        if not divisors:
            remainder[m] = c
            continue
        _, g = min(divisors, key=lambda entry: entry[0])
        lm = g.leading_monomial()
        quot = _combine(m, lm, operator.sub)
        # g is monic in its leading term, which cancels the popped one
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            key = _combine(quot, gm, operator.add)
            val = work.get(key, 0) - c * gc
            if val:
                work[key] = val
            else:
                work.pop(key, None)
    return GradedPolynomial(n, remainder)


def s_polynomial(f: GradedPolynomial, g: GradedPolynomial) -> GradedPolynomial:
    """(lcm / lt(f)) * f - (lcm / lt(g)) * g, lcm that of the leading monomials."""
    if f.n != g.n:
        raise ValueError("mixed number of points")
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = _combine(lmf, lmg, max)
    out = {}
    for p, lm, sign in ((f, lmf, 1), (g, lmg, -1)):
        shift, scale = _combine(lcm, lm, operator.sub), sign / p.terms[lm]
        for m, c in p.terms.items():
            key = _combine(m, shift, operator.add)
            out[key] = out.get(key, 0) + scale * c
    return GradedPolynomial(f.n, out)


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
