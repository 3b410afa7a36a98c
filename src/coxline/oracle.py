"""Interpolation oracle: explicit points, exact forms, and section-space ranks.

Coordinates are fixed once and for all: the base line Y is {y = 0}, the
blown-up points are p[i] = (t[i] : 0 : 1) for pairwise distinct rational
t[i], and q is a rational point off Y.  Sections of d*L - sum(a[i]*E[i])
are then degree-d plane forms with multiplicity >= a[i] at p[i], so every
dimension claim can be settled by the exact rank of a constraint matrix,
independently of any cone or counting formula.

The points and the lines through q are scaled once to primitive integer
coordinates.  Projective scaling multiplies each constraint row and each
realized form by a nonzero constant, which changes neither vanishing nor
rank, so the whole oracle computes over Z; only the printed forms are
divided back to lines with leading coefficient 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm

from . import coxmono, picard
from .picard import DivisorClass

Point3 = tuple[Fraction, Fraction, Fraction]
IntVec3 = tuple[int, int, int]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _point(p) -> Point3:
    p = tuple(_frac(x) for x in p)
    if len(p) != 3 or all(x == 0 for x in p):
        raise ValueError(f"not a projective point: {p}")
    return p


def _det3(p, q, r) -> Fraction:
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        - p[1] * (q[0] * r[2] - q[2] * r[0])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


def _cross(p, q) -> Point3:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _primitive(v) -> IntVec3:
    """A nonzero rational triple scaled to coprime integers, leading entry > 0."""
    den = lcm(*(_frac(x).denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(c // g for c in ints)


def _lead(v: IntVec3) -> int:
    return next(c for c in v if c)


@dataclass(frozen=True)
class PointConfig:
    """n points and an auxiliary point q fixing all section forms.

    points holds full projective coordinates.  t is kept when the standard
    collinear layout p[i] = (t[i] : 0 : 1) was used and is None otherwise;
    the structural identities of the library assume the collinear layout,
    and `explicit` exists so tests can probe what breaks without it.

    int_points and int_lines are the points and the lines through q and
    each point, scaled to primitive integer coordinates with a positive
    leading entry; the oracle computes with these alone.
    """

    points: tuple[Point3, ...]
    q: Point3
    t: tuple[Fraction, ...] | None = None
    int_points: tuple[IntVec3, ...] = field(init=False, repr=False, compare=False)
    int_lines: tuple[IntVec3, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(_point(p) for p in self.points))
        object.__setattr__(self, "q", _point(self.q))
        if self.t is not None:
            object.__setattr__(self, "t", tuple(_frac(x) for x in self.t))
        if self.n < 1:
            raise ValueError("need at least one point")
        if self.q[1] == 0:
            raise ValueError("q must not lie on the base line {y = 0}")
        q = _primitive(self.q)
        points = tuple(_primitive(p) for p in self.points)
        for i, p in enumerate(points, start=1):
            if all(c == 0 for c in _cross(q, p)):
                raise ValueError(f"q coincides with p{i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if _det3(q, points[i], points[j]) == 0:
                    raise ValueError(
                        f"p{i + 1}, p{j + 1} and q are collinear; "
                        "the lines through q would not separate the points"
                    )
        object.__setattr__(self, "int_points", points)
        object.__setattr__(self, "int_lines", tuple(_primitive(_cross(q, p)) for p in points))
        # every oracle cache is keyed by the config: hash its Fractions once,
        # not on every lookup
        object.__setattr__(self, "_hash", hash((self.points, self.q, self.t)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def collinear(cls, t, q=(0, 1, 0)) -> "PointConfig":
        """Points (t[i] : 0 : 1) on the base line, pairwise distinct."""
        t = tuple(_frac(x) for x in t)
        points = tuple((ti, Fraction(0), Fraction(1)) for ti in t)
        return cls(points, _point(q), t)

    @classmethod
    def default(cls, n: int) -> "PointConfig":
        """t[i] = i - 1 and q = (0 : 1 : 0)."""
        return cls.collinear(range(n))

    @classmethod
    def explicit(cls, points, q) -> "PointConfig":
        """Arbitrary point positions (points need not lie on the base line)."""
        return cls(tuple(_point(p) for p in points), _point(q), None)


def load_config(path) -> PointConfig:
    """Read a key-value config file: t (list of rationals), optional n and q.

    Values are comma- or whitespace-separated; rationals may be written
    "p/q".  Lines starting with '#' are comments.  q defaults to (0, 1, 0).
    """
    keys = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            keys[key.strip()] = value.strip()
    if "t" not in keys:
        raise ValueError(f"{path}: missing required key 't'")

    def rationals(key):
        try:
            return [Fraction(tok) for tok in keys[key].replace(",", " ").split()]
        except ZeroDivisionError:
            raise ValueError(f"{path}: {key} has a value with denominator 0") from None

    t = rationals("t")
    if "n" in keys and int(keys["n"]) != len(t):
        raise ValueError(f"{path}: n = {keys['n']} does not match {len(t)} values in t")
    q = (0, 1, 0)
    if "q" in keys:
        q = tuple(rationals("q"))
        if len(q) != 3:
            raise ValueError(f"{path}: q must have three coordinates")
    return PointConfig.collinear(t, q)


class HomogeneousForm:
    """Sparse homogeneous polynomial in the plane coordinates x, y, z.

    Stored as a map from exponent triples (summing to the degree) to nonzero
    rational coefficients.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean = {}
        for exps, c in coeffs.items():
            c = _frac(c)
            if c == 0:
                continue
            exps = (int(exps[0]), int(exps[1]), int(exps[2]))
            if min(exps) < 0 or sum(exps) != degree:
                raise ValueError(f"exponents {exps} do not match degree {degree}")
            clean[exps] = c
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def constant(cls, c) -> "HomogeneousForm":
        return cls(0, {(0, 0, 0): _frac(c)})

    @classmethod
    def linear(cls, cx, cy, cz) -> "HomogeneousForm":
        return cls(1, {(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return HomogeneousForm(self.degree, out)

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self + other.scale(-1)

    def scale(self, c) -> "HomogeneousForm":
        c = _frac(c)
        return HomogeneousForm(self.degree, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return HomogeneousForm(self.degree + other.degree, out)

    def __pow__(self, k: int) -> "HomogeneousForm":
        if k < 0:
            raise ValueError("negative power")
        out = HomogeneousForm.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, p) -> Fraction:
        p = _point(p)
        total = Fraction(0)
        for (i, j, k), c in self.coeffs.items():
            total += c * p[0] ** i * p[1] ** j * p[2] ** k
        return total

    def terms_sorted(self):
        """Terms in graded lex order with x > y > z, descending."""
        return sorted(self.coeffs.items(), key=lambda item: item[0], reverse=True)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        names = "xyz"
        parts = []
        for exps, c in self.terms_sorted():
            mono = "*".join(
                f"{names[k]}^{e}" if e > 1 else names[k] for k, e in enumerate(exps) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [{"exps": list(e), "coeff": str(c)} for e, c in self.terms_sorted()],
        }

    def __repr__(self) -> str:
        return f"HomogeneousForm({self})"


@lru_cache(maxsize=None)
def line_forms(cfg: PointConfig) -> tuple[HomogeneousForm, tuple[HomogeneousForm, ...]]:
    """The form of the base line Y and the lines through q and each p[i],
    each with its leading coefficient (x > y > z order) scaled to 1."""
    ly = HomogeneousForm.linear(0, 1, 0)
    lines = tuple(
        HomogeneousForm.linear(*(Fraction(c, _lead(line)) for c in line)) for line in cfg.int_lines
    )
    return ly, lines


@lru_cache(maxsize=None)
def monomials_of_degree(d: int) -> tuple[tuple[int, int, int], ...]:
    """Degree-d exponent triples in descending graded lex order, x > y > z."""
    triples = [
        (i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)
    ]
    return tuple(triples)


@lru_cache(maxsize=None)
def _column_index(d: int) -> dict:
    return {e: j for j, e in enumerate(monomials_of_degree(d))}


@lru_cache(maxsize=None)
def _point_rows(point, d: int, mult: int) -> tuple[dict, ...]:
    """Vanishing-to-order-mult conditions at one point, as sparse rows.

    One row per partial derivative of order mult - 1; for homogeneous forms
    these imply all lower-order vanishing, giving C(mult+1, 2) rows in total.
    """
    px, py, pz = point
    cols = monomials_of_degree(d)
    rows = []
    order = mult - 1
    for u in range(order, -1, -1):
        for v in range(order - u, -1, -1):
            w = order - u - v
            row = {}
            for j, (ex, ey, ez) in enumerate(cols):
                if ex < u or ey < v or ez < w:
                    continue
                val = (
                    perm(ex, u)
                    * perm(ey, v)
                    * perm(ez, w)
                    * px ** (ex - u)
                    * py ** (ey - v)
                    * pz ** (ez - w)
                )
                if val:
                    row[j] = val
            rows.append(row)
    return tuple(rows)


def constraint_rows(cfg: PointConfig, D: DivisorClass) -> list[dict]:
    """Sparse integer rows of the interpolation matrix for D, built from the
    integer points (multiplicities clamped at 0)."""
    if cfg.n != D.n:
        raise ValueError(f"config has {cfg.n} points but class has n = {D.n}")
    rows = []
    for p, ai in zip(cfg.int_points, D.a):
        if ai > 0:
            rows.extend(_point_rows(p, D.d, ai))
    return rows


@lru_cache(maxsize=None)
def h0_rank(cfg: PointConfig, D: DivisorClass) -> int:
    """Section-space dimension by interpolation: #coefficients minus rank.

    This is the ground-truth side of every dimension identity; it never
    consults the cone decompositions or the counting formulas.
    """
    if D.d < 0:
        return 0
    ncols = len(monomials_of_degree(D.d))  # C(d+2, 2)
    return ncols - _rank_of_sparse_rows(constraint_rows(cfg, D))


@lru_cache(maxsize=None)
def _line_product(cfg: PointConfig, sigma: tuple[int, ...]) -> dict:
    """Product of the integer lines int_lines[i]^sigma[i], as a map from
    exponent triples to nonzero ints."""
    for i in range(len(sigma) - 1, -1, -1):
        if sigma[i]:
            smaller = sigma[:i] + (sigma[i] - 1,) + sigma[i + 1 :]
            cx, cy, cz = cfg.int_lines[i]
            out = {}
            for (ex, ey, ez), v in _line_product(cfg, smaller).items():
                for e, c in (((ex + 1, ey, ez), cx), ((ex, ey + 1, ez), cy), ((ex, ey, ez + 1), cz)):
                    if c:
                        out[e] = out.get(e, 0) + c * v
            return {e: v for e, v in out.items() if v}
    return {(0, 0, 0): 1}


@lru_cache(maxsize=None)
def _realized_vector(cfg: PointConfig, lam: int, sigma: tuple[int, ...]) -> dict:
    """Column -> int coefficient of y^lam * prod(int_lines[i]^sigma[i]) in
    degree lam + sum(sigma), a nonzero multiple of the realized form of
    every monomial with this (lam, sigma)."""
    index = _column_index(lam + sum(sigma))
    return {index[ex, ey + lam, ez]: c for (ex, ey, ez), c in _line_product(cfg, sigma).items()}


@lru_cache(maxsize=None)
def _vanishes_at(cfg: PointConfig, j: int, mult: int, lam: int, sigma: tuple[int, ...]) -> bool:
    """Exact dot check of the realized vector of (lam, sigma) against the
    rows of order-mult vanishing at int_points[j].  The rows of a class are
    the union of these per-point rows, so the check is shared by every
    class with the same multiplicity at p[j]."""
    vec = _realized_vector(cfg, lam, sigma)
    rows = _point_rows(cfg.int_points[j], lam + sum(sigma), mult)
    return all(_sparse_dot(row, vec) == 0 for row in rows)


@lru_cache(maxsize=None)
def _independent_family(cfg: PointConfig, d: int, head: tuple[int, ...]) -> frozenset:
    """The (lam, sigma) of the standard monomials of (d; head, 0, 0) when
    their realized vectors are linearly independent, else the empty set.

    The rule is the vanishing-order one, not coxmono's enumeration: sigma[i]
    = max(head[i] - lam, 0), and the last two sigma split the rest freely.
    Every class (d; head, a, b) has its (lam, sigma) among these, and a
    subset of independent vectors is independent, so one exact rank here
    serves the whole family.
    """
    keys = []
    for lam in range(d + 1):
        forced = tuple(max(ai - lam, 0) for ai in head)
        rest = d - lam - sum(forced)
        keys.extend((lam, forced + (s, rest - s)) for s in range(rest + 1))
    vectors = [_realized_vector(cfg, lam, sigma) for lam, sigma in keys]
    return frozenset(keys) if _rank_of_sparse_rows(vectors) == len(vectors) else frozenset()


def realize_monomial(cfg: PointConfig, m: coxmono.CoxMonomial) -> HomogeneousForm:
    """Plane form of a monomial: ly^lam times the product of the li^sigma[i],
    with each line li scaled to leading coefficient 1.

    The e-exponents contribute no plane factor; they only shift the target
    multiplicities, so the result vanishes at p[i] to order >= lam + sigma[i].
    """
    if cfg.n != m.n:
        raise ValueError(f"config has {cfg.n} points but monomial has n = {m.n}")
    den = 1
    for line, s in zip(cfg.int_lines, m.sigma):
        den *= _lead(line) ** s
    lam = m.lam
    return HomogeneousForm(
        lam + sum(m.sigma),
        {(ex, ey + lam, ez): Fraction(c, den) for (ex, ey, ez), c in _line_product(cfg, m.sigma).items()},
    )


def verify_basis_independence(cfg: PointConfig, D: DivisorClass, mons) -> bool:
    """Check that mons, the standard monomials of degree D as enumerated by
    the caller, realize a section basis.

    True iff every monomial has degree D, every realized form satisfies the
    vanishing constraints, the forms are linearly independent, and their
    number equals the interpolation dimension h0_rank(cfg, D).  Enumeration
    does not check degrees, so this is the one degree check of enumerated
    monomials.  The forms are the integer products of the lines, times y^lam
    as an exponent shift.

    Each fact is computed once per config and shared across classes: the
    vector of each (lam, sigma), its vanishing at each point and
    multiplicity, and the rank of each family (d; a[1..n-2], *, *).  The
    forms are independent when their (lam, sigma) are distinct members of a
    family of full rank; otherwise their own rank is taken.
    """
    if not picard.is_effective(D):
        raise ValueError(f"basis verification needs an effective class, got {D}")
    if cfg.n != D.n:
        raise ValueError(f"config has {cfg.n} points but class has n = {D.n}")
    mults = [(j, aj) for j, aj in enumerate(D.a) if aj > 0]
    keys = []
    for m in mons:
        if not coxmono.has_degree(m, D):
            return False
        lam, sigma = m.lam, m.sigma
        if not all(_vanishes_at(cfg, j, aj, lam, sigma) for j, aj in mults):
            return False
        keys.append((lam, sigma))
    if len(keys) != h0_rank(cfg, D):
        return False
    if len(set(keys)) == len(keys) and _independent_family(cfg, D.d, D.a[:-2]).issuperset(keys):
        return True
    vectors = [_realized_vector(cfg, lam, sigma) for lam, sigma in keys]
    return _rank_of_sparse_rows(vectors) == len(vectors)


def _sparse_dot(u: dict, v: dict):
    if len(u) > len(v):
        u, v = v, u
    total = 0
    for j, c in u.items():
        w = v.get(j)
        if w is not None:
            total += c * w
    return total


def _rank_of_sparse_rows(rows) -> int:
    """Rank of sparse rows with int entries only, by fraction-free
    elimination: integer cross-multiplication with gcd reduction.  Pivoting
    is by leftmost column in input order, so the result is deterministic.
    """
    pivots: dict[int, dict] = {}
    rank = 0
    for r in rows:
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = r
                rank += 1
                break
            pc = piv[c]
            rc = r[c]
            nxt = {}
            for j, v in r.items():
                w = pc * v - rc * piv.get(j, 0)
                if w:
                    nxt[j] = w
            for j, v in piv.items():
                if j not in r:
                    w = -rc * v
                    if w:
                        nxt[j] = w
            g = 0
            for v in nxt.values():
                g = gcd(g, v)
            r = {j: v // g for j, v in nxt.items()} if g > 1 else nxt
    return rank
