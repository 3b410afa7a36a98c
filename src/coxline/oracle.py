"""Interpolation oracle: explicit points, exact forms, and section-space ranks.

Coordinates are fixed once and for all: the base line Y is {y = 0}, the
blown-up points are p[i] = (t[i] : 0 : 1) for pairwise distinct rational
t[i], and q is a rational point off Y.  Sections of d*L - sum(a[i]*E[i])
are then degree-d plane forms with multiplicity >= a[i] at p[i], so every
dimension claim can be settled by the exact rank of a constraint matrix,
independently of any cone or counting formula.

A configuration keeps only integer geometry: the points and the lines
through q and each point, scaled once to primitive integer coordinates,
and for each point the generator lines through it.  Projective scaling
multiplies each constraint row and each realized form by a nonzero
constant, which changes neither vanishing nor rank, so the whole oracle
computes over Z.  Fractions appear only where a config file is parsed and
where a coefficient is printed: a realized form is its integer terms over
one positive denominator, the product of the lines' leading coefficients,
and each printed coefficient is that quotient in lowest terms, so every
line reads with leading coefficient 1.  Products of lines are built one
level run at a time (_run_products); nothing is stored beyond h0_rank's
cache.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm

from . import coxmono, picard
from .picard import DivisorClass

IntVec3 = tuple[int, int, int]


def _cross(p, q) -> IntVec3:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _primitive(v) -> IntVec3:
    """A projective point or line scaled to coprime integers, leading entry
    > 0: the one such representative.  A coordinate that is not an int or a
    Fraction is converted by Fraction; a triple of zeros, or anything but a
    triple, is a ValueError."""
    v = tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v)
    if len(v) != 3 or not any(v):
        raise ValueError(f"not a projective point: ({', '.join(map(str, v))})")
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(c // g for c in ints)


def _lead(v: IntVec3) -> int:
    return next(c for c in v if c)


@dataclass(frozen=True)
class PointConfig:
    """n points and an auxiliary point q fixing all section forms, kept as
    integer geometry only.

    points and q are constructor inputs, not fields: any nonzero triples of
    ints, Fractions or values that Fraction accepts.  The library assumes
    the collinear layout p[i] = (t[i] : 0 : 1); `explicit` exists so tests
    can probe what breaks without it.

    int_points and int_lines are the points and the lines through q and
    each point as primitive integer triples with a positive leading entry,
    one per projective point or line; every check and computation uses
    them alone, and n is len(int_points).  Equality, hash and repr are
    theirs (they fix q, the meet of the lines), so projectively equal
    configs are equal.

    incidence[j] lists, in ascending order, the generators whose line
    passes through int_points[j], by exact integer dot products: 0 is the
    base line y = 0 and i >= 1 is l[i] = int_lines[i - 1].  Multiplicity is
    additive over the factors of a product of plane forms, so y^lam *
    prod(l[i]^sigma[i]) vanishes at p[j] to order exactly the sum of the
    exponents of the generators in incidence[j].  That is at most two
    exponents: l[j] passes through p[j], and a second line l[i] through it
    would make q, p[i] and p[j] collinear, which the constructor rejects,
    so only y = 0 can join l[j].

    A config is an immutable value: the oracle stores nothing on it, and
    only h0_rank caches by config value.  Realized forms are built run by
    run when they are asked for (realize_run), and their independence is
    proved, not stored: it rests on one exact check of int_lines
    (_level_blocks_independent).
    """

    points: InitVar[tuple]
    q: InitVar[tuple]
    int_points: tuple[IntVec3, ...] = field(init=False)
    int_lines: tuple[IntVec3, ...] = field(init=False)
    incidence: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, points, q):
        points = tuple(_primitive(p) for p in points)
        q = _primitive(q)
        if len(points) < 2:
            raise ValueError(picard.TOO_FEW_POINTS)
        if q[1] == 0:
            raise ValueError("q must not lie on the base line {y = 0}")
        for i, p in enumerate(points, start=1):
            if p == q:
                raise ValueError(f"q coincides with p{i}")
        lines = tuple(_primitive(_cross(q, p)) for p in points)
        # p[i], p[j] and q are collinear, or p[i] = p[j], exactly when their
        # lines through q are equal: the lowest group's first two are the
        # first such pair (i, j)
        groups = {}
        for i, line in enumerate(lines, start=1):
            groups.setdefault(line, []).append(i)
        if len(groups) < len(points):
            i, j = next(g for g in groups.values() if len(g) > 1)[:2]
            if points[i - 1] == points[j - 1]:
                raise ValueError(f"p{i} and p{j} coincide")
            raise ValueError(
                f"p{i}, p{j} and q are collinear; "
                "the lines through q would not separate the points"
            )
        object.__setattr__(self, "int_points", points)
        object.__setattr__(self, "int_lines", lines)
        generators = tuple(enumerate(((0, 1, 0), *lines)))
        incidence = tuple(
            tuple([g for g, (lx, ly, lz) in generators if not lx * px + ly * py + lz * pz])
            for px, py, pz in points
        )
        object.__setattr__(self, "incidence", incidence)

    @property
    def n(self) -> int:
        return len(self.int_points)

    @classmethod
    def collinear(cls, t, q=(0, 1, 0)) -> "PointConfig":
        """Points (t[i] : 0 : 1) on the base line, pairwise distinct."""
        return cls(tuple((x, 0, 1) for x in t), q)

    @classmethod
    def default(cls, n: int) -> "PointConfig":
        """t[i] = i - 1 and q = (0 : 1 : 0)."""
        return cls.collinear(range(n))

    @classmethod
    def explicit(cls, points, q) -> "PointConfig":
        """Arbitrary point positions (points need not lie on the base line)."""
        return cls(points, q)


def load_config(path) -> PointConfig:
    """Read a key-value config file: t (list of rationals), optional n and q.

    Values are comma- or whitespace-separated; rationals may be written
    "p/q".  Lines starting with '#' are comments.  q defaults to (0, 1, 0),
    and three zeros are an error.  A key other than n, t and q, or one given
    twice, is an error.
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
            key = key.strip()
            if key not in ("n", "t", "q"):
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; the keys are n, t and q")
            if key in keys:
                raise ValueError(f"{path}:{lineno}: key {key!r} is given twice")
            keys[key] = value.strip()
    if "t" not in keys:
        raise ValueError(f"{path}: missing required key 't'")

    def rationals(key):
        values = []
        for tok in keys[key].replace(",", " ").split():
            try:
                values.append(Fraction(tok))
            except ZeroDivisionError:
                raise ValueError(f"{path}: {key} has a value with denominator 0") from None
            except ValueError:
                raise ValueError(f"{path}: {key} has {tok!r}, which is not a rational number") from None
        return values

    t = rationals("t")
    if "n" in keys:
        try:
            n = int(keys["n"])
        except ValueError:
            raise ValueError(f"{path}: n = {keys['n']!r} is not an integer") from None
        if n != len(t):
            raise ValueError(f"{path}: n = {keys['n']} does not match {len(t)} values in t")
    q = (0, 1, 0)
    if "q" in keys:
        q = tuple(rationals("q"))
        if len(q) != 3:
            raise ValueError(f"{path}: q must have three coordinates")
        if not any(q):
            raise ValueError(f"{path}: q = {keys['q']!r} is not a projective point: all three coordinates are 0")
    return PointConfig.collinear(t, q)


class HomogeneousForm:
    """A realized form as it is printed: coeffs maps exponent triples in x,
    y, z (summing to degree) to nonzero ints, and the form is their sum over
    den > 0.  Nothing computes with it.  str and to_json list the terms in
    descending graded lex order, x > y > z, from one sort, and print each
    coefficient c as c / den in lowest terms, the text of Fraction(c, den).
    """

    __slots__ = ("degree", "coeffs", "den", "_terms")

    def __init__(self, degree: int, coeffs: dict, den: int):
        self.degree = degree
        self.coeffs = coeffs
        self.den = den
        self._terms = None

    def terms(self) -> list:
        """(exponents, coefficient text) in descending order, made once."""
        if self._terms is None:
            den = self.den
            terms = []
            for e, c in sorted(self.coeffs.items(), reverse=True):
                g = gcd(c, den)
                terms.append((e, str(c // g) if g == den else f"{c // g}/{den // g}"))
            self._terms = terms
        return self._terms

    def __str__(self) -> str:
        names = _monomial_names(self.degree)
        parts = []
        for e, c in self.terms():
            mono = names[e]
            if not mono:
                parts.append(c)
            elif c == "1":
                parts.append(mono)
            elif c == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {"degree": self.degree, "terms": [{"exps": list(e), "coeff": c} for e, c in self.terms()]}


@lru_cache(maxsize=None)
def monomials_of_degree(d: int) -> tuple[tuple[int, int, int], ...]:
    """Degree-d exponent triples in descending graded lex order, x > y > z."""
    triples = [
        (i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)
    ]
    return tuple(triples)


@lru_cache(maxsize=None)
def _monomial_names(d: int) -> dict:
    """Degree-d exponent triple -> its printed monomial, such as x^2*z."""
    return {e: "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip("xyz", e) if k) for e in monomials_of_degree(d)}


@lru_cache(maxsize=None)
def _column_index(d: int) -> dict:
    return {e: j for j, e in enumerate(monomials_of_degree(d))}


@lru_cache(maxsize=None)
def _point_rows(point, d: int, mult: int) -> tuple[dict, ...]:
    """Vanishing-to-order-mult conditions at one point, as sparse rows.

    One row per partial derivative of order mult - 1; for homogeneous forms
    these imply all lower-order vanishing, giving C(mult+1, 2) rows in total.
    The entry of the derivative (u, v, w) at the column (ex, ey, ez) is
    perm(ex, u) * perm(ey, v) * perm(ez, w) * px^(ex-u) * py^(ey-v) * pz^(ez-w).
    Where a coordinate of the point is zero, that factor is 0^k with k > 0
    unless its exponent equals the derivative order, so only those columns
    are built: at most d + 1 entries per row at a point with a zero
    coordinate, such as every point on y = 0, where a scan of all
    C(d+2, 2) columns would find no other nonzero entry.
    """
    px, py, pz = point
    index = _column_index(d)
    order = mult - 1
    r = d - order
    # the shifts (ex-u, ey-v, ez-w) of the nonzero entries, the same in every
    # row: they sum to r and are 0 where the point's coordinate is 0
    shifts = []
    if r >= 0:
        for i in range(r, -1, -1) if px else (0,):
            for j in range(r - i, -1, -1) if py else (0,):
                k = r - i - j
                if pz or k == 0:
                    shifts.append((i, j, k, px**i * py**j * pz**k))
    rows = []
    for u in range(order, -1, -1):
        for v in range(order - u, -1, -1):
            w = order - u - v
            rows.append(
                {
                    index[u + i, v + j, w + k]: perm(u + i, u) * perm(v + j, v) * perm(w + k, w) * power
                    for i, j, k, power in shifts
                }
            )
    return tuple(rows)


def _check_n(cfg: PointConfig, D: DivisorClass) -> None:
    if cfg.n != D.n:
        raise ValueError(f"config has {cfg.n} points but class has n = {D.n}")


def constraint_rows(cfg: PointConfig, D: DivisorClass) -> list[dict]:
    """Sparse integer rows of the interpolation matrix for D, built from the
    integer points, with multiplicities clamped to 0..d+1.

    Vanishing to order d + 1 already forces a degree-d form to zero: its
    rows are the coefficients times u!v!w!.  A higher multiplicity would ask
    for derivatives of order above d, which are empty rows, and would put no
    condition at the point at all.
    """
    _check_n(cfg, D)
    rows = []
    for p, ai in zip(cfg.int_points, D.a):
        if ai > 0:
            rows.extend(_point_rows(p, D.d, min(ai, D.d + 1)))
    return rows


@lru_cache(maxsize=None)
def h0_rank(cfg: PointConfig, D: DivisorClass) -> int:
    """Section-space dimension by interpolation: #coefficients minus rank.

    This is the ground-truth side of every dimension identity; it never
    consults the cone decompositions or the counting formulas.
    """
    _check_n(cfg, D)
    if D.d < 0:
        return 0
    ncols = len(monomials_of_degree(D.d))  # C(d+2, 2)
    return ncols - _rank_of_sparse_rows(constraint_rows(cfg, D))


def _times_line(form: dict, line: IntVec3) -> dict:
    """form * line, for a form held as a map from exponent triples to
    nonzero ints."""
    cx, cy, cz = line
    out = {}
    for (ex, ey, ez), v in form.items():
        for e, c in (((ex + 1, ey, ez), cx), ((ex, ey + 1, ez), cy), ((ex, ey, ez + 1), cz)):
            if c:
                out[e] = out.get(e, 0) + c * v
    return {e: v for e, v in out.items() if v}


def _over_line(form: dict, line: IntVec3) -> dict:
    """The exact quotient form / line, by long division in the variable k of
    line's first nonzero coefficient c: the terms are taken by descending
    exponent of that variable, each one's share of line * (term / (c * x_k))
    is subtracted, and what is left at exponent 0 is the remainder.  line is
    primitive, so by Gauss's lemma an exact quotient over Q has integer
    coefficients; a remainder, or a coefficient that c does not divide, is
    an ArithmeticError."""
    k = next(i for i, c in enumerate(line) if c)
    lead = line[k]
    # one unit of exponent moved from variable k to variable i, and line's
    # coefficient there
    moves = [(tuple([(j == i) - (j == k) for j in range(3)]), c) for i, c in enumerate(line) if c and i != k]
    levels = [{} for _ in range(1 + max(e[k] for e in form))]
    for e, v in form.items():
        levels[e[k]][e] = v
    quotient = {}
    for t in range(len(levels) - 1, 0, -1):
        below = levels[t - 1]
        for e, v in levels[t].items():
            q, r = divmod(v, lead)
            if r:
                raise ArithmeticError(f"{line} does not divide a product of lines: remainder {r} at {e}")
            if q:
                quotient[e[:k] + (e[k] - 1,) + e[k + 1 :]] = q
                for (mx, my, mz), c in moves:
                    g = (e[0] + mx, e[1] + my, e[2] + mz)
                    below[g] = below.get(g, 0) - c * q
    left = {e: v for e, v in levels[0].items() if v}
    if left:
        raise ArithmeticError(f"{line} does not divide a product of lines: remainder {left}")
    return quotient


def _run_products(cfg: PointConfig, head: tuple[int, ...], rest: int, lo: int, hi: int):
    """The integer products H * u^s * v^(rest - s) for s = lo..hi, in that
    order, as maps from exponent triples to nonzero ints: H is the product
    of int_lines[i]^head[i] and u, v are the last two lines.  The product
    at s = lo is multiplied out one line at a time, and each next one is the
    last times u, divided exactly by v (_over_line): one multiplication and
    one division per s, with no product kept beyond the next step."""
    *head_lines, u, v = cfg.int_lines
    product = {(0, 0, 0): 1}
    for line, k in (*zip(head_lines, head), (u, lo), (v, rest - lo)):
        for _ in range(k):
            product = _times_line(product, line)
    yield product
    for _ in range(lo, hi):
        product = _over_line(_times_line(product, u), v)
        yield product


def _level_blocks_independent(cfg: PointConfig) -> bool:
    """The hypothesis of the level-block theorem of _runs_certified, checked
    exactly on the integer lines: no line through q vanishes on y = 0 (cx or
    cz is nonzero), and the anchors l[n-1], l[n] are not proportional there
    (ux*vz - uz*vx != 0).  For a valid config both always hold, since q is
    off y = 0 and the lines through q and p[n-1], p[n] are distinct."""
    (ux, _, uz), (vx, _, vz) = cfg.int_lines[-2:]
    return all(cx or cz for cx, _, cz in cfg.int_lines) and ux * vz - uz * vx != 0


def _runs_certified(cfg: PointConfig, runs) -> bool:
    """Whether the realized vectors of the monomials of runs, which have
    passed the degree check of basis_failure, are proved independent by
    their level blocks.

    A vector of level lam is y^lam times a product of lines, so sorted by
    lam the vectors form a block-triangular matrix whose diagonal block at
    lam holds their terms in exactly y^lam.  No run's head may lie in the
    initial ideal: with the degree, sigma[i] - epsilon[i] = a[i] - lam, that
    pins the head to sigma[i] = max(a[i] - lam, 0) for i <= n-2, and so the
    rest r = d - lam - sum(head), the same for every run of that lam.  The
    diagonal row of (lam, head + (s, r - s)) is then B * u^s * v^(r-s),
    where B is the product of the head's lines at y = 0 and u, v are the
    anchor lines l[n-1], l[n] at y = 0.  Runs of one lam must come in
    ascending, disjoint intervals, so their s are distinct.  When B != 0
    and u, v are not proportional, the u^s * v^(r-s) are independent binary
    forms and multiplying by B keeps them so (_level_blocks_independent
    checks that exactly): every diagonal block has full rank, and so has
    the whole matrix.
    """
    if not _level_blocks_independent(cfg):
        return False
    top = {}  # lam -> the largest s listed so far at that level
    for lam, head, eps, _, lo, hi, _, _ in runs:
        if coxmono.head_in_initial_ideal(head, eps) or lo <= top.get(lam, -1):
            return False
        top[lam] = hi
    return True


def realize_run(cfg: PointConfig, run: coxmono.StandardRun):
    """The realized forms of the monomials of a level run, s = lo..hi in
    that order: y^lam times the product of the lines l[i]^sigma[i], with
    each line scaled to leading coefficient 1.  Each form is its integer
    product from _run_products, exponents shifted by lam, over the
    denominator prod(lead[i]^sigma[i]), lead[i] the leading coefficient of
    int_lines[i]; the quotient is taken only when it is printed.

    The e-exponents contribute no plane factor; they only shift the target
    multiplicities, so a form vanishes at p[i] to order >= lam + sigma[i].
    """
    lam, head, _, rest, lo, hi, _, _ = run
    *head_lines, u, v = cfg.int_lines
    head_den = 1
    for line, k in zip(head_lines, head):
        head_den *= _lead(line) ** k
    for s, product in zip(range(lo, hi + 1), _run_products(cfg, head, rest, lo, hi)):
        if lam:
            product = {(ex, ey + lam, ez): c for (ex, ey, ez), c in product.items()}
        yield HomogeneousForm(lam + sum(head) + rest, product, head_den * _lead(u) ** s * _lead(v) ** (rest - s))


def realize_monomial(cfg: PointConfig, m: coxmono.CoxMonomial) -> HomogeneousForm:
    """Plane form of a monomial: its run of length one, realized."""
    if cfg.n != m.n:
        raise ValueError(f"config has {cfg.n} points but monomial has n = {m.n}")
    return next(realize_run(cfg, coxmono.StandardRun.of(m)))


def verify_basis_independence(cfg: PointConfig, D: DivisorClass, mons) -> bool:
    """Check that mons, the standard monomials of degree D as enumerated by
    the caller, realize a section basis: basis_failure finds no failed
    sub-check."""
    return basis_failure(cfg, D, mons) is None


def basis_failure(cfg: PointConfig, D: DivisorClass, mons) -> str | None:
    """The first sub-check in which mons fail to realize a section basis of
    D, or None when they pass them all: "degree", "vanishing at p<j>",
    "count <k> != h0_rank <h>" or "rank".

    mons is what enumerate_standard_monomials returns, whose level runs are
    checked as they are, or any iterable of CoxMonomials, each taken as a
    run of length one (coxmono.StandardRun).  Every monomial must have
    degree D, with non-negative exponents; every realized form must satisfy
    the vanishing constraints; their number must equal the interpolation
    dimension h0_rank(cfg, D); and the forms must be linearly independent.
    Enumeration does not check degrees, so this is the one degree check of
    enumerated monomials.  The forms are y^lam times the integer products
    of the lines, which are built only for the fallback rank below.

    Each check is made once per run.  The degree is the same at every s of
    a run, and each exponent is monotone in s, so one degree check and the
    two ends cover the run.  Vanishing: multiplicity is additive over the
    factors of a product (Fulton, Algebraic Curves, ch. 3 section 1), so
    the form of (lam, sigma) vanishes at p[j] to order exactly the sum of
    the exponents of the generators through p[j], incidence[j] (see
    PointConfig), and it passes there when that order reaches a[j].  A
    valid config has at most two generators through a point, so the order
    is a sum of at most two exponents; a config with more is an
    ArithmeticError.  Along a run only sigma[n-1] = s and sigma[n] =
    rest - s move, so the order is affine in s, found in O(1) per point,
    and reaches a[j] on all of lo..hi when it does at both ends.
    Only a run with a failing end is walked, s = lo..hi and then j, to name
    the first failure; no line product is built.  Independence is proved,
    not computed: when every run's head is forced and the runs of each
    level are disjoint, the y^lam parts of the forms of a level are one
    nonzero binary form times distinct u^s * v^(r-s), u and v the two
    anchor lines at y = 0, and those are independent when the anchors' 2x2
    determinant is nonzero, which _level_blocks_independent checks exactly
    (_runs_certified).  When the runs do not fit that proof, their own
    exact rank is taken, over their products built run by run
    (_run_products).
    """
    if not picard.is_effective(D):
        raise ValueError(f"basis verification needs an effective class, got {D}")
    _check_n(cfg, D)
    runs = mons.runs if isinstance(mons, coxmono.StandardMonomials) else [coxmono.StandardRun.of(m) for m in mons]
    n, d, a = D.n, D.d, D.a
    k, head_a, a_pen, a_last = n - 2, a[:-2], a[-2], a[-1]
    # per point p[j] with a[j] > 0: the order there of the form of
    # (lam, head + (s, rest - s)) is exps[i] + exps[i2] + s * w, where
    # exps = (lam, *head, rest, 0) and i, i2 are the places of the
    # generators through p[j] other than l[n-1]: y at 0, the head's lines at
    # their own index and l[n] at rest, with the 0 at n filling a missing
    # one.  w counts l[n-1] (s) once and l[n] (rest - s) minus once.
    needs = []
    for j, aj in enumerate(a):
        if aj > 0:
            on = cfg.incidence[j]
            places = [min(g, n - 1) for g in on if g != n - 1]
            if len(places) > 2:
                raise ArithmeticError(f"{len(on)} generators pass through p{j + 1}; a valid config has at most two")
            i, i2 = (*places, n, n)[:2]
            needs.append((j, aj, i, i2, (n - 1 in on) - (n in on)))
    count = 0
    for lam, head, eps, rest, lo, hi, off_pen, off_last in runs:
        # zip would truncate, so the lengths are compared first; every
        # exponent is monotone in s, so non-negative at both ends
        if (
            len(head) != k
            or len(eps) != k
            or lam + sum(head) + rest != d
            or lam - off_pen != a_pen
            or lam - off_last != a_last
            or lam < 0
            or not 0 <= lo <= hi <= rest
            or lo + off_pen < 0
            or rest - hi + off_last < 0
        ):
            return "degree"
        for h, e, ai in zip(head, eps, head_a):
            if h < 0 or e < 0 or e != lam + h - ai:
                return "degree"
        exps = (lam, *head, rest, 0)
        for _, aj, i, i2, w in needs:
            order = exps[i] + exps[i2]
            if order + lo * w < aj or order + hi * w < aj:
                first = next(
                    j for s in range(lo, hi + 1) for j, aj, i, i2, w in needs if exps[i] + exps[i2] + s * w < aj
                )
                return f"vanishing at p{first + 1}"
        count += hi - lo + 1
    h = h0_rank(cfg, D)
    if count != h:
        return f"count {count} != h0_rank {h}"
    if _runs_certified(cfg, runs):
        return None
    index = _column_index(d)
    vectors = [
        {index[ex, ey + lam, ez]: c for (ex, ey, ez), c in product.items()}
        for lam, head, _, rest, lo, hi, _, _ in runs
        for product in _run_products(cfg, head, rest, lo, hi)
    ]
    return None if _rank_of_sparse_rows(vectors) == len(vectors) else "rank"


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
