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
from operator import mul

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


class _Facts:
    """What the oracle has worked out about one configuration object: one
    plain dict per kind of fact, named after the function that computes it
    (see _stored) and keyed by that function's arguments after cfg.  Both
    kinds serve realize_monomial and the fallback rank; vanishing is read
    off cfg.incidence and independence is proved by _runs_certified, so
    neither needs a stored fact."""

    __slots__ = ("line_product", "realized_vector")

    def __init__(self):
        for kind in self.__slots__:
            setattr(self, kind, {})


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

    incidence holds 0/1 bits from exact integer dot products: row 0 is the
    base line y = 0 and row i + 1 is int_lines[i]; column j is int_points[j],
    and a bit is 1 when that line passes through that point.  Multiplicity
    is additive over the factors of a product of plane forms, so y^lam *
    prod(l[i]^sigma[i]) vanishes at p[j] to order exactly
    lam * incidence[0][j] + sum(sigma[i] * incidence[i + 1][j]).

    Each config object has its own store of the facts the oracle works out
    about it (line products and realized vectors), so an equal config built
    afresh starts with an empty one.  Only h0_rank caches by config value.
    The independence of the realized forms is proved, not stored: it rests
    on one exact check of int_lines (_level_blocks_independent).
    """

    points: tuple[Point3, ...]
    q: Point3
    t: tuple[Fraction, ...] | None = None
    int_points: tuple[IntVec3, ...] = field(init=False, repr=False, compare=False)
    int_lines: tuple[IntVec3, ...] = field(init=False, repr=False, compare=False)
    incidence: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _facts: _Facts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(_point(p) for p in self.points))
        object.__setattr__(self, "q", _point(self.q))
        if self.t is not None:
            object.__setattr__(self, "t", tuple(_frac(x) for x in self.t))
        if self.n < 2:
            raise ValueError(picard.TOO_FEW_POINTS)
        if self.q[1] == 0:
            raise ValueError("q must not lie on the base line {y = 0}")
        q = _primitive(self.q)
        points = tuple(_primitive(p) for p in self.points)
        for i, p in enumerate(points, start=1):
            if all(c == 0 for c in _cross(q, p)):
                raise ValueError(f"q coincides with p{i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                # primitive coordinates with a positive leading entry are
                # unique to their projective point
                if points[i] == points[j]:
                    raise ValueError(f"p{i + 1} and p{j + 1} coincide")
                if _det3(q, points[i], points[j]) == 0:
                    raise ValueError(
                        f"p{i + 1}, p{j + 1} and q are collinear; "
                        "the lines through q would not separate the points"
                    )
        object.__setattr__(self, "int_points", points)
        lines = tuple(_primitive(_cross(q, p)) for p in points)
        object.__setattr__(self, "int_lines", lines)
        incidence = tuple(
            tuple([0 if lx * px + ly * py + lz * pz else 1 for px, py, pz in points])
            for lx, ly, lz in ((0, 1, 0), *lines)
        )
        object.__setattr__(self, "incidence", incidence)
        object.__setattr__(self, "_facts", _Facts())
        # h0_rank's cache is keyed by the config: hash its Fractions once,
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


_UNKNOWN = object()


def _stored(compute):
    """compute(cfg, *key), worked out once per configuration object: the
    value is kept in cfg's store, in the dict named after compute, under
    key."""
    kind = compute.__name__.lstrip("_")

    def lookup(cfg: PointConfig, *key):
        known = getattr(cfg._facts, kind)
        value = known.get(key, _UNKNOWN)
        if value is _UNKNOWN:
            value = known[key] = compute(cfg, *key)
        return value

    lookup.__name__, lookup.__doc__ = compute.__name__, compute.__doc__
    return lookup


@_stored
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


@_stored
def _realized_vector(cfg: PointConfig, lam: int, sigma: tuple[int, ...]) -> dict:
    """Column -> int coefficient of y^lam * prod(int_lines[i]^sigma[i]) in
    degree lam + sum(sigma), a nonzero multiple of the realized form of
    every monomial with this (lam, sigma)."""
    index = _column_index(lam + sum(sigma))
    return {index[ex, ey + lam, ez]: c for (ex, ey, ez), c in _line_product(cfg, sigma).items()}


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
    of the lines.

    Each check is made once per run.  The degree is the same at every s of
    a run, and each exponent is monotone in s, so one degree check and the
    two ends cover the run.  Vanishing: multiplicity is additive over the
    factors of a product (Fulton, Algebraic Curves, ch. 3 section 1), so
    the form of (lam, sigma) vanishes at p[j] to order exactly
    lam * incidence[0][j] + sum(sigma[i] * incidence[i + 1][j]) (see
    PointConfig), and it passes there when that order reaches a[j].  Along a
    run only sigma[n-1] = s and sigma[n] = rest - s move, so the order is
    affine in s and reaches a[j] on all of lo..hi when it does at both ends.
    Only a run with a failing end is walked, s = lo..hi and then j, to name
    the first failure; no line product is built.  Independence is proved,
    not computed: when every run's head is forced and the runs of each
    level are disjoint, the y^lam parts of the forms of a level are one
    nonzero binary form times distinct u^s * v^(r-s), u and v the two
    anchor lines at y = 0, and those are independent when the anchors' 2x2
    determinant is nonzero, which _level_blocks_independent checks exactly
    (_runs_certified).  When the runs do not fit that proof, their own
    exact rank is taken.
    """
    if not picard.is_effective(D):
        raise ValueError(f"basis verification needs an effective class, got {D}")
    _check_n(cfg, D)
    runs = mons.runs if isinstance(mons, coxmono.StandardMonomials) else [coxmono.StandardRun.of(m) for m in mons]
    d, a = D.d, D.a
    k, head_a, a_pen, a_last = D.n - 2, a[:-2], a[-2], a[-1]
    # per point p[j] with a[j] > 0, from its incidence bits b0 (y), hb (the
    # head's lines), u and v (the last two lines): the order there of the
    # form of (lam, head + (s, rest - s)) is (lam, *head, rest) . col + s * w
    # with col = (b0, *hb, v) and w = u - v
    needs = [
        (j, aj, (b0, *hb, v), u - v)
        for j, (aj, (b0, *hb, u, v)) in enumerate(zip(a, zip(*cfg.incidence)))
        if aj > 0
    ]
    count = 0
    for lam, head, eps, rest, lo, hi, off_pen, off_last in runs:
        # zip would truncate, so the length is compared first; eps then has
        # it too
        if (
            len(head) != k
            or eps != tuple([lam + h - ai for h, ai in zip(head, head_a)])
            or lam + sum(head) + rest != d
            or lam - off_pen != a_pen
            or lam - off_last != a_last
        ):
            return "degree"
        # every exponent is monotone in s: non-negative at both ends
        if (
            lam < 0
            or not 0 <= lo <= hi <= rest
            or lo + off_pen < 0
            or rest - hi + off_last < 0
            or (k and min(head + eps) < 0)
        ):
            return "degree"
        exps = (lam, *head, rest)
        for _, aj, col, w in needs:
            order = sum(map(mul, exps, col))
            if order + lo * w < aj or order + hi * w < aj:
                first = next(
                    j for s in range(lo, hi + 1) for j, aj, col, w in needs if sum(map(mul, exps, col)) + s * w < aj
                )
                return f"vanishing at p{first + 1}"
        count += hi - lo + 1
    h = h0_rank(cfg, D)
    if count != h:
        return f"count {count} != h0_rank {h}"
    if _runs_certified(cfg, runs):
        return None
    vectors = [
        _realized_vector(cfg, lam, head + (s, rest - s))
        for lam, head, _, rest, lo, hi, _, _ in runs
        for s in range(lo, hi + 1)
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
