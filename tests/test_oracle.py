"""Tests for the interpolation oracle: configs, forms, ranks, realizations."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxline import cli, coxmono, oracle, picard
from coxline.coxmono import CoxMonomial, enumerate_standard_monomials
from coxline.oracle import (
    PointConfig,
    constraint_rows,
    h0_rank,
    monomials_of_degree,
    realize_monomial,
    verify_basis_independence,
)
from coxline.picard import DivisorClass
from plane_forms import Form
from reference import degree_of, in_initial_ideal


def dense_rank(rows):
    """Plain fractional Gaussian elimination, written independently of the
    oracle's fraction-free sparse rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for row in m[rank + 1 :]:
            if row[c] != 0:
                f = row[c] / top[c]
                for j in range(c, ncols):
                    if top[j]:
                        row[j] -= f * top[j]
        rank += 1
    return rank


def densify(sparse_rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in sparse_rows]


# the coordinates each test configuration below was built from, as
# Fractions: the reference side of the checks that work over Q, since a
# PointConfig keeps only its integer geometry.  Configs equal as values are
# projectively equal, so whichever coordinates are kept first serve them all
GIVEN = {}


def kept(cfg, points, q):
    """cfg, with the coordinates it was built from kept in GIVEN."""
    GIVEN.setdefault(cfg, (tuple(tuple(map(Fraction, p)) for p in points), tuple(map(Fraction, q))))
    return cfg


def collinear(t, q=(0, 1, 0)):
    """PointConfig.collinear(t, q), its coordinates kept."""
    return kept(PointConfig.collinear(t, q), [(x, 0, 1) for x in t], q)


def explicit(points, q):
    """PointConfig.explicit(points, q), its coordinates kept."""
    return kept(PointConfig.explicit(points, q), points, q)


def default(n):
    """PointConfig.default(n), with its coordinates (i - 1 : 0 : 1) and
    q = (0 : 1 : 0) kept."""
    return kept(PointConfig.default(n), [(i, 0, 1) for i in range(n)], (0, 1, 0))


CFG3 = default(3)
CFG3_ALT = collinear((Fraction(-1), Fraction(1, 2), Fraction(3)), q=(1, 2, 1))


def test_default_config_layout():
    assert CFG3.n == 3
    assert CFG3.int_points[1] == (1, 0, 1)
    # every line through q = (0 : 1 : 0) has no y term
    assert all(line[1] == 0 for line in CFG3.int_lines)
    assert CFG3 == PointConfig.explicit(*GIVEN[CFG3])
    # the inputs are not kept: a config is its integer geometry
    assert not hasattr(CFG3, "points") and not hasattr(CFG3, "q")
    assert repr(CFG3) == "PointConfig(int_points=((0, 0, 1), (1, 0, 1), (2, 0, 1)), int_lines=((1, 0, 0), (1, 0, -1), (1, 0, -2)))"


def test_config_rejects_degenerate_data():
    with pytest.raises(ValueError):
        PointConfig.collinear((0, 0, 1))  # duplicate points
    with pytest.raises(ValueError):
        PointConfig.collinear((0, 1, 2), q=(1, 0, 0))  # q on the base line
    with pytest.raises(ValueError):
        PointConfig.collinear((0, 1), q=(0, 0, 1))
    with pytest.raises(ValueError):
        # p2 on the line through q and p1
        PointConfig.explicit([(0, 0, 1), (0, 1, 2)], q=(0, 1, 1))
    # the section ring of one point is out of scope, and so are no points
    for make in (lambda: PointConfig.default(1), lambda: PointConfig.default(0),
                 lambda: PointConfig.collinear((5,)), lambda: PointConfig.explicit([(0, 1, 1)], q=(0, 1, 0))):
        with pytest.raises(ValueError, match="n >= 2"):
            make()


def fraction_cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def fraction_primitive(v):
    """v divided by its first nonzero entry, then times the lcm of the
    denominators: coprime integers with a positive leading entry."""
    lead = next(x for x in v if x)
    monic = [x / lead for x in v]
    den = lcm(*(x.denominator for x in monic))
    return tuple(int(x * den) for x in monic)


def reference_config_error(points, q):
    """The message of the pairwise Fraction check that PointConfig made
    before it compared primitive lines, or None when the config is valid:
    q against each point, then each pair (i, j) in order, coincident when
    p[i] x p[j] = 0 and collinear with q when det(q, p[i], p[j]) = 0."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    q = tuple(Fraction(x) for x in q)
    for p in (*points, q):
        if not any(p):
            return f"not a projective point: ({', '.join(map(str, p))})"
    if len(points) < 2:
        return picard.TOO_FEW_POINTS
    if q[1] == 0:
        return "q must not lie on the base line {y = 0}"
    for i, p in enumerate(points, start=1):
        if not any(fraction_cross(q, p)):
            return f"q coincides with p{i}"
    for (i, p), (j, r) in itertools.combinations(enumerate(points, start=1), 2):
        if not any(fraction_cross(p, r)):
            return f"p{i} and p{j} coincide"
        if sum(map(mul, q, fraction_cross(p, r))) == 0:
            return f"p{i}, p{j} and q are collinear; the lines through q would not separate the points"
    return None


def config_corpus(count, seed):
    """Seeded (points, q) pairs: points on y = 0 or anywhere, with small
    integer and rational coordinates, some repeated at another scale, some
    zero, and q sometimes a rescaled point or on y = 0."""
    rng = random.Random(seed)

    def coord():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    def rescaled(p):
        c = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
        return tuple(c * x for x in p)

    for _ in range(count):
        n = rng.choice((1, 2, 3, 3, 4, 5, 6))
        on_base = rng.random() < 0.4
        points = [(coord(), 0, rng.choice((1, 2))) if on_base else (coord(), coord(), coord()) for _ in range(n)]
        if rng.random() < 0.3:
            points[rng.randrange(n)] = rescaled(rng.choice(points))
        q = (coord(), coord(), coord())
        if rng.random() < 0.1:
            q = rescaled(rng.choice(points))
        yield points, q


# every rejection by the checks, by a piece of its message; the corpus must
# reach each one, and valid configs too
REJECTIONS = {
    "zero point": "not a projective point",
    "too few points": "n >= 2",
    "q on y = 0": "q must not lie on the base line",
    "q at a point": "q coincides with",
    "coincident": " coincide",
    "collinear with q": "are collinear",
}


def test_config_checks_agree_with_the_pairwise_fraction_reference():
    # p1, p4 and p2, p3 both lie on a line through q = (0 : 1 : 0): the
    # first pair in order is named, not the first one found scanning j
    two_bad_pairs = ([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 2, 1)], (0, 1, 0))
    seen = set()
    for points, q in [two_bad_pairs, *config_corpus(3000, 1818)]:
        expected = reference_config_error(points, q)
        seen.add("valid" if expected is None else next(kind for kind, text in REJECTIONS.items() if text in expected))
        try:
            cfg = PointConfig.explicit(points, q)
        except ValueError as exc:
            assert str(exc) == expected, (points, q)
            continue
        assert expected is None, (points, q)
        fpoints = [tuple(Fraction(x) for x in p) for p in points]
        flines = [fraction_primitive(fraction_cross(tuple(map(Fraction, q)), p)) for p in fpoints]
        assert cfg.int_points == tuple(fraction_primitive(p) for p in fpoints)
        assert cfg.int_lines == tuple(flines)
        assert cfg.incidence == tuple(
            tuple(int(sum(map(mul, line, p)) == 0) for p in fpoints) for line in [(0, 1, 0), *flines]
        )
    with pytest.raises(ValueError, match="^p1, p4 and q are collinear"):
        PointConfig.explicit(*two_bad_pairs)
    assert seen == {"valid", *REJECTIONS}, seen


def test_projectively_equal_configs_are_equal(monkeypatch, capsys):
    # equality, hash and every output come from the integer coordinates
    configs = (
        PointConfig.collinear((0, 1, 2)),
        PointConfig.collinear((0, 1, 2), q=(0, 2, 0)),
        PointConfig.explicit([(0, 0, 3), (-2, 0, -2), (Fraction(1, 2), 0, Fraction(1, 4))], q=(0, Fraction(-1, 3), 0)),
    )
    assert len(set(configs)) == 1
    assert all(cfg == configs[0] and hash(cfg) == hash(configs[0]) for cfg in configs)
    outputs = []
    for cfg in configs:
        monkeypatch.setattr(cli, "_load_cfg", lambda args, cfg=cfg: cfg)
        printed = []
        for argv in (["basis", "4 2 1 1"], ["--json", "basis", "4 2 1 1"], ["relations"], ["--json", "relations"]):
            assert cli.main(argv) == 0
            printed.append(capsys.readouterr())
        outputs.append(printed)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    D = DivisorClass(9, (4, 3, 3))
    h0_rank(configs[0], D)
    before = h0_rank.cache_info()
    assert h0_rank(configs[1], D) == h0_rank(configs[2], D) == h0_rank(configs[0], D)
    after = h0_rank.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)


def line_form(cfg, i):
    """The line through q and p[i] as the oracle prints it: the realized
    form of s[i], with leading coefficient 1."""
    zero = (0,) * cfg.n
    return realize_monomial(cfg, CoxMonomial(0, zero[:i] + (1,) + zero[i + 1 :], zero))


def test_line_forms_default_config():
    assert CFG3.int_lines == ((1, 0, 0), (1, 0, -1), (1, 0, -2))
    assert str(realize_monomial(CFG3, CoxMonomial(1, (0, 0, 0), (0, 0, 0)))) == "y"
    assert [str(line_form(CFG3, i)) for i in range(3)] == ["x", "x - z", "x - 2*z"]


def test_line_forms_vanishing_conditions():
    for cfg in (CFG3, CFG3_ALT, default(5)):
        points, q = GIVEN[cfg]
        for i, p in enumerate(points):
            line = cfg.int_lines[i]
            assert sum(c * x for c, x in zip(line, p)) == 0
            assert sum(c * x for c, x in zip(line, q)) == 0
            assert p[1] == 0  # on the base line y = 0
            for j, other in enumerate(points):
                if j != i:
                    assert sum(c * x for c, x in zip(line, other)) != 0


def test_line_forms_are_normalized():
    for cfg in (CFG3, CFG3_ALT):
        for i, line in enumerate(cfg.int_lines):
            assert gcd(*line) == 1 and next(c for c in line if c) > 0
            lead = Form.of(line_form(cfg, i)).terms_sorted()[0][1]
            assert lead == 1


def test_h0_rank_examples():
    assert h0_rank(CFG3, DivisorClass(2, (1, 1, 1))) == 3
    assert h0_rank(CFG3, DivisorClass.line(3)) == 3
    assert h0_rank(CFG3_ALT, DivisorClass.line(3)) == 3
    assert h0_rank(CFG3, DivisorClass(2, (2, 1, 1))) == 2
    assert h0_rank(CFG3, DivisorClass(-1, (0, 0, 0))) == 0


def test_h0_rank_rejects_a_class_of_another_n_in_every_degree():
    # the point count is checked before the shortcut for d < 0
    for d in (-1, 1):
        with pytest.raises(ValueError, match="config has 3 points but class has n = 2"):
            h0_rank(CFG3, DivisorClass(d, (0, 0)))


def test_h0_rank_is_zero_past_multiplicity_d_plus_1():
    # unclamped, a multiplicity of d + 2 or more asks for derivative rows of
    # order above d, which are empty, so the point imposes nothing; the
    # small classes come first so that such a build fails on them before
    # the huge one, which would ask for about 10^60 rows
    assert h0_rank(CFG3, DivisorClass(1, (3, 0, 0))) == 0
    assert h0_rank(CFG3, DivisorClass(2, (5, 0, 0))) == 0
    assert h0_rank(CFG3, DivisorClass(2, (4, 1, 0))) == 0
    assert h0_rank(CFG3, DivisorClass(1, (10**30, 0, 0))) == 0
    assert len(constraint_rows(CFG3, DivisorClass(1, (10**30, 0, 0)))) == 3


def test_constraint_matrix_of_the_collinear_double_point():
    # 6 coefficients in degree 2; a double point plus two simple collinear
    # points give 5 rows of rank 4
    D = DivisorClass(2, (2, 1, 1))
    rows = constraint_rows(CFG3, D)
    assert len(rows) == 5
    dense = densify(rows, len(monomials_of_degree(2)))
    assert len(dense[0]) == 6
    assert dense_rank(dense) == 4
    assert oracle._rank_of_sparse_rows(rows) == 4


def sparse_rank(dense):
    """The oracle's rank of dense rows, passed as its sparse rows."""
    return oracle._rank_of_sparse_rows([{j: v for j, v in enumerate(row) if v} for row in dense])


def integer_rows(m):
    """Rational rows scaled to integers, one common denominator per row."""
    out = []
    for row in m:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def test_sparse_rank_basics():
    assert sparse_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert sparse_rank([[0, 0], [0, 0]]) == 0
    assert sparse_rank([]) == 0
    # (1/2, 1/3), (3/2, 1) and (1/2, 1/3), (3/2, 2), scaled to integer rows
    assert sparse_rank([[3, 2], [3, 2]]) == 1
    assert sparse_rank([[3, 2], [3, 4]]) == 2
    assert sparse_rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_sparse_rank_against_independent_elimination():
    rng = random.Random(7)
    for trial in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if trial % 3 == 0 and nrows > 1:
            m[-1] = [2 * x for x in m[0]]  # force a dependency
        assert sparse_rank(integer_rows(m)) == dense_rank(m)


def test_realize_monomial_examples():
    s1e1 = CoxMonomial(0, (1, 0, 0), (1, 0, 0))
    assert str(realize_monomial(CFG3, s1e1)) == "x"
    le123 = CoxMonomial(1, (0, 0, 0), (1, 1, 1))
    assert str(realize_monomial(CFG3, le123)) == "y"
    assert Form.of(realize_monomial(CFG3, CoxMonomial(0, (0, 0, 0), (0, 0, 0)))) == Form.constant(1)


def test_realized_forms_vanish_to_the_required_order():
    for cfg in (CFG3, CFG3_ALT):
        for D in (
            DivisorClass(2, (1, 1, 0)),
            DivisorClass(3, (2, 1, 0)),
            DivisorClass(4, (2, 1, 1)),
        ):
            rows = constraint_rows(cfg, D)
            index = {e: j for j, e in enumerate(monomials_of_degree(D.d))}
            for m in enumerate_standard_monomials(D):
                form = Form.of(realize_monomial(cfg, m))
                assert form.degree == D.d
                vec = {index[e]: c for e, c in form.coeffs.items()}
                for row in rows:
                    assert sum(c * vec.get(j, 0) for j, c in row.items()) == 0


def verify_enumerated(cfg, D):
    return verify_basis_independence(cfg, D, enumerate_standard_monomials(D))


def test_verify_basis_independence_examples():
    assert verify_enumerated(CFG3, DivisorClass.line(3))
    assert verify_enumerated(CFG3, DivisorClass.zero(3))
    assert verify_enumerated(CFG3, DivisorClass(4, (2, 1, 1)))


def test_verify_basis_independence_rejects_non_effective():
    with pytest.raises(ValueError):
        verify_enumerated(CFG3, DivisorClass(2, (3, 0, 0)))


def test_vanishing_region_rank_equals_chi():
    # a_i >= 0 and d + 1 >= sum(a): interpolation dimension equals chi,
    # including the non-nef boundary
    for d in range(0, 5):
        for a in itertools.product(range(0, 5), repeat=3):
            if sum(a) > d + 1:
                continue
            D = DivisorClass(d, a)
            assert h0_rank(CFG3, D) == picard.chi(D)


def test_oracle_agrees_across_configs():
    cfg_b = PointConfig.collinear((2, 3, 5), q=(0, 1, 1))
    for d in range(0, 4):
        for a in itertools.product(range(-1, 3), repeat=3):
            D = DivisorClass(d, a)
            assert h0_rank(CFG3, D) == h0_rank(CFG3_ALT, D) == h0_rank(cfg_b, D)
            if picard.is_effective(D):
                assert verify_enumerated(CFG3, D) == verify_enumerated(CFG3_ALT, D)


def test_form_arithmetic():
    x = Form.linear(1, 0, 0)
    y = Form.linear(0, 1, 0)
    z = Form.linear(0, 0, 1)
    f = (x - z) * (x - z)
    assert f.degree == 2
    assert f.coeffs == {(2, 0, 0): 1, (1, 0, 1): -2, (0, 0, 2): 1}
    assert (f - f).is_zero()
    assert (x * y).evaluate((2, 3, 1)) == 6
    assert x**3 == x * x * x
    with pytest.raises(ValueError):
        x + f


def test_form_json_round_trip():
    form = line_form(CFG3_ALT, 0)
    payload = form.to_json()
    rebuilt = Form(
        payload["degree"],
        {tuple(t["exps"]): Fraction(t["coeff"]) for t in payload["terms"]},
    )
    assert rebuilt == Form.of(form)


def test_load_config(tmp_path):
    path = tmp_path / "points.cfg"
    path.write_text("# sample\nn = 3\nt = 0, 1/2, 7\nq = 1, 2, 1\n")
    cfg = PointConfig.collinear((0, Fraction(1, 2), 7), q=(1, 2, 1))
    from coxline.oracle import load_config

    loaded = load_config(path)
    assert loaded == cfg

    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 4\nt = 0 1 2\n")
    with pytest.raises(ValueError):
        load_config(bad)
    missing = tmp_path / "missing.cfg"
    missing.write_text("q = 0,1,0\n")
    with pytest.raises(ValueError):
        load_config(missing)


# the acceptance suite's rational configuration; its n = 3 case is CFG3_ALT
T_POOL_A = (Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(9, 2))


@lru_cache(maxsize=None)
def integer_path_configs():
    # one object per config: h0_rank's cache and the test-side caches are
    # keyed by the config, where a lookup with an equal but distinct one
    # compares its coordinates
    return tuple(cfg for n in (2, 3, 4) for cfg in (default(n), pool_a_config(n)))


def pool_a_config(n):
    """A new object for the first n points of the rational configuration."""
    return collinear(T_POOL_A[:n], q=(1, 2, 1))


# (n, j): the non-collinear configurations of the reference cross-checks,
# with p[j] off the base line.  Only at an off-line point can a wrong
# incidence bit hide a real vanishing failure, so the off-line point is p1,
# p2 and the last point p[n] in turn; n = 4, with five times the classes of
# n = 3, has p1 only
BENT = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (3, 3))


def reference_configs():
    """The configurations of the reference cross-checks: default, pool A
    and non-collinear, n = 2..4."""
    return (*integer_path_configs(), *(bent_config(n, j) for n, j in BENT))


@lru_cache(maxsize=None)
def effective_classes(n):
    """Every effective class with a_i in -1..d, d <= 6, on n points, with
    its enumeration and its per-monomial listing: the class set of the
    reference cross-checks, listed once for all of them, since neither
    listing depends on the configuration."""
    classes = []
    for d in range(0, 7):
        for a in itertools.product(range(-1, d + 1), repeat=n):
            D = DivisorClass(d, a)
            if picard.is_effective(D):
                classes.append((D, enumerate_standard_monomials(D), monomial_listing(D)))
    return tuple(classes)


def reference_classes(cfgs):
    """(cfg, D, enumeration, listing) for every cfg of cfgs and every class
    of effective_classes(cfg.n)."""
    for cfg in cfgs:
        for D, mons, listed in effective_classes(cfg.n):
            yield cfg, D, mons, listed


def fraction_line(cfg, i):
    """The line through q and p[i], from the Fraction coordinates cfg was
    built from, with no scaling."""
    points, (qx, qy, qz) = GIVEN[cfg]
    px, py, pz = points[i]
    return Form.linear(qy * pz - qz * py, qz * px - qx * pz, qx * py - qy * px)


def fraction_realization(cfg, lam, sigma):
    """y^lam times the lines through q and p[i], multiplied out over the
    Fraction points with no scaling: the path the integer oracle replaced."""
    form = Form.linear(0, 1, 0) ** lam
    for i, s in enumerate(sigma):
        form = form * fraction_line(cfg, i) ** s
    return form


@lru_cache(maxsize=None)
def monic_realization(cfg, lam, sigma):
    """The realized form of (lam, sigma) as the oracle prints it, multiplied
    out over Fractions: y^lam times the lines through q and p[i], each
    divided by its leading coefficient."""
    form = Form.linear(0, 1, 0) ** lam
    for i, s in enumerate(sigma):
        line = fraction_line(cfg, i)
        form = form * line.scale(1 / line.terms_sorted()[0][1]) ** s
    return form


def realized_vector(cfg, lam, sigma):
    """Column -> int coefficient of y^lam * prod(int_lines[i]^sigma[i]) in
    degree lam + sum(sigma): the oracle's product of the run of length one
    at sigma, a nonzero multiple of the realized form of every monomial with
    this (lam, sigma)."""
    *head, pen, last = sigma
    (product,) = oracle._run_products(cfg, tuple(head), pen + last, pen, pen)
    index = {e: j for j, e in enumerate(monomials_of_degree(lam + sum(sigma)))}
    return {index[ex, ey + lam, ez]: c for (ex, ey, ez), c in product.items()}


def assert_rational_multiple(vec, ref):
    assert vec and set(vec) == set(ref)
    j = next(iter(vec))
    ratio = Fraction(ref[j]) / vec[j]
    assert ratio != 0
    assert all(ref[k] == ratio * v for k, v in vec.items())


def test_integer_realization_is_a_multiple_of_the_fraction_path():
    for cfg in integer_path_configs():
        n = cfg.n
        for d in range(0, 7):
            index = {e: j for j, e in enumerate(monomials_of_degree(d))}
            for lam in range(0, d + 1):
                for sigma in itertools.product(range(d - lam + 1), repeat=n):
                    if sum(sigma) != d - lam:
                        continue
                    m = CoxMonomial(lam, sigma, (0,) * n)
                    vec = realized_vector(cfg, lam, sigma)
                    assert all(type(c) is int for c in vec.values())
                    for form in (Form.of(realize_monomial(cfg, m)), fraction_realization(cfg, lam, sigma)):
                        assert form.degree == d
                        assert_rational_multiple(vec, {index[e]: c for e, c in form.coeffs.items()})


def infinite_config(n):
    """p[i] = (i - 1 : 0 : 1) for i < n and p[n] = (1 : 0 : 0), the point
    at infinity of the base line: the line through q = (0 : 1 : 0) and p[n]
    is z, which has no x term."""
    return explicit([(i, 0, 1) for i in range(n - 1)] + [(1, 0, 0)], q=(0, 1, 0))


def realization_configs():
    """The reference configurations and infinite_config, n = 2..4."""
    return (*reference_configs(), *map(infinite_config, (2, 3, 4)))


@lru_cache(maxsize=None)
def distinct_runs(n):
    """The level runs of every effective class of effective_classes(n),
    each listed once."""
    runs = {}
    for _, mons, _ in effective_classes(n):
        for run in mons.runs:
            runs[run.lam, run.sigma_head, run.rest, run.lo, run.hi] = run
    return tuple(runs.values())


def test_realized_runs_equal_the_fraction_reference():
    # the runs of every effective class with a_i in -1..d, d <= 6, n = 2..4,
    # on every reference configuration and on infinite_config, where the
    # exact division by the last line runs in z: the forms of each run, built
    # by multiplying by l[n-1] and dividing by l[n], and of each monomial
    # alone.  A run or a monomial shared by several classes is checked once
    for cfg in realization_configs():
        for run in distinct_runs(cfg.n):
            expected = [monic_realization(cfg, m.lam, m.sigma) for m in run.monomials()]
            assert [Form.of(form) for form in oracle.realize_run(cfg, run)] == expected, (cfg, run)
            assert [Form.of(realize_monomial(cfg, m)) for m in run.monomials()] == expected, (cfg, run)


def test_realized_forms_print_as_the_fraction_reference():
    # the same forms, printed from their integer terms over one denominator:
    # text and JSON equal those of the Fraction product of the monic lines,
    # coefficient by coefficient, on every configuration above
    for cfg in realization_configs():
        for run in distinct_runs(cfg.n):
            for m, form in zip(run.monomials(), oracle.realize_run(cfg, run)):
                expected = monic_realization(cfg, m.lam, m.sigma)
                assert str(form) == str(expected), (cfg, m)
                assert form.to_json() == expected.to_json(), (cfg, m)


def line_product(lines):
    form = {(0, 0, 0): 1}
    for line in lines:
        form = oracle._times_line(form, line)
    return form


def test_the_division_by_a_line_is_exact_or_raises():
    # a product of random primitive lines divided by one of its factors is
    # the product of the others; divided by any other line it leaves a
    # remainder, which is an ArithmeticError and never an assert
    rng = random.Random(11)
    pool = sorted({oracle._primitive(v) for v in itertools.product(range(-2, 3), repeat=3) if any(v)})
    for _ in range(200):
        lines = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        k = rng.randrange(len(lines))
        assert oracle._over_line(line_product(lines), lines[k]) == line_product(lines[:k] + lines[k + 1 :])
        other = rng.choice([line for line in pool if line not in lines])
        with pytest.raises(ArithmeticError, match="does not divide"):
            oracle._over_line(line_product(lines), other)


def echelon_with(echelon, rows):
    """echelon, a tuple of (pivot column, Fraction row) in which each row is
    zero at the pivots before it, extended by the dense rows: each is
    reduced by the rows already there, in order, and kept when it is not
    then zero."""
    out = list(echelon)
    for row in rows:
        row = [Fraction(x) for x in row]
        for c, piv in out:
            if row[c]:
                f = row[c] / piv[c]
                row = [x - f * y if y else x for x, y in zip(row, piv)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            out.append((c, row))
    return tuple(out)


@lru_cache(maxsize=None)
def fraction_row_ranks(cfg, d):
    """a -> the rank of the Fraction rows of the points of cfg with
    multiplicities a, clamped to d + 1, for every a >= 0 with
    sum(a) <= d + 2: the reference side of the integer rows, worked out once
    per (cfg, d).  The points' rows are stacked in order, so the classes
    that share a[:k] share the elimination of its rows."""
    ncols = len(monomials_of_degree(d))
    ranks = {}

    def extend(echelon, a):
        if len(a) == cfg.n:
            ranks[a] = len(echelon)
            return
        for ai in range(d + 3 - sum(a)):
            rows = oracle._point_rows(GIVEN[cfg][0][len(a)], d, min(ai, d + 1)) if ai else ()
            extend(echelon_with(echelon, densify(rows, ncols)), a + (ai,))

    extend((), ())
    return ranks


def test_integer_rows_have_the_rank_of_the_fraction_rows():
    for cfg in integer_path_configs():
        for d in range(0, 7):
            ncols = len(monomials_of_degree(d))
            for p_int, p in zip(cfg.int_points, GIVEN[cfg][0]):
                for mult in range(1, d + 2):
                    for r_int, r in zip(oracle._point_rows(p_int, d, mult), oracle._point_rows(p, d, mult)):
                        assert_rational_multiple(r_int, r)
            # a >= 0 with sum(a) <= d + 2: the nef classes, the vanishing
            # region and the first classes past it, where the rows drop rank
            for a in itertools.product(range(d + 3), repeat=cfg.n):
                if sum(a) > d + 2:
                    continue
                rows = constraint_rows(cfg, DivisorClass(d, a))
                assert all(type(c) is int for row in rows for c in row.values())
                assert dense_rank(densify(rows, ncols)) == fraction_row_ranks(cfg, d)[a]


CFG4_POOL_A = pool_a_config(4)


def test_h0_rank_agrees_with_sympy_over_QQ():
    # the interpolation matrices of a few nef and non-nef classes, d <= 6,
    # ranked by sympy's elimination over the field QQ; Matrix.rank, which
    # does not reduce fractions, has run for minutes on one such class
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    classes = {
        3: ((6, (2, 2, 2)), (5, (3, 1, 1)), (4, (1, 1, 1)), (6, (5, 3, 0)), (5, (4, 4, 2)), (2, (4, 0, 1)), (6, (7, 2, 0))),
        4: ((6, (2, 1, 1, 1)), (4, (1, 1, 1, 0)), (6, (4, 3, 2, 0)), (5, (3, 3, 1, 1)), (3, (4, 2, 0, 0))),
    }
    for n, cases in classes.items():
        for cfg in (PointConfig.default(n), pool_a_config(n)):
            for d, a in cases:
                D = DivisorClass(d, a)
                rows = constraint_rows(cfg, D)
                ncols = len(monomials_of_degree(d))
                sparse = {i: {j: QQ(c) for j, c in row.items()} for i, row in enumerate(rows) if row}
                rank = DomainMatrix(sparse, (len(rows), ncols), QQ).rank() if sparse else 0
                assert ncols - rank == h0_rank(cfg, D), (cfg, D)


def test_a_repeated_monomial_is_caught_by_the_rank():
    # one monomial replaced by a repeat of another: degree, vanishing and
    # count still pass, so only the independence check can reject it
    for cfg, D in ((CFG3, DivisorClass(4, (2, 1, 1))), (CFG4_POOL_A, DivisorClass(4, (1, 1, 1, 0)))):
        mons = list(enumerate_standard_monomials(D))
        assert len(mons) == h0_rank(cfg, D) > 1
        assert verify_basis_independence(cfg, D, mons)
        assert not verify_basis_independence(cfg, D, mons[:-1] + mons[:1])


def test_a_run_with_a_negative_exponent_fails_the_degree():
    # each planted run keeps the degree equations of its class, but one
    # exponent is below 0 at an end of the run
    R = coxmono.StandardRun
    cases = (
        (DivisorClass(2, (1, 0, 0)), R(1, (0,), (0,), 1, 0, 1, 1, 1), R(1, (-1,), (-1,), 2, 0, 1, 1, 1)),  # head
        (DivisorClass(2, (1, 0, 0)), R(1, (0,), (0,), 1, 0, 1, 1, 1), R(1, (0,), (0,), 1, -1, 1, 1, 1)),  # sigma[n-1]
        (DivisorClass(2, (1, 0, 0)), R(1, (0,), (0,), 1, 0, 1, 1, 1), R(1, (0,), (0,), 1, 0, 2, 1, 1)),  # sigma[n]
        (DivisorClass(2, (0, 1, 0)), R(0, (0,), (0,), 2, 1, 2, -1, 0), R(0, (0,), (0,), 2, 0, 2, -1, 0)),  # epsilon[n-1]
        (DivisorClass(2, (0, 0, 1)), R(0, (0,), (0,), 2, 0, 1, 0, -1), R(0, (0,), (0,), 2, 0, 2, 0, -1)),  # epsilon[n]
    )
    for D, real, planted in cases:
        assert real in enumerate_standard_monomials(D).runs
        assert oracle.basis_failure(CFG3, D, coxmono.StandardMonomials((real,), 1)) != "degree"
        assert oracle.basis_failure(CFG3, D, coxmono.StandardMonomials((planted,), 1)) == "degree", planted


def test_class_of_another_n_is_a_value_error():
    with pytest.raises(ValueError, match="points"):
        verify_enumerated(CFG3, DivisorClass(2, (1, 0, 0, 0)))
    with pytest.raises(ValueError, match="points"):
        verify_enumerated(CFG4_POOL_A, DivisorClass(2, (1, 0, 1)))
    # monomials of another n never have the class's degree
    mons4 = list(enumerate_standard_monomials(DivisorClass(2, (1, 0, 0, 0))))
    assert not verify_basis_independence(CFG3, DivisorClass(2, (1, 0, 0)), mons4)


def direct_rank_verdict(cfg, mons):
    return keys_rank_verdict(cfg, tuple((m.lam, m.sigma) for m in mons))


@lru_cache(maxsize=None)
def keys_rank_verdict(cfg, keys):
    """Whether the realized vectors of keys, pairs (lam, sigma), have full
    rank; cached, since several cross-checks rank the same classes."""
    if len(set(keys)) < len(keys):
        return False  # a repeated key is a repeated vector
    vectors = [realized_vector(cfg, lam, sigma) for lam, sigma in keys]
    return oracle._rank_of_sparse_rows(vectors) == len(vectors)


def test_family_certificate_agrees_with_the_direct_rank():
    # every effective class with a_i in -1..d, nef or not: the level-block
    # verdict equals the exact rank of the class's own vectors, and no class
    # in this range needs the fallback to its own rank
    classes = certified = 0
    for cfg, D, mons, listed in reference_classes(integer_path_configs()):
        classes += 1
        assert verify_basis_independence(cfg, D, mons) == direct_rank_verdict(cfg, listed)
        certified += oracle._runs_certified(cfg, mons.runs)
    assert certified == classes > 0


def test_a_deficient_level_block_falls_back_to_the_direct_rank(monkeypatch):
    # the block hypothesis planted as failing: the certificate fails, so the
    # verdict must come from the class's own rank, which is full
    monkeypatch.setattr(oracle, "_level_blocks_independent", lambda cfg: False)
    for cfg, D in ((CFG3, DivisorClass(4, (2, 1, 1))), (CFG4_POOL_A, DivisorClass(4, (1, 1, 1, 0)))):
        mons = enumerate_standard_monomials(D)
        assert not oracle._runs_certified(cfg, mons.runs)
        assert direct_rank_verdict(cfg, mons)
        assert verify_basis_independence(cfg, D, mons)
        listed = tuple(mons)
        assert oracle.basis_failure(cfg, D, listed[:-1] + listed[:1]) == "rank"


def planted_lines(n, lines):
    """A new default config whose lines through q are replaced by lines,
    and its incidence rows of those lines with them.  It still equals
    PointConfig.default(n) as a value, so no cache keyed by config value
    may be asked about it."""
    cfg = PointConfig.default(n)
    object.__setattr__(cfg, "int_lines", lines)
    rows = tuple(tuple(int(sum(c * x for c, x in zip(line, p)) == 0) for p in cfg.int_points) for line in lines)
    object.__setattr__(cfg, "incidence", cfg.incidence[:1] + rows)
    return cfg


def flipped_incidence(cfg, i, j):
    """cfg, built afresh, with its incidence bit of row i (0 is y = 0, i > 0
    the line int_lines[i - 1]) at int_points[j] flipped."""
    rows = [list(row) for row in cfg.incidence]
    rows[i][j] ^= 1
    object.__setattr__(cfg, "incidence", tuple(map(tuple, rows)))
    return cfg


def test_a_config_that_breaks_the_block_hypothesis_falls_back_to_the_rank():
    # planted lines that break one hypothesis each, on a class where the
    # forms then repeat: the anchors l2 = l3 agree at y = 0, or l1 = y
    # vanishes there.  The vanishing and count checks pass, so only the
    # hypothesis check keeps the certificate from passing a dependent set.
    cases = (
        (((1, 0, 0), (1, 0, -1), (1, 0, -1)), DivisorClass(2, (0, 0, 0))),
        (((0, 1, 0), (1, 0, -1), (1, 0, -2)), DivisorClass(2, (1, 0, 0))),
    )
    for lines, D in cases:
        cfg = planted_lines(3, lines)
        mons = enumerate_standard_monomials(D)
        assert not oracle._level_blocks_independent(cfg)
        assert not oracle._runs_certified(cfg, mons.runs)
        vectors = [realized_vector(cfg, m.lam, m.sigma) for m in mons]
        assert oracle._rank_of_sparse_rows(vectors) < len(vectors)
        assert oracle.basis_failure(cfg, D, mons) == "rank"
    for cfg in (*reference_configs(), CFG3_ALT):
        assert oracle._level_blocks_independent(cfg)


def test_a_head_in_the_initial_ideal_is_not_certified():
    # planted l1 = l2: no line vanishes at y = 0 and the anchors stay
    # independent, so the hypothesis holds and the standard monomials of L
    # are certified.  s1*e1 in place of s3*e3 keeps degree, count and the
    # runs' disjoint s, but repeats the form of s2*e2; only the check that
    # every head is forced keeps that set from the certificate.
    cfg = planted_lines(3, ((1, 0, -1), (1, 0, -1), (1, 0, -2)))
    D = DivisorClass(1, (0, 0, 0))
    mons = enumerate_standard_monomials(D)
    assert oracle._level_blocks_independent(cfg)
    assert oracle.basis_failure(cfg, D, mons) is None
    s1e1 = CoxMonomial(0, (1, 0, 0), (1, 0, 0))
    swapped = [s1e1 if m.sigma == (0, 0, 1) else m for m in mons]
    assert in_initial_ideal(s1e1) and len(swapped) == len(mons)
    assert not oracle._runs_certified(cfg, [coxmono.StandardRun.of(m) for m in swapped])
    assert oracle.basis_failure(cfg, D, swapped) == "rank"


@lru_cache(maxsize=None)
def binary_line_product(cfg, sigma):
    """prod(int_lines[i]^sigma[i]) at y = 0, as a map from x-exponent to
    nonzero int, multiplied out one line at a time from the first."""
    if not any(sigma):
        return {0: 1}
    i = next(i for i, s in enumerate(sigma) if s)
    cx, _, cz = cfg.int_lines[i]
    out = {}
    for ex, v in binary_line_product(cfg, sigma[:i] + (sigma[i] - 1,) + sigma[i + 1 :]).items():
        out[ex + 1] = out.get(ex + 1, 0) + cx * v
        out[ex] = out.get(ex, 0) + cz * v
    return {ex: v for ex, v in out.items() if v}


def test_realized_vectors_lie_in_their_level_blocks():
    # what the certificate proves from: every realized vector of level lam
    # has y-exponent >= lam on its support, its y^lam part is the product of
    # its lines at y = 0, and the diagonal block of every level, the binary
    # forms of head + (s, r - s) for s = 0..r, has full rank
    for cfg in reference_configs():
        keys = {(m.lam, m.sigma) for _, _, listed in effective_classes(cfg.n) for m in listed}
        blocks = set()
        for lam, sigma in keys:
            cols = monomials_of_degree(lam + sum(sigma))
            vec = realized_vector(cfg, lam, sigma)
            assert all(cols[j][1] >= lam for j in vec), (cfg, lam, sigma)
            diagonal = {cols[j][0]: c for j, c in vec.items() if cols[j][1] == lam}
            assert diagonal == binary_line_product(cfg, sigma), (cfg, lam, sigma)
            blocks.add((sigma[:-2], sigma[-2] + sigma[-1]))
        for head, r in blocks:
            rows = [binary_line_product(cfg, head + (s, r - s)) for s in range(r + 1)]
            width = sum(head) + r + 1
            assert dense_rank(densify(rows, width)) == r + 1, (cfg, head, r)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def collinear_classes(draw):
    n = draw(st.integers(2, 4))
    t = draw(st.lists(rationals, min_size=n, max_size=n, unique=True))
    q = (draw(rationals), draw(rationals.filter(lambda y: y != 0)), draw(rationals))
    d = draw(st.integers(0, 6))
    a = tuple(draw(st.lists(st.integers(-1, d), min_size=n, max_size=n)))
    return PointConfig.collinear(t, q), DivisorClass(d, a)


@settings(max_examples=60, deadline=None)
@given(collinear_classes())
def test_level_blocks_certify_random_collinear_configs(case):
    # random distinct rational t and q off y = 0: the certificate holds and
    # the verdict equals the class's own rank
    cfg, D = case
    assume(picard.is_effective(D))
    mons = enumerate_standard_monomials(D)
    assert oracle._runs_certified(cfg, mons.runs)
    assert verify_basis_independence(cfg, D, mons) == direct_rank_verdict(cfg, mons)


def scanned_rows(point, d, mult):
    """The rows of order-mult vanishing at point, from a scan of every
    column of degree d: the build that _point_rows replaced."""
    px, py, pz = point
    order = mult - 1
    rows = []
    for u in range(order, -1, -1):
        for v in range(order - u, -1, -1):
            w = order - u - v
            row = {}
            for j, (ex, ey, ez) in enumerate(monomials_of_degree(d)):
                if ex >= u and ey >= v and ez >= w:
                    val = perm(ex, u) * perm(ey, v) * perm(ez, w) * px ** (ex - u) * py ** (ey - v) * pz ** (ez - w)
                    if val:
                        row[j] = val
            rows.append(row)
    return tuple(rows)


def test_point_rows_equal_a_scan_of_every_column():
    # points with no, one and two zero coordinates, the explicit (0, 1, 1)
    # among them, as integers and as Fractions
    points = [(0, 0, 1), (1, 0, 1), (-3, 0, 2), (0, 1, 1), (0, 1, 0), (1, 0, 0), (1, -2, 0), (2, 3, 5)]
    points.append((Fraction(1, 2), Fraction(0), Fraction(1)))
    for point in points:
        for d in range(0, 9):
            for mult in range(1, d + 2):
                assert oracle._point_rows(point, d, mult) == scanned_rows(point, d, mult), (point, d, mult)


@lru_cache(maxsize=None)
def bent_config(n, j):
    """p[j] = (j - 1 : 1 : 1) is off the base line y = 0, and every other
    p[i] = (i - 1 : 0 : 1) is on it."""
    return explicit([(i - 1, int(i == j), 1) for i in range(1, n + 1)], q=(0, 1, 0))


@lru_cache(maxsize=None)
def direct_vanishing(cfg, j, mult, lam, sigma):
    """Exact dot check of the realized form of (lam, sigma) against the
    scanned rows of order-mult vanishing at p[j]: the per-form reference
    for the incidence check of basis_failure."""
    vec = realized_vector(cfg, lam, sigma)
    rows = scanned_rows(cfg.int_points[j], lam + sum(sigma), mult)
    return all(sum(c * row.get(k, 0) for k, c in vec.items()) == 0 for row in rows)


def test_incidence_is_the_direct_check_of_each_generator_line():
    # y and each line through q, checked at every point by the order-1 dot
    # check of its realized form, on every reference configuration and the
    # README's rational one
    readme = PointConfig.collinear((0, Fraction(1, 2), 7), q=(1, 2, 1))
    for cfg in (*reference_configs(), readme):
        n = cfg.n
        generators = [(1, (0,) * n)] + [(0, tuple(int(i == k) for k in range(n))) for i in range(n)]
        expected = tuple(tuple(int(direct_vanishing(cfg, j, 1, lam, sigma)) for j in range(n)) for lam, sigma in generators)
        assert cfg.incidence == expected, cfg
        assert all(row[j] == 1 for j, row in enumerate(cfg.incidence[1:])), cfg


def test_vanishing_by_incidence_agrees_with_the_direct_check():
    # the vanishing verdict, from the incidence table, must name the first
    # point at which the direct check of the realized form fails, for every
    # monomial of every effective class with a_i in -1..d, d <= 6, n = 2..4
    failures = 0
    for cfg, D, _, listed in reference_classes(reference_configs()):
        for m in listed:
            missed = [j for j, aj in enumerate(D.a) if aj > 0 and not direct_vanishing(cfg, j, aj, m.lam, m.sigma)]
            expected = f"vanishing at p{missed[0] + 1}" if missed else None
            got = oracle.basis_failure(cfg, D, [m])
            assert (got if got and got.startswith("vanishing") else None) == expected, (cfg, D, m)
            failures += expected is not None
    assert failures > 0


def test_a_line_product_that_misses_its_point_is_rejected(monkeypatch):
    # every multiplication by l1 made by the last line instead: the direct
    # check finds that the form of s1 no longer vanishes at p1.  The same
    # fault as an incidence bit, l1 off p1, fails the basis check there.
    # The direct check is taken uncached, since its cache is keyed by config
    # value
    real = oracle._times_line
    cases = (
        (PointConfig.default, 3, DivisorClass(2, (1, 1, 0))),
        (pool_a_config, 4, DivisorClass(4, (2, 1, 1, 0))),
    )
    for build, n, _ in cases:
        cfg = build(n)
        first, last = cfg.int_lines[0], cfg.int_lines[-1]
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_times_line", lambda form, line: real(form, last if line == first else line))
            assert not direct_vanishing.__wrapped__(cfg, 0, 1, 0, (1,) + (0,) * (n - 1))
    for build, n, D in cases:
        cfg = flipped_incidence(build(n), 1, 0)
        assert oracle.basis_failure(cfg, D, enumerate_standard_monomials(D)) == "vanishing at p1"
        assert not verify_enumerated(cfg, D)
        assert verify_enumerated(build(n), D)


def monomial_listing(D):
    """The standard monomials of D built one CoxMonomial at a time: the
    listing that the level runs of enumerate_standard_monomials replaced."""
    n, d, a = D.n, D.d, D.a
    head, a_pen, a_last = a[: n - 2], a[n - 2], a[n - 1]
    found = []
    for lam in range(0, d + 1):
        sig_forced = tuple(ai - lam if ai > lam else 0 for ai in head)
        eps_forced = tuple(lam - ai if lam > ai else 0 for ai in head)
        rest = d - lam - sum(sig_forced)
        off_pen, off_last = lam - a_pen, lam - a_last
        for s_pen in range(max(-off_pen, 0), rest - max(-off_last, 0) + 1):
            s_last = rest - s_pen
            m = CoxMonomial(lam, sig_forced + (s_pen, s_last), eps_forced + (s_pen + off_pen, s_last + off_last))
            assert not in_initial_ideal(m)
            found.append(m)
    return tuple(found)


def monomial_basis_failure(cfg, D, mons):
    """The basis check one monomial at a time, the path that the level runs
    replaced, with the direct checks in place of the shared facts: the
    degree of each monomial, the direct vanishing check of its realized form
    at each point, the count, and the exact rank of all the forms."""
    for m in mons:
        if degree_of(m) != D:
            return "degree"
        for j, aj in enumerate(D.a):
            if aj > 0 and not direct_vanishing(cfg, j, aj, m.lam, m.sigma):
                return f"vanishing at p{j + 1}"
    h = h0_rank(cfg, D)
    if len(mons) != h:
        return f"count {len(mons)} != h0_rank {h}"
    return None if direct_rank_verdict(cfg, mons) else "rank"


def assert_runs_match_the_reference(cfg, D, mons, listed):
    assert tuple(mons) == listed
    assert len(mons) == len(listed)
    # the enumerated runs, then the last monomial replaced by a repeat of
    # the first, as separate runs of length one
    for checked in (mons, listed[:-1] + listed[:1]):
        assert oracle.basis_failure(cfg, D, checked) == monomial_basis_failure(cfg, D, tuple(checked)), (cfg, D)


# the builder itself, which the test below replaces by stored_run_products
RUN_PRODUCTS = oracle._run_products


@lru_cache(maxsize=None)
def stored_run_products(cfg, head, rest, lo, hi):
    """The oracle's run products, kept: the fallback rank of the repeated
    monomial below asks for the same products in many classes."""
    return tuple(RUN_PRODUCTS(cfg, head, rest, lo, hi))


def test_the_runs_agree_with_the_per_monomial_reference(monkeypatch):
    # every effective class with a_i in -1..d, d <= 6, n = 2..4, on the
    # default, pool-A and non-collinear configurations
    monkeypatch.setattr(oracle, "_run_products", stored_run_products)
    classes = 0
    for cfg, D, mons, listed in reference_classes(reference_configs()):
        assert_runs_match_the_reference(cfg, D, mons, listed)
        classes += 1
    assert classes > 0


@settings(max_examples=60, deadline=None)
@given(collinear_classes())
def test_the_runs_agree_with_the_reference_on_random_collinear_configs(case):
    cfg, D = case
    assume(picard.is_effective(D))
    assert_runs_match_the_reference(cfg, D, enumerate_standard_monomials(D), monomial_listing(D))


@st.composite
def random_effective_classes(draw):
    """A random collinear config (distinct rational t, q off y = 0) and an
    effective class, a third of them on the boundary d + 1 = sum(a)."""
    n = draw(st.integers(2, 4))
    t = draw(st.lists(rationals, min_size=n, max_size=n, unique=True))
    q = (draw(rationals), draw(rationals.filter(lambda y: y != 0)), draw(rationals))
    d = draw(st.integers(0, 7))
    if draw(st.integers(0, 2)) == 0 and n * d >= d + 1:
        a = [0] * n
        for _ in range(d + 1):  # d + 1 units spread over points with room below d
            a[draw(st.sampled_from([i for i in range(n) if a[i] < d]))] += 1
        a = tuple(a)
    else:
        a = tuple(draw(st.lists(st.integers(-1, d), min_size=n, max_size=n)))
    return PointConfig.collinear(t, q), DivisorClass(d, a)


@settings(max_examples=60, deadline=None)
@given(random_effective_classes())
def test_h0_equals_the_interpolation_rank_on_random_configs(case):
    # the rows of every point, built from its nonzero entries only, give
    # the section dimension of the lattice side
    cfg, D = case
    assume(picard.is_effective(D))
    assert picard.h0(D) == h0_rank(cfg, D)


@st.composite
def any_classes(draw):
    """A random collinear config and any class, effective or not, with
    multiplicities up to d + 3."""
    n = draw(st.integers(2, 4))
    t = draw(st.lists(rationals, min_size=n, max_size=n, unique=True))
    q = (draw(rationals), draw(rationals.filter(lambda y: y != 0)), draw(rationals))
    d = draw(st.integers(-1, 7))
    a = tuple(draw(st.lists(st.integers(-2, d + 3), min_size=n, max_size=n)))
    return PointConfig.collinear(t, q), DivisorClass(d, a)


@settings(max_examples=80, deadline=None)
@given(any_classes())
def test_h0_equals_the_interpolation_rank_on_every_class(case):
    # off the effective cone too: a multiplicity above d forces the form to 0
    cfg, D = case
    assert picard.h0(D) == h0_rank(cfg, D)
