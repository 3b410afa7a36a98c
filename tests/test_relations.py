"""Tests for relation derivation, division, and the Groebner-basis checks."""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxline.coxmono import (
    CoxMonomial,
    enumerate_monomials,
    enumerate_standard_monomials,
    in_initial_ideal,
)
from coxline.oracle import PointConfig, _rank_of_sparse_rows
from coxline.picard import DivisorClass, is_nef
from coxline.relations import (
    GradedPolynomial,
    Relation,
    _grlex_key,
    derive_relations,
    normal_form,
    s_polynomial,
    spoly_reduce,
    verify_relation_geometrically,
)
from plane_forms import Form


def sparse(m):
    """A CoxMonomial as relations holds a monomial: its (variable, exponent)
    pairs, s1..sn, e1..en, l numbered 0..2n, sorted by variable."""
    return tuple((v, x) for v, x in enumerate(m.sigma + m.epsilon + (m.lam,)) if x)


def dense(m, n):
    """The CoxMonomial of the sparse monomial m."""
    exps = [0] * (2 * n + 1)
    for v, x in m:
        exps[v] = x
    return CoxMonomial(exps[2 * n], exps[:n], exps[n : 2 * n])


def var(n, name, i=1):
    """The sparse monomial of one generator: s[i], e[i] or l."""
    return (({"s": i - 1, "e": n + i - 1, "l": 2 * n}[name], 1),)


def mono_se(n, i):
    return ((i - 1, 1), (n + i - 1, 1))


def monomial_poly(n, m):
    return GradedPolynomial(n, {m: 1})


def test_derive_relations_default_n3():
    rels = derive_relations(PointConfig.default(3))
    assert len(rels) == 1
    r = rels[0]
    assert (r.i, r.a_coeff, r.b_coeff) == (1, Fraction(-2), Fraction(1))


def test_derive_relations_n2_empty():
    assert derive_relations(PointConfig.default(2)) == []


def test_derive_relations_n1_unsupported():
    with pytest.raises(ValueError):
        derive_relations(PointConfig.collinear((0,)))


def test_derive_relations_default_n4():
    # frozen by solving x + a(x - 2z) + b(x - 3z) = 0 and
    # (x - z) + a(x - 2z) + b(x - 3z) = 0 by hand
    rels = derive_relations(PointConfig.default(4))
    assert [(r.i, r.a_coeff, r.b_coeff) for r in rels] == [
        (1, Fraction(-3), Fraction(2)),
        (2, Fraction(-2), Fraction(1)),
    ]
    for r in rels:
        assert verify_relation_geometrically(PointConfig.default(4), r)


def test_relation_coefficients_nonzero_across_configs():
    configs = {
        3: [((0, 1, 2), (0, 1, 0)), ((-1, Fraction(1, 2), 3), (1, 2, 1)), ((2, 3, 5), (0, 1, 1))],
        4: [((0, 1, 2, 3), (0, 1, 0)), ((-2, 0, 1, 5), (1, 1, 1)), ((0, Fraction(1, 3), 1, 4), (2, 3, 1))],
        5: [((0, 1, 2, 3, 4), (0, 1, 0)), ((-1, 0, 2, 3, 7), (1, 2, 0)), ((1, 2, 4, 8, 16), (0, 1, 2))],
    }
    for n, cases in configs.items():
        for t, q in cases:
            cfg = PointConfig.collinear(t, q)
            rels = derive_relations(cfg)
            assert len(rels) == n - 2
            for r in rels:
                assert r.a_coeff != 0 and r.b_coeff != 0
                assert verify_relation_geometrically(cfg, r)


def test_relation_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        Relation(4, 1, 0, 1)
    with pytest.raises(ValueError):
        Relation(4, 3, 1, 1)  # index out of range 1..n-2


def test_relation_polynomials_are_degree_L_trinomials():
    for n in (3, 4, 6):
        rels = derive_relations(PointConfig.default(n))
        for r in rels:
            g = r.polynomial()
            assert len(g.terms) == 3
            assert g.degree == DivisorClass.line(n)


def test_leading_terms_are_coprime_diagonal():
    for n in (3, 4, 5, 6):
        rels = derive_relations(PointConfig.default(n))
        lms = [r.polynomial().leading_monomial() for r in rels]
        assert lms == [mono_se(n, i) for i in range(1, n - 1)]
        # Buchberger's first criterion: no two leading monomials share a
        # variable, so every S-pair reduces to 0
        for m1, m2 in itertools.combinations(lms, 2):
            assert not {v for v, _ in m1} & {v for v, _ in m2}


def test_grlex_order_respects_variable_priority():
    n = 4
    assert _grlex_key(mono_se(n, 1)) > _grlex_key(mono_se(n, 3))
    assert _grlex_key(var(n, "s", 4)) > _grlex_key(var(n, "e", 1))
    assert _grlex_key(var(n, "e", 4)) > _grlex_key(var(n, "l"))
    # degree dominates
    assert _grlex_key(((2 * n, 2),)) > _grlex_key(var(n, "s", 1))


def dense_grlex_key(m):
    # the order on the full exponent vector s1..sn, e1..en, l
    return (m.lam + sum(m.sigma) + sum(m.epsilon), m.sigma + m.epsilon + (m.lam,))


def test_grlex_order_matches_the_dense_exponent_order():
    mons = [
        CoxMonomial(lam, sigma, eps)
        for lam in range(3)
        for sigma in itertools.product(range(3), repeat=3)
        for eps in itertools.product(range(2), repeat=3)
    ]
    by_dense = sorted(mons, key=dense_grlex_key)
    assert sorted(mons, key=lambda m: _grlex_key(sparse(m))) == by_dense
    assert [dense(sparse(m), 3) for m in by_dense] == by_dense


def test_normal_form_one_step():
    cfg = PointConfig.default(3)
    rels = derive_relations(cfg)
    n = 3
    nf = normal_form(monomial_poly(n, mono_se(n, 1)), rels)
    expected = GradedPolynomial(n, {mono_se(n, 2): Fraction(2), mono_se(n, 3): Fraction(-1)})
    assert nf == expected


def test_normal_form_fixed_points_and_generators():
    cfg = PointConfig.default(4)
    rels = derive_relations(cfg)
    n = 4
    standard = monomial_poly(n, mono_se(n, 3))
    assert normal_form(standard, rels) == standard
    for r in rels:
        assert normal_form(r.polynomial(), rels).is_zero()


def test_normal_form_idempotent_and_standard_supported():
    cfg = PointConfig.default(4)
    rels = derive_relations(cfg)
    for D in (DivisorClass.line(4), DivisorClass(2, (1, 1, 0, 0)), DivisorClass(2, (1, 1, 1, 1))):
        for m in enumerate_monomials(D):
            nf = normal_form(monomial_poly(4, sparse(m)), rels)
            assert not any(in_initial_ideal(dense(mono, 4)) for mono in nf.terms)
            assert normal_form(nf, rels) == nf


def test_spoly_pairs_reduce_to_zero():
    for n in (4, 5):
        rels = derive_relations(PointConfig.default(n))
        for i in range(1, len(rels) + 1):
            for j in range(i + 1, len(rels) + 1):
                assert spoly_reduce(i, j, rels).is_zero()


def test_spoly_reduce_validates_indices():
    rels = derive_relations(PointConfig.default(5))
    with pytest.raises(ValueError):
        spoly_reduce(2, 2, rels)
    with pytest.raises(ValueError):
        spoly_reduce(1, 4, rels)


def test_relations_of_another_n_are_rejected():
    # variable n + i - 1 is e[i] for one n and s or e of another index for
    # the next, so relations built for different n must not be combined
    g4 = derive_relations(PointConfig.default(4))
    g5 = derive_relations(PointConfig.default(5))
    with pytest.raises(ValueError, match="mixed number of points"):
        s_polynomial(g4[0].polynomial(), g5[1].polynomial())
    with pytest.raises(ValueError, match="mixed number of points"):
        spoly_reduce(1, 2, [g4[0], g5[1]])
    with pytest.raises(ValueError, match="mixed number of points"):
        normal_form(monomial_poly(4, mono_se(4, 1)), g4 + g5[:1])


def test_s_polynomial_cancels_leading_terms():
    rels = derive_relations(PointConfig.default(5))
    g1, g2 = rels[0].polynomial(), rels[1].polynomial()
    s = s_polynomial(g1, g2)
    # the leading monomials s1*e1 and s2*e2 are coprime: their lcm is the product
    lcm = ((0, 1), (1, 1), (5, 1), (6, 1))
    assert s.degree == DivisorClass.line(5) + DivisorClass.line(5)
    assert all(_grlex_key(m) < _grlex_key(lcm) for m in s.terms)
    assert str(s) == "(3)*s1*s4*e1*e4 + (-2)*s1*s5*e1*e5 + (-4)*s2*s4*e2*e4 + (3)*s2*s5*e2*e5"


def test_verify_relation_geometrically_perturbed_fails():
    cfg = PointConfig.default(3)
    (r,) = derive_relations(cfg)
    assert verify_relation_geometrically(cfg, r)
    bad = Relation(r.n, r.i, r.a_coeff + 1, r.b_coeff)
    assert not verify_relation_geometrically(cfg, bad)


def test_quotient_dimension_matches_standard_count():
    # normal forms of all degree-D monomials span exactly the standard ones
    for n in (3, 4):
        cfg = PointConfig.default(n)
        rels = derive_relations(cfg)
        for d in range(0, 4):
            for a in itertools.product(range(0, 3), repeat=n):
                D = DivisorClass(d, a)
                if not is_nef(D):
                    continue
                standard = list(enumerate_standard_monomials(D))
                index = {sparse(m): k for k, m in enumerate(standard)}
                vectors = []
                for m in enumerate_monomials(D):
                    nf = normal_form(monomial_poly(n, sparse(m)), rels)
                    # the rational row, scaled to integers for the oracle's rank
                    den = lcm(*(c.denominator for c in nf.terms.values()))
                    vectors.append({index[mono]: int(c * den) for mono, c in nf.terms.items()})
                if standard:
                    assert _rank_of_sparse_rows(vectors) == len(standard)


def test_graded_polynomial_rejects_mixed_degrees():
    n = 3
    with pytest.raises(ValueError, match="mixed multidegree"):
        GradedPolynomial(n, {var(n, "s", 1): 1, var(n, "l"): 1})
    # the same d and exponent of l: s1*e2 has degree L - E1 + E2
    with pytest.raises(ValueError, match="L - E1 \\+ E2 vs L$"):
        GradedPolynomial(n, {mono_se(n, 1): 1, ((0, 1), (n + 1, 1)): 1})
    # the same d, another exponent of l: l*e1*e2 has degree L - E3
    with pytest.raises(ValueError, match="L - E3 vs L$"):
        GradedPolynomial(n, {mono_se(n, 1): 1, ((n, 1), (n + 1, 1), (2 * n, 1)): 1})
    # classes equal across exponents of l: s1*e1 and l*e1*e2*e3 both have degree L
    p = GradedPolynomial(n, {mono_se(n, 1): 1, ((n, 1), (n + 1, 1), (n + 2, 1), (2 * n, 1)): 1})
    assert p.degree == DivisorClass.line(n)
    assert str(p) == "l*e1*e2*e3 + s1*e1"


def test_graded_polynomial_drops_zero_terms():
    n = 3
    p = GradedPolynomial(n, {mono_se(n, 1): 0, mono_se(n, 2): 1})
    assert list(p.terms) == [mono_se(n, 2)]
    zero = GradedPolynomial(n, {mono_se(n, 1): 0})
    assert zero.is_zero() and zero.degree is None and str(zero) == "0"


def test_relation_json_schema():
    (r,) = derive_relations(PointConfig.default(3))
    assert r.to_json() == {"i": 1, "a": "-2", "b": "1"}


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def rational_configs(draw):
    """n = 3..7 distinct rational t on y = 0 and a rational q off it: the
    config, and the t and q it was built from."""
    n = draw(st.integers(3, 7))
    t = draw(st.lists(rationals, min_size=n, max_size=n, unique=True))
    q = (draw(rationals), draw(rationals.filter(lambda y: y != 0)), draw(rationals))
    return PointConfig.collinear(t, q), t, q


def reference_relations(t, q):
    """(i, a, b) from Fraction lines through q and the points (t[i] : 0 : 1),
    each scaled to leading coefficient 1: l[i] + a*l[n-1] + b*l[n] vanishes
    at p[n], where l[n-1] does not and l[n] does, which gives a, and
    likewise at p[n-1], which gives b."""
    points = [(Fraction(x), Fraction(0), Fraction(1)) for x in t]
    q = tuple(map(Fraction, q))
    lines = []
    for p in points:
        line = Form.linear(
            q[1] * p[2] - q[2] * p[1], q[2] * p[0] - q[0] * p[2], q[0] * p[1] - q[1] * p[0]
        )
        lines.append(line.scale(1 / line.terms_sorted()[0][1]))
    n = len(points)
    out = []
    for i in range(1, n - 1):
        u, v, w = lines[i - 1], lines[n - 2], lines[n - 1]
        a = -u.evaluate(points[n - 1]) / v.evaluate(points[n - 1])
        b = -u.evaluate(points[n - 2]) / w.evaluate(points[n - 2])
        assert (u + v.scale(a) + w.scale(b)).is_zero()
        out.append((i, a, b))
    return out


@settings(max_examples=60, deadline=None)
@given(rational_configs())
def test_relations_on_random_rational_configs(case):
    cfg, t, q = case
    rels = derive_relations(cfg)
    assert [(r.i, r.a_coeff, r.b_coeff) for r in rels] == reference_relations(t, q)
    for r in rels:
        assert r.polynomial() is r.polynomial()
        assert verify_relation_geometrically(cfg, r)
        assert not verify_relation_geometrically(cfg, Relation(r.n, r.i, r.a_coeff + 1, r.b_coeff))
        assert not verify_relation_geometrically(cfg, Relation(r.n, r.i, r.a_coeff, r.b_coeff * 2))
    for i, j in itertools.combinations(range(1, len(rels) + 1), 2):
        assert spoly_reduce(i, j, rels).is_zero()


T_POOL_A = (Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(9, 2), Fraction(-5), Fraction(22, 3))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("pool", ["default", "pool-a"])
def test_division_agrees_with_sympy(pool, n):
    # an independent Groebner basis and division: sympy's, in the same
    # graded lex order s1 > ... > sn > e1 > ... > en > l
    sympy = pytest.importorskip("sympy")
    cfg = PointConfig.default(n) if pool == "default" else PointConfig.collinear(T_POOL_A[:n], q=(1, 2, 1))
    rels = derive_relations(cfg)
    s_vars = sympy.symbols(f"s1:{n + 1}")
    e_vars = sympy.symbols(f"e1:{n + 1}")
    l_var = sympy.Symbol("l")
    gens = (*s_vars, *e_vars, l_var)

    def to_sympy(p):
        # the variables s1..sn, e1..en, l are numbered 0..2n, as in gens
        total = sympy.Integer(0)
        for m, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for v, k in m:
                term *= gens[v] ** k
            total += term
        return sympy.expand(total)

    basis = [to_sympy(r.polynomial()) for r in rels]
    groebner = sympy.groebner(basis, *gens, order="grlex")
    assert set(groebner.exprs) == set(basis)

    line = DivisorClass.line(n)
    classes = (line, line + line, DivisorClass(2, (1, 1) + (0,) * (n - 2)))
    checked = [monomial_poly(n, sparse(m)) for D in classes for m in enumerate_monomials(D)]
    checked += [s_polynomial(f.polynomial(), g.polynomial()) for f, g in itertools.combinations(rels, 2)]
    for p in checked:
        _, remainder = sympy.reduced(to_sympy(p), basis, *gens, order="grlex")
        assert sympy.expand(remainder - to_sympy(normal_form(p, rels))) == 0
