"""Tests for relation derivation, division, and the Groebner-basis checks."""

import itertools
from fractions import Fraction
from math import lcm

import pytest

from coxline.coxmono import (
    CoxMonomial,
    enumerate_monomials,
    enumerate_standard_monomials,
)
from coxline.oracle import PointConfig, _rank_of_sparse_rows
from coxline.picard import DivisorClass, is_nef
from coxline.relations import (
    GradedPolynomial,
    Relation,
    _grlex_key,
    derive_relations,
    is_standard_support,
    normal_form,
    reduce_with_trace,
    s_polynomial,
    spoly_reduce,
    verify_relation_geometrically,
)


def mono_se(n, i):
    return CoxMonomial.gen_s(n, i) * CoxMonomial.gen_e(n, i)


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
        for m1, m2 in itertools.combinations(lms, 2):
            assert m1.lcm(m2) == m1 * m2  # relatively prime


def test_grlex_order_respects_variable_priority():
    n = 4
    assert _grlex_key(mono_se(n, 1)) > _grlex_key(mono_se(n, 3))
    assert _grlex_key(CoxMonomial.gen_s(n, 4)) > _grlex_key(CoxMonomial.gen_e(n, 1))
    assert _grlex_key(CoxMonomial.gen_e(n, 4)) > _grlex_key(CoxMonomial.gen_l(n))
    # degree dominates
    assert _grlex_key(CoxMonomial.gen_l(n) * CoxMonomial.gen_l(n)) > _grlex_key(
        CoxMonomial.gen_s(n, 1)
    )


def test_normal_form_one_step():
    cfg = PointConfig.default(3)
    rels = derive_relations(cfg)
    n = 3
    nf = normal_form(GradedPolynomial.from_monomial(mono_se(n, 1)), rels)
    expected = GradedPolynomial(
        {mono_se(n, 2): Fraction(2), mono_se(n, 3): Fraction(-1)}
    )
    assert nf == expected


def test_normal_form_fixed_points_and_generators():
    cfg = PointConfig.default(4)
    rels = derive_relations(cfg)
    n = 4
    standard = GradedPolynomial.from_monomial(mono_se(n, 3))
    assert normal_form(standard, rels) == standard
    for r in rels:
        assert normal_form(r.polynomial(), rels).is_zero()


def test_normal_form_idempotent_and_standard_supported():
    cfg = PointConfig.default(4)
    rels = derive_relations(cfg)
    for D in (DivisorClass.line(4), DivisorClass(2, (1, 1, 0, 0)), DivisorClass(2, (1, 1, 1, 1))):
        for m in enumerate_monomials(D):
            nf = normal_form(GradedPolynomial.from_monomial(m), rels)
            assert is_standard_support(nf)
            assert normal_form(nf, rels) == nf


def test_reduction_trace_reconstructs_the_division():
    cfg = PointConfig.default(4)
    rels = derive_relations(cfg)
    p = GradedPolynomial.from_monomial(mono_se(4, 1) * mono_se(4, 2))
    nf, steps = reduce_with_trace(p, rels)
    rebuilt = p
    for step in steps:
        g = rels[step.divisor_index - 1].polynomial()
        rebuilt = rebuilt - g.times_monomial(step.multiplier, step.coeff)
    assert rebuilt == nf
    payload = [s.to_json() for s in steps]
    assert all(set(entry) == {"divisor", "multiplier", "coeff"} for entry in payload)


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


def test_s_polynomial_cancels_leading_terms():
    rels = derive_relations(PointConfig.default(5))
    g1, g2 = rels[0].polynomial(), rels[1].polynomial()
    s = s_polynomial(g1, g2)
    lcm = g1.leading_monomial().lcm(g2.leading_monomial())
    assert all(_grlex_key(m) < _grlex_key(lcm) for m in s.terms)


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
                index = {m: k for k, m in enumerate(standard)}
                vectors = []
                for m in enumerate_monomials(D):
                    nf = normal_form(GradedPolynomial.from_monomial(m), rels)
                    # the rational row, scaled to integers for the oracle's rank
                    den = lcm(*(c.denominator for c in nf.terms.values()))
                    vectors.append({index[mono]: int(c * den) for mono, c in nf.terms.items()})
                if standard:
                    assert _rank_of_sparse_rows(vectors) == len(standard)


def test_graded_polynomial_rejects_mixed_degrees():
    n = 3
    with pytest.raises(ValueError):
        GradedPolynomial({CoxMonomial.gen_s(n, 1): 1, CoxMonomial.gen_l(n): 1})


def test_graded_polynomial_drops_zero_terms():
    n = 3
    p = GradedPolynomial({mono_se(n, 1): 0, mono_se(n, 2): 1})
    assert list(p.terms) == [mono_se(n, 2)]
    assert GradedPolynomial({mono_se(n, 1): 0}).is_zero()


def test_relation_json_schema():
    (r,) = derive_relations(PointConfig.default(3))
    assert r.to_json() == {"i": 1, "a": "-2", "b": "1"}
