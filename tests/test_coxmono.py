"""Tests for monomial degrees and standard-monomial enumeration/counting."""

import itertools
from fractions import Fraction

import pytest

from coxline.coxmono import (
    CoxMonomial,
    StandardRun,
    count_at_level,
    count_standard_monomials_closed_form,
    enumerate_standard_monomials,
    head_in_initial_ideal,
)
from coxline.oracle import PointConfig, basis_failure
from coxline.picard import DivisorClass, chi, is_effective, is_nef
from reference import degree_of, enumerate_monomials, exceptional, in_initial_ideal


def brute_standard_monomials(D):
    """Exhaustive scan over all exponent vectors; independent of the
    interval-based enumeration it checks."""
    n, d, a = D.n, D.d, D.a
    out = set()
    if d < 0:
        return out
    for lam in range(d + 1):
        for sigma in itertools.product(range(d + 1), repeat=n):
            if lam + sum(sigma) != d:
                continue
            eps = tuple(lam + s - ai for s, ai in zip(sigma, a))
            if min(eps) < 0:
                continue
            if any(sigma[i] > 0 and eps[i] > 0 for i in range(n - 2)):
                continue
            out.add(CoxMonomial(lam, sigma, eps))
    return out


def sweep_classes(n, d_max, a_range):
    for d in range(0, d_max + 1):
        for a in itertools.product(a_range, repeat=n):
            yield DivisorClass(d, a)


def test_exponents_must_be_integers():
    # ints and bools pass; what int() would truncate or parse is refused
    assert CoxMonomial(True, (0, 1), (False, 0)) == CoxMonomial(1, (0, 1), (0, 0))
    for lam, sigma, eps in ((1.5, (0, 1), (0, 0)), (1, (0, 1.0), (0, 0)), (1, (0, 1), ("0", 0)), (Fraction(1), (0, 1), (0, 0))):
        with pytest.raises(TypeError):
            CoxMonomial(lam, sigma, eps)


def test_generator_degrees():
    zero = (0, 0, 0, 0)
    assert degree_of(CoxMonomial(1, zero, zero)) == DivisorClass(1, (1, 1, 1, 1))
    assert degree_of(CoxMonomial(0, (0, 1, 0, 0), zero)) == DivisorClass(1, (0, 1, 0, 0))
    assert degree_of(CoxMonomial(0, zero, (0, 0, 1, 0))) == DivisorClass(0, (0, 0, -1, 0))


def test_degree_examples():
    n = 3
    L = DivisorClass.line(n)
    s1e1 = CoxMonomial(0, (1, 0, 0), (1, 0, 0))
    assert degree_of(s1e1) == L
    le123 = CoxMonomial(1, (0, 0, 0), (1, 1, 1))
    assert degree_of(le123) == L
    unit = CoxMonomial(0, (0, 0, 0), (0, 0, 0))
    assert degree_of(unit) == DivisorClass.zero(n)
    # the basis check's arithmetic on a run of length one agrees with
    # building the class, also for a monomial of another n
    mons = (s1e1, le123, unit, CoxMonomial(2, (1, 0, 3), (0, 2, 1)), CoxMonomial(0, (0,) * 4, (0,) * 4))
    for m in mons:
        for D in (L, DivisorClass.zero(n), DivisorClass(6, (3, 0, 4)), DivisorClass.zero(4), degree_of(m)):
            assert is_effective(D)
            failure = basis_failure(PointConfig.default(D.n), D, [m])
            assert (failure == "degree") == (degree_of(m) != D)


def test_degree_additive_under_multiplication():
    mons = [
        CoxMonomial(l, s, e)
        for l in range(2)
        for s in itertools.product(range(2), repeat=3)
        for e in itertools.product(range(2), repeat=3)
    ]
    for m1 in mons[::5]:
        for m2 in mons[::7]:
            product = CoxMonomial(
                m1.lam + m2.lam,
                [x + y for x, y in zip(m1.sigma, m2.sigma)],
                [x + y for x, y in zip(m1.epsilon, m2.epsilon)],
            )
            assert degree_of(product) == degree_of(m1) + degree_of(m2)


def test_enumerate_degree_L():
    n = 3
    found = enumerate_standard_monomials(DivisorClass.line(n))
    expected = {
        CoxMonomial(0, (0, 1, 0), (0, 1, 0)),
        CoxMonomial(0, (0, 0, 1), (0, 0, 1)),
        CoxMonomial(1, (0, 0, 0), (1, 1, 1)),
    }
    assert set(found) == expected
    assert len(found) == 3


def test_enumerate_zero_class():
    found = enumerate_standard_monomials(DivisorClass.zero(3))
    assert tuple(found) == (CoxMonomial(0, (0, 0, 0), (0, 0, 0)),)


def test_enumerate_frozen_count():
    # brute force over lam + sum(sigma) <= 3 gives 7 = C(5,2) - 3
    D = DivisorClass(3, (1, 1, 1))
    assert len(brute_standard_monomials(D)) == 7
    assert len(enumerate_standard_monomials(D)) == 7


def test_enumeration_matches_brute_force():
    for n in (2, 3, 4):
        for D in sweep_classes(n, 3, range(-2, 3)):
            got = enumerate_standard_monomials(D)
            assert set(got) == brute_standard_monomials(D)
            assert len(set(got)) == len(got)  # pairwise distinct


def test_standard_monomials_are_held_as_level_runs():
    D = DivisorClass(3, (1, 1, 1))
    mons = enumerate_standard_monomials(D)
    listed = tuple(mons)
    assert len(mons) == len(listed) == 7
    # one run per level lam, in ascending lam, of lengths (1, 3, 2, 1)
    assert [run.lam for run in mons.runs] == [0, 1, 2, 3]
    assert [len(tuple(run.monomials())) for run in mons.runs] == [1, 3, 2, 1]
    for m in listed:
        assert tuple(StandardRun.of(m).monomials()) == (m,)


def test_enumeration_canonical_order():
    for D in sweep_classes(3, 4, range(0, 3)):
        mons = enumerate_standard_monomials(D)
        keys = [(m.lam, m.sigma[-2]) for m in mons]
        assert keys == sorted(keys)


def test_enumerated_monomials_have_the_degree_and_avoid_initial_ideal():
    for D in sweep_classes(3, 4, range(-1, 4)):
        for m in enumerate_standard_monomials(D):
            assert degree_of(m) == D
            assert not in_initial_ideal(m)


def test_the_initial_ideal_cut_agrees_with_the_reference():
    # head_in_initial_ideal is the cut that enumeration and the level-block
    # certificate read; the reference reads the whole exponent vectors
    seen = set()
    for n in (3, 4, 5):
        for D in sweep_classes(n, 3, range(-1, 4)):
            for m in enumerate_monomials(D):
                cut = in_initial_ideal(m)
                assert head_in_initial_ideal(m.sigma[:-2], m.epsilon[:-2]) == cut, m
                seen.add(cut)
    assert seen == {False, True}


def test_closed_form_levels_frozen():
    # S-values (1, 3, 2, 1) for 3L - E1 - E2 - E3
    D = DivisorClass(3, (1, 1, 1))
    assert [count_at_level(D, lam) for lam in range(4)] == [1, 3, 2, 1]
    assert count_standard_monomials_closed_form(D) == 7


def test_closed_form_trivial_cases():
    assert count_standard_monomials_closed_form(DivisorClass.zero(3)) == 1
    for d in range(0, 6):
        D = DivisorClass(d, (0, 0, 0))
        assert count_standard_monomials_closed_form(D) == (d + 2) * (d + 1) // 2


def test_closed_form_rejects_non_nef():
    with pytest.raises(ValueError):
        count_standard_monomials_closed_form(DivisorClass(1, (1, 1, 0)))


def test_closed_form_equals_enumeration_and_chi_on_nef():
    for n in (2, 3, 4):
        for D in sweep_classes(n, 4, range(0, 5)):
            if not is_nef(D):
                continue
            closed = count_standard_monomials_closed_form(D)
            assert closed == len(enumerate_standard_monomials(D))
            assert closed == chi(D)


def hilbert_function(D):
    """dim of the quotient ring in degree D = number of standard monomials."""
    return len(enumerate_standard_monomials(D))


def test_hilbert_function_examples():
    assert hilbert_function(DivisorClass.line(5)) == 3
    E1 = exceptional(3, 1)
    assert hilbert_function(E1) == 1
    assert hilbert_function(DivisorClass(2, (0, 0, 0))) == 6


def test_degree_L_census():
    # n + 1 monomials of degree L, n - 2 of them in the initial ideal
    for n in range(2, 7):
        L = DivisorClass.line(n)
        all_mons = enumerate_monomials(L)
        assert len(all_mons) == n + 1
        assert sum(in_initial_ideal(m) for m in all_mons) == n - 2
        assert hilbert_function(L) == 3


def test_enumerate_monomials_matches_unconstrained_brute_force():
    for n in (2, 3):
        for D in sweep_classes(n, 3, range(-1, 3)):
            brute = set()
            for lam in range(D.d + 1) if D.d >= 0 else ():
                for sigma in itertools.product(range(D.d + 1), repeat=n):
                    if lam + sum(sigma) != D.d:
                        continue
                    eps = tuple(lam + s - ai for s, ai in zip(sigma, D.a))
                    if min(eps) >= 0:
                        brute.add(CoxMonomial(lam, sigma, eps))
            assert set(enumerate_monomials(D)) == brute


def test_n2_has_no_initial_ideal():
    # with two points the quotient is the whole free ring in every degree
    for D in sweep_classes(2, 4, range(-1, 4)):
        assert hilbert_function(D) == len(enumerate_monomials(D))


def test_monomial_validation():
    with pytest.raises(ValueError):
        CoxMonomial(-1, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        CoxMonomial(0, (0, -1), (0, 0))
    with pytest.raises(ValueError):
        CoxMonomial(0, (0, 0, 0), (0, 0))
    with pytest.raises(ValueError):
        CoxMonomial(0, (0,), (0,))


def test_monomial_str():
    assert str(CoxMonomial(0, (0, 0, 0), (0, 0, 0))) == "1"
    m = CoxMonomial(2, (0, 1, 0), (0, 0, 3))
    assert str(m) == "l^2*s2*e3^3"
