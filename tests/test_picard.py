"""Lattice-side tests: intersection form, cones, stripping, section counts."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxline import oracle
from coxline.picard import (
    DivisorClass,
    chi,
    choose2,
    effective_coords,
    h0,
    is_effective,
    is_nef,
    nef_coords,
    strip_base_components,
)
from reference import (
    canonical_class,
    effective_divisor,
    exceptional,
    fixed_divisor,
    fixed_is_empty,
    intersect,
    nef_divisor,
)


def brute_intersect(A, B):
    """Expand the bilinear form over the basis: L.L = 1, E_i.E_i = -1."""
    total = A.d * B.d
    for x, y in zip(A.a, B.a):
        total += (-x) * (-y) * (-1)
    return total


def small_classes(n, d_range, a_range):
    for d in d_range:
        for a in itertools.product(a_range, repeat=n):
            yield DivisorClass(d, a)


def test_intersection_basis_values():
    L = DivisorClass.line(3)
    E1 = exceptional(3, 1)
    assert intersect(L, L) == 1
    assert intersect(L - E1, E1) == 1
    assert intersect(E1, E1) == -1
    assert intersect(L, E1) == 0


def test_intersection_line_minus_all_squares():
    # (L - E1 - E2 - E3)^2 = 1 - 3 = -2, frozen from expanding the form
    D = DivisorClass(1, (1, 1, 1))
    assert intersect(D, D) == -2
    assert brute_intersect(D, D) == -2


def test_intersection_matches_brute_force():
    classes = list(small_classes(3, range(-2, 3), range(-2, 3)))
    for A in classes[::7]:
        for B in classes[::11]:
            assert intersect(A, B) == brute_intersect(A, B)


def test_intersection_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(DivisorClass.line(3), DivisorClass.line(4))


def test_classes_of_different_n_do_not_add():
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="different lattices"):
            op(DivisorClass.line(3), DivisorClass.line(4))


def test_canonical_class():
    K = canonical_class(3)
    assert K == DivisorClass(-3, (-1, -1, -1))
    assert not is_effective(K)
    assert intersect(K, DivisorClass.line(3)) == -3


def test_chi_examples():
    assert chi(DivisorClass.zero(3)) == 1
    assert chi(DivisorClass.line(3)) == 3
    # C(5,2) - 3*C(2,2) = 10 - 3
    assert chi(DivisorClass(3, (1, 1, 1))) == 7


def test_chi_matches_riemann_roch_everywhere():
    # chi = 1 + (D.D - D.K)/2 must hold as an integer identity for all classes
    for n in (2, 3, 4):
        K = canonical_class(n)
        for D in small_classes(n, range(-3, 4), range(-2, 3)):
            rr = intersect(D, D) - intersect(D, K)
            assert rr % 2 == 0
            assert chi(D) == 1 + rr // 2


def test_choose2_convention():
    assert [choose2(k) for k in (-2, -1, 0, 1, 2, 3)] == [3, 1, 0, 0, 1, 3]


def test_effectivity_examples():
    E1 = exceptional(3, 1)
    assert is_effective(E1)
    assert effective_coords(E1).m == 0
    assert effective_coords(E1).c == (1, 0, 0)
    assert not is_effective(DivisorClass(2, (3, 0, 0)))
    zero = DivisorClass.zero(3)
    assert is_effective(zero)
    assert effective_coords(zero).m == 0
    assert effective_coords(zero).c == (0, 0, 0)


def test_nef_examples():
    L = DivisorClass.line(3)
    E1 = exceptional(3, 1)
    assert is_nef(L - E1)
    assert not is_nef(DivisorClass(2, (1, 1, 1)))
    assert not is_nef(E1)


def test_coordinate_round_trips():
    for n in (2, 3, 4):
        for D in small_classes(n, range(0, 4), range(-2, 4)):
            eff = effective_coords(D)
            if eff is not None:
                assert effective_divisor(eff) == D
                assert eff.m == D.d
                assert eff.c == tuple(D.d - ai for ai in D.a)
            nef = nef_coords(D)
            if nef is not None:
                assert nef_divisor(nef) == D
                assert nef.b == D.d - sum(D.a)
                assert nef.b_i == D.a


def test_nef_implies_effective():
    for n in (2, 3, 4):
        for D in small_classes(n, range(-1, 5), range(-2, 5)):
            if is_nef(D):
                assert is_effective(D)


def test_nef_iff_nonnegative_against_effective_generators():
    # nefness is exactly non-negative intersection with the effective generators
    for n in (2, 3):
        gens = [exceptional(n, i) for i in range(1, n + 1)]
        gens.append(DivisorClass(1, (1,) * n))
        for D in small_classes(n, range(-1, 4), range(-2, 4)):
            assert is_nef(D) == all(intersect(D, G) >= 0 for G in gens)


def test_strip_examples():
    nef_part, removed = strip_base_components(DivisorClass(2, (2, 1, 1)))
    assert nef_part == DivisorClass(1, (1, 0, 0))
    assert removed.l == 1 and removed.e == (0, 0, 0)

    D = DivisorClass(2, (1, 1, 0))  # already nef
    nef_part, removed = strip_base_components(D)
    assert nef_part == D
    assert fixed_is_empty(removed)

    nef_part, removed = strip_base_components(DivisorClass(0, (-2, 0, 0)))
    assert nef_part == DivisorClass.zero(3)
    assert removed.l == 0 and removed.e == (2, 0, 0)


def test_strip_rejects_non_effective():
    with pytest.raises(ValueError):
        strip_base_components(DivisorClass(2, (3, 0, 0)))


def test_strip_output_is_nef_and_accounts_for_input():
    # in the free effective basis, the removed multiset is exactly the
    # coordinate difference, which also bounds the number of steps
    for n in (2, 3, 4):
        for D in small_classes(n, range(0, 5), range(-2, 5)):
            if not is_effective(D):
                continue
            nef_part, removed = strip_base_components(D)
            assert is_nef(nef_part)
            assert nef_part + fixed_divisor(removed) == D
            coords, nef_coords_ = effective_coords(D), effective_coords(nef_part)
            assert removed.l == coords.m - nef_coords_.m
            assert removed.e == tuple(c - cn for c, cn in zip(coords.c, nef_coords_.c))
            steps = removed.l + sum(removed.e)
            assert steps <= coords.m + sum(coords.c)


def test_strip_preserves_sections_at_every_step():
    # peel one generator at a time in the library's order and watch the oracle
    cfg = oracle.PointConfig.default(3)
    for D in small_classes(3, range(0, 4), range(-1, 4)):
        if not is_effective(D):
            continue
        expected = oracle.h0_rank(cfg, D)
        current = D
        while not is_nef(current):
            stepped = False
            for i in range(1, 4):
                if current.a[i - 1] < 0:
                    current = current - exceptional(3, i)
                    stepped = True
                    break
            if not stepped:
                current = current - DivisorClass(1, (1, 1, 1))
            assert oracle.h0_rank(cfg, current) == expected
        assert chi(current) == expected


@st.composite
def classes(draw):
    """A class with n = 2..5 and entries up to 10^4, a third of them on the
    boundary d + 1 = sum(a) of the vanishing region.  Stripping still takes
    one loop turn per removed copy, so larger entries only cost time."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(0, 10**4))
    if draw(st.integers(0, 2)) == 0:
        cuts = sorted(draw(st.lists(st.integers(0, d + 1), min_size=n - 1, max_size=n - 1)))
        a = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, d + 1]))
    else:
        a = tuple(draw(st.lists(st.integers(-(10**4), 10**4), min_size=n, max_size=n)))
    return DivisorClass(d, a)


@settings(max_examples=200, deadline=None)
@given(classes())
def test_strip_is_idempotent_and_fixes_nef_classes(D):
    assume(is_effective(D))
    nef_part, removed = strip_base_components(D)
    assert is_nef(nef_part) and nef_part + fixed_divisor(removed) == D
    again, removed_again = strip_base_components(nef_part)
    assert again == nef_part and fixed_is_empty(removed_again)
    if is_nef(D):
        assert nef_part == D and fixed_is_empty(removed) and removed.e == (0,) * D.n


def test_h0_examples():
    assert h0(DivisorClass.line(3)) == 3
    assert h0(DivisorClass(2, (3, 0, 0))) == 0
    assert h0(DivisorClass(2, (2, 1, 1))) == 2  # strips to L - E1


def test_h0_matches_oracle_on_effective_classes():
    # effective non-nef classes are the interesting ones: the formula path
    # goes through stripping, the oracle path through rank deficiency
    for n in (2, 3):
        cfg = oracle.PointConfig.default(n)
        for D in small_classes(n, range(0, 5), range(-2, 5)):
            if is_effective(D):
                assert h0(D) == oracle.h0_rank(cfg, D)
            else:
                assert h0(D) == 0


def test_counting_inequality_on_nef_classes():
    # d - l >= sum(max(a_k - l, 0)) for every level l <= d
    for n in (2, 3, 4):
        for D in small_classes(n, range(0, 6), range(0, 6)):
            if not is_nef(D):
                continue
            for level in range(0, D.d + 1):
                assert D.d - level >= sum(max(ak - level, 0) for ak in D.a)


def test_n_must_be_at_least_two():
    with pytest.raises(ValueError):
        DivisorClass(1, (0,))
    with pytest.raises(ValueError):
        DivisorClass(1, ())


def test_entries_must_be_integers():
    # ints and bools pass; what int() would truncate or parse is refused
    assert DivisorClass(True, (2, False)) == DivisorClass(1, (2, 0))
    for d, a in ((2.7, (1, 3)), (2, (1.9, 3)), (2, (1, "3")), ("2", (1, 3)), (Fraction(4, 2), (1, 1))):
        with pytest.raises(TypeError):
            DivisorClass(d, a)


def test_arbitrary_precision():
    big = 10**30
    D = DivisorClass(3 * big, (big, big, big))
    assert intersect(D, D) == 9 * big * big - 3 * big * big
    assert is_nef(D)
    assert chi(D) == choose2(3 * big + 2) - 3 * choose2(big + 1)
