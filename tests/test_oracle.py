"""Tests for the interpolation oracle: configs, forms, ranks, realizations."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from coxline import oracle, picard
from coxline.coxmono import CoxMonomial, enumerate_standard_monomials
from coxline.oracle import (
    HomogeneousForm,
    PointConfig,
    constraint_rows,
    h0_rank,
    line_forms,
    monomials_of_degree,
    realize_monomial,
    verify_basis_independence,
)
from coxline.picard import DivisorClass


def dense_rank(rows):
    """Plain fractional Gauss-Jordan, written independently of the oracle's
    fraction-free sparse rank."""
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
        pv = m[rank][c]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / pv
                for j in range(c, ncols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


def densify(sparse_rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in sparse_rows]


CFG3 = PointConfig.default(3)
CFG3_ALT = PointConfig.collinear((Fraction(-1), Fraction(1, 2), Fraction(3)), q=(1, 2, 1))


def test_default_config_layout():
    assert CFG3.n == 3
    assert CFG3.t == (0, 1, 2)
    assert CFG3.points[1] == (1, 0, 1)
    assert CFG3.q == (0, 1, 0)


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


def test_line_forms_default_config():
    ly, lines = line_forms(CFG3)
    assert str(ly) == "y"
    assert [str(f) for f in lines] == ["x", "x - z", "x - 2*z"]


def test_line_forms_vanishing_conditions():
    for cfg in (CFG3, CFG3_ALT, PointConfig.default(5)):
        ly, lines = line_forms(cfg)
        for i, p in enumerate(cfg.points):
            assert lines[i].evaluate(p) == 0
            assert lines[i].evaluate(cfg.q) == 0
            assert ly.evaluate(p) == 0
            for j, other in enumerate(cfg.points):
                if j != i:
                    assert lines[i].evaluate(other) != 0


def test_line_forms_are_normalized():
    for cfg in (CFG3, CFG3_ALT):
        _, lines = line_forms(cfg)
        for f in lines:
            lead = f.terms_sorted()[0][1]
            assert lead == 1


def test_h0_rank_examples():
    assert h0_rank(CFG3, DivisorClass(2, (1, 1, 1))) == 3
    assert h0_rank(CFG3, DivisorClass.line(3)) == 3
    assert h0_rank(CFG3_ALT, DivisorClass.line(3)) == 3
    assert h0_rank(CFG3, DivisorClass(2, (2, 1, 1))) == 2
    assert h0_rank(CFG3, DivisorClass(-1, (0, 0, 0))) == 0


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
    n = 3
    s1e1 = CoxMonomial.gen_s(n, 1) * CoxMonomial.gen_e(n, 1)
    assert str(realize_monomial(CFG3, s1e1)) == "x"
    le123 = CoxMonomial(1, (0, 0, 0), (1, 1, 1))
    assert str(realize_monomial(CFG3, le123)) == "y"
    assert realize_monomial(CFG3, CoxMonomial.unit(n)) == HomogeneousForm.constant(1)


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
                form = realize_monomial(cfg, m)
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
    x = HomogeneousForm.linear(1, 0, 0)
    y = HomogeneousForm.linear(0, 1, 0)
    z = HomogeneousForm.linear(0, 0, 1)
    f = (x - z) * (x - z)
    assert f.degree == 2
    assert f.coeffs == {(2, 0, 0): 1, (1, 0, 1): -2, (0, 0, 2): 1}
    assert (f - f).is_zero()
    assert (x * y).evaluate((2, 3, 1)) == 6
    assert x**3 == x * x * x
    with pytest.raises(ValueError):
        x + f


def test_form_json_round_trip():
    _, lines = line_forms(CFG3_ALT)
    payload = lines[0].to_json()
    rebuilt = HomogeneousForm(
        payload["degree"],
        {tuple(t["exps"]): Fraction(t["coeff"]) for t in payload["terms"]},
    )
    assert rebuilt == lines[0]


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


def integer_path_configs():
    for n in (2, 3, 4):
        yield PointConfig.default(n)
        yield PointConfig.collinear(T_POOL_A[:n], q=(1, 2, 1))


def fraction_realization(cfg, lam, sigma):
    """y^lam times the lines through q and p[i], multiplied out over the
    Fraction points with no scaling: the path the integer oracle replaced."""
    form = HomogeneousForm.linear(0, 1, 0) ** lam
    q = cfg.q
    for p, s in zip(cfg.points, sigma):
        line = HomogeneousForm.linear(
            q[1] * p[2] - q[2] * p[1], q[2] * p[0] - q[0] * p[2], q[0] * p[1] - q[1] * p[0]
        )
        form = form * line**s
    return form


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
                    vec = oracle._realized_vector(cfg, lam, sigma)
                    assert all(type(c) is int for c in vec.values())
                    for form in (realize_monomial(cfg, m), fraction_realization(cfg, lam, sigma)):
                        assert form.degree == d
                        assert_rational_multiple(vec, {index[e]: c for e, c in form.coeffs.items()})


def test_integer_rows_have_the_rank_of_the_fraction_rows():
    for cfg in integer_path_configs():
        for d in range(0, 7):
            ncols = len(monomials_of_degree(d))
            for p_int, p in zip(cfg.int_points, cfg.points):
                for mult in range(1, d + 2):
                    for r_int, r in zip(oracle._point_rows(p_int, d, mult), oracle._point_rows(p, d, mult)):
                        assert_rational_multiple(r_int, r)
            # a >= 0 with sum(a) <= d + 2: the nef classes, the vanishing
            # region and the first classes past it, where the rows drop rank
            for a in itertools.product(range(d + 3), repeat=cfg.n):
                if sum(a) > d + 2:
                    continue
                D = DivisorClass(d, a)
                rows = constraint_rows(cfg, D)
                assert all(type(c) is int for row in rows for c in row.values())
                fraction_rows = [r for p, ai in zip(cfg.points, D.a) if ai > 0 for r in oracle._point_rows(p, d, ai)]
                assert dense_rank(densify(rows, ncols)) == dense_rank(densify(fraction_rows, ncols))


CFG4_POOL_A = PointConfig.collinear(T_POOL_A, q=(1, 2, 1))


def test_a_repeated_monomial_is_caught_by_the_rank():
    # one monomial replaced by a repeat of another: degree, vanishing and
    # count still pass, so only the independence check can reject it
    for cfg, D in ((CFG3, DivisorClass(4, (2, 1, 1))), (CFG4_POOL_A, DivisorClass(4, (1, 1, 1, 0)))):
        mons = list(enumerate_standard_monomials(D))
        assert len(mons) == h0_rank(cfg, D) > 1
        assert verify_basis_independence(cfg, D, mons)
        assert not verify_basis_independence(cfg, D, mons[:-1] + mons[:1])


def test_class_of_another_n_is_a_value_error():
    with pytest.raises(ValueError, match="points"):
        verify_enumerated(CFG3, DivisorClass(2, (1, 0, 0, 0)))
    with pytest.raises(ValueError, match="points"):
        verify_enumerated(CFG4_POOL_A, DivisorClass(2, (1, 0, 1)))
    # monomials of another n never have the class's degree
    mons4 = list(enumerate_standard_monomials(DivisorClass(2, (1, 0, 0, 0))))
    assert not verify_basis_independence(CFG3, DivisorClass(2, (1, 0, 0)), mons4)


def test_family_certificate_agrees_with_the_direct_rank():
    # every effective class with a_i in -1..d, nef or not: the verdict of the
    # shared family rank equals the exact rank of the class's own vectors,
    # and no class in this range needs the fallback to its own rank
    classes = certified = 0
    for cfg in integer_path_configs():
        for d in range(0, 7):
            for a in itertools.product(range(-1, d + 1), repeat=cfg.n):
                D = DivisorClass(d, a)
                if not picard.is_effective(D):
                    continue
                classes += 1
                mons = list(enumerate_standard_monomials(D))
                vectors = [oracle._realized_vector(cfg, m.lam, m.sigma) for m in mons]
                direct = oracle._rank_of_sparse_rows(vectors) == len(vectors)
                assert verify_basis_independence(cfg, D, mons) == direct
                family = oracle._independent_family(cfg, d, D.a[:-2])
                certified += family.issuperset((m.lam, m.sigma) for m in mons)
    assert certified == classes > 0
