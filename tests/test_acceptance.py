"""Acceptance suite: the full cross-verification battery at desk scale.

Every check is an exact integer or rational identity, so every tolerance is
zero.  One PASS/FAIL line is printed per criterion (visible with pytest -s).
"""

from fractions import Fraction
from math import comb

from coxline import oracle, picard, relations
from coxline.cli import nef_classes, run_sweep
from coxline.coxmono import CoxMonomial, count_at_level, enumerate_standard_monomials
from coxline.oracle import PointConfig
from coxline.picard import DivisorClass
from reference import degree_of, enumerate_monomials, in_initial_ideal

SWEEP_NS = (2, 3, 4, 5, 6)
D_MAX = 8

# three distinct collinear configurations per point count
T_POOL_A = (Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(9, 2), Fraction(-5), Fraction(22, 3))
T_POOL_B = (2, 3, 5, 7, 11, 13)


def configs_for(n):
    return (
        PointConfig.default(n),
        PointConfig.collinear(T_POOL_A[:n], q=(1, 2, 1)),
        PointConfig.collinear(T_POOL_B[:n], q=(0, 1, 1)),
    )


def _verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _classes_with_budget(n, d, budget):
    """All classes d*L - sum(a[i]E[i]) with a >= 0 and sum(a) <= budget."""
    def rec(prefix, remaining, parts):
        if parts == 0:
            yield DivisorClass(d, prefix)
            return
        for v in range(remaining + 1):
            yield from rec(prefix + (v,), remaining - v, parts - 1)

    yield from rec((), budget, n)


def test_criterion_1_five_way_dimension_identity():
    total = 0
    for n in SWEEP_NS:
        report = run_sweep(PointConfig.default(n), D_MAX)
        expected_classes = comb(D_MAX + n + 1, n + 1)
        assert report.classes_checked == expected_classes
        total += report.classes_checked
        _verdict(
            f"criterion 1 [n={n}]: standard count = closed form = chi = h0 = oracle rank "
            f"+ basis independence on all nef classes, d <= {D_MAX}",
            report.ok,
            f"{report.classes_checked} classes, {len(report.failures)} failures",
        )
    # the oracle side must not depend on which valid configuration is used
    alt = run_sweep(PointConfig.collinear(T_POOL_A[:3], q=(1, 2, 1)), D_MAX)
    _verdict(
        "criterion 1 [n=3, alternative configuration]",
        alt.ok,
        f"{alt.classes_checked} classes, {len(alt.failures)} failures",
    )
    _verdict("criterion 1: five-way dimension identity", True, f"{total} classes total")


def test_criterion_2_degree_L_census():
    ok = True
    details = []
    for n in SWEEP_NS:
        L = DivisorClass.line(n)
        cfg = PointConfig.default(n)
        all_mons = enumerate_monomials(L)
        in_ideal = sum(in_initial_ideal(m) for m in all_mons)
        checks = (
            len(all_mons) == n + 1
            and in_ideal == n - 2
            and len(enumerate_standard_monomials(L)) == 3
            and picard.h0(L) == 3
            and oracle.h0_rank(cfg, L) == 3
        )
        ok = ok and checks
        details.append(f"n={n}: {len(all_mons)} monomials, {in_ideal} in ideal")
    _verdict("criterion 2: h0(L) = 3 and the degree-L census", ok, "; ".join(details))


def test_criterion_3_relation_validity():
    ok = True
    checked = 0
    for n in (3, 4, 5, 6):
        for cfg in configs_for(n):
            rels = relations.derive_relations(cfg)
            if len(rels) != n - 2:
                ok = False
            for r in rels:
                checked += 1
                if r.a_coeff == 0 or r.b_coeff == 0:
                    ok = False
                if not relations.verify_relation_geometrically(cfg, r):
                    ok = False
    _verdict(
        "criterion 3: trinomial relations with nonzero coefficients, verified as "
        "identically-zero form combinations over 3 configs per n",
        ok,
        f"{checked} relations checked",
    )


def test_criterion_4_groebner_property():
    ok = True
    pairs = 0
    for n in (3, 4, 5, 6):
        for cfg in configs_for(n):
            rels = relations.derive_relations(cfg)
            expected_pairs = comb(n - 2, 2)
            seen = 0
            for i in range(1, len(rels) + 1):
                for j in range(i + 1, len(rels) + 1):
                    seen += 1
                    if not relations.spoly_reduce(i, j, rels).is_zero():
                        ok = False
            if seen != expected_pairs:
                ok = False
            pairs += seen
    _verdict(
        "criterion 4: every S-polynomial reduces to the zero normal form (n <= 6)",
        ok,
        f"{pairs} pairs reduced",
    )


def test_criterion_5_vanishing_region():
    ok = True
    checked = 0
    witnessed_boundary_example = False
    for n in SWEEP_NS:
        cfg = PointConfig.default(n)
        for d in range(0, D_MAX + 1):
            for D in _classes_with_budget(n, d, d + 1):
                checked += 1
                if oracle.h0_rank(cfg, D) != picard.chi(D):
                    ok = False
                if n == 3 and D == DivisorClass(2, (1, 1, 1)):
                    witnessed_boundary_example = True
    ok = ok and witnessed_boundary_example
    _verdict(
        "criterion 5: oracle rank = chi on a >= 0, d + 1 >= sum(a), d <= 8 "
        "(non-nef boundary included)",
        ok,
        f"{checked} classes checked",
    )


def test_criterion_6_per_level_counts_nonnegative():
    ok = True
    checked = 0
    for n in SWEEP_NS:
        for D in nef_classes(n, D_MAX):
            for level in range(0, D.d + 1):
                checked += 1
                if count_at_level(D, level) < 0:
                    ok = False
    _verdict(
        "criterion 6: per-level counts are non-negative before clamping on every "
        "nef class in the sweep",
        ok,
        f"{checked} (class, level) pairs",
    )


def test_criterion_7_complete_intersection_numerology():
    ok = True
    for n in SWEEP_NS:
        # l, s1..sn, e1..en, counted by their pairwise distinct degrees
        zero = (0,) * n
        units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
        gens = [CoxMonomial(1, zero, zero)] + [CoxMonomial(0, u, zero) for u in units]
        gens += [CoxMonomial(0, zero, u) for u in units]
        n_gens = len({degree_of(m) for m in gens})
        n_rels = len(relations.derive_relations(PointConfig.default(n)))
        if n_gens != 2 * n + 1 or n_rels != n - 2 or n_gens - n_rels != n + 3:
            ok = False
    _verdict(
        "criterion 7: 2n+1 generators, n-2 relations, difference n+3",
        ok,
        f"n in {SWEEP_NS}",
    )


def test_criterion_8_negative_controls():
    # (a) a perturbed relation coefficient must be caught geometrically
    perturbed_caught = True
    for n in (3, 4, 5, 6):
        cfg = PointConfig.default(n)
        r = relations.derive_relations(cfg)[0]
        bad = relations.Relation(r.n, r.i, r.a_coeff + 1, r.b_coeff)
        if relations.verify_relation_geometrically(cfg, bad):
            perturbed_caught = False
    _verdict(
        "criterion 8a: perturbed relation coefficient triggers geometric failure",
        perturbed_caught,
    )

    # (b) moving one point off the base line must break the sweep
    bent = PointConfig.explicit([(0, 1, 1), (1, 0, 1), (2, 0, 1)], q=(0, 1, 0))
    report = run_sweep(bent, 4)
    flagged = [
        f
        for f in report.failures
        if f["divisor"] is not None
        and sum(1 for ai in f["divisor"]["a"] if ai > 0) >= 3
        and sum(f["divisor"]["a"]) >= 2
    ]
    _verdict(
        "criterion 8b: non-collinear configuration breaks the sweep on a class "
        "with three positive multiplicities",
        bool(flagged),
        f"{len(report.failures)} failures, e.g. {flagged[0] if flagged else None}",
    )

    # the stripping identity also notices: a double point plus two simple
    # points only gain a section when all three are collinear
    D = DivisorClass(2, (2, 1, 1))
    good = PointConfig.default(3)
    assert picard.h0(D) == 2 == oracle.h0_rank(good, D)
    _verdict(
        "criterion 8b': stripping equality detects the bent configuration too",
        oracle.h0_rank(bent, D) != picard.h0(D),
        f"bent oracle rank {oracle.h0_rank(bent, D)} vs stripped h0 {picard.h0(D)}",
    )
