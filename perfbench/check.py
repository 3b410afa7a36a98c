"""Independent checks of coxline's answers.

Nothing here imports coxline.  Dimensions come from an interpolation matrix
built by Taylor expansion at each point and ranked by sympy, cone membership
from the defining inequalities, stripping from a bisection on the number of
copies of L - E1 - ... - En, and relation coefficients from lines that sympy
draws through q and each point.  Every check returns a list of problems; an
empty list means the answer is right.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import sympy
from sympy.polys.matrices import DomainMatrix

# ----------------------------------------------------------------- lattice side


def chi(d: int, a) -> int:
    """C(d+2, 2) - sum C(a_i+1, 2), written out for every integer d and a_i."""
    return (d + 2) * (d + 1) // 2 - sum(ai * (ai + 1) // 2 for ai in a)


def is_effective(d: int, a) -> bool:
    return d >= 0 and all(ai <= d for ai in a)


def is_nef(d: int, a) -> bool:
    return all(ai >= 0 for ai in a) and sum(a) <= d


def stripped(d: int, a):
    """Nef part and removed copies (l, e) of an effective class, by bisection.

    k copies of L - sum E leave d - k and max(a_i - k, 0) once the E_i that
    go negative are removed; the nef condition d - k >= sum max(a_i - k, 0)
    holds at k = d, and its left minus right side is concave in k, so it holds
    on an interval ending at d and the smallest such k is found by bisection.
    """
    pos = [max(ai, 0) for ai in a]

    def nef_after(k):
        return d - k >= sum(max(p - k, 0) for p in pos)

    lo, hi = 0, d
    while lo < hi:
        mid = (lo + hi) // 2
        if nef_after(mid):
            hi = mid
        else:
            lo = mid + 1
    k = lo
    part = (d - k, [max(p - k, 0) for p in pos])
    removed = (k, [max(k - ai, 0) for ai in a])
    return part, removed


def h0(d: int, a) -> int:
    if not is_effective(d, a):
        return 0
    (dn, an), _ = stripped(d, a)
    return chi(dn, an)


# -------------------------------------------------------------- geometric side


def _columns(d: int):
    """Exponents (i, j) of x^i y^j z^(d-i-j)."""
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def interpolation_rows(d: int, a, t):
    """Vanishing to order a_i at (t_i : 0 : 1), as rows over the columns.

    In the chart z = 1 put x = X + t_i; the form vanishes to order m at the
    point when every coefficient of X^u y^v with u + v < m is zero, and the
    term x^i y^j contributes C(i, u) t_i^(i-u) to the coefficient of X^u y^j.
    """
    cols = _columns(d)
    rows = []
    for ti, ai in zip(t, a):
        ti = sympy.Rational(ti)
        for u in range(max(ai, 0)):
            for v in range(ai - u):
                rows.append(
                    [sympy.binomial(i, u) * ti ** (i - u) if j == v and i >= u else 0 for i, j in cols]
                )
    return rows, len(cols)


def rank(rows) -> int:
    """Rank over Q by sympy's elimination over the field QQ.

    sympy.Matrix.rank eliminates without reducing fractions, and on the
    realized forms of a rational configuration (24 x 28 at d = 6) its entries
    grow until one rank takes minutes; over QQ it takes milliseconds.
    """
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).to_field().rank() if rows else 0


def h0_by_rank(d: int, a, t) -> int:
    if d < 0:
        return 0
    rows, ncols = interpolation_rows(d, a, t)
    return ncols - rank(rows)


def rank_is_small(d: int, a) -> bool:
    """Where sympy's rank costs milliseconds, not seconds."""
    return d <= 8 and sum(m * (m + 1) // 2 for m in a if m > 0) <= 60


def vanishing_order_ok(terms, d: int, ti, ai: int) -> bool:
    """Every Taylor coefficient of order < ai at (ti : 0 : 1) is zero."""
    ti = Fraction(ti)
    for u in range(max(ai, 0)):
        for v in range(ai - u):
            total = Fraction(0)
            for (i, j, _k), c in terms.items():
                if j == v and i >= u:
                    total += comb(i, u) * ti ** (i - u) * c
            if total != 0:
                return False
    return True


def line_through(q, p):
    """Coefficients (x, y, z) of the line through q and p, leading one 1."""
    v = sympy.Matrix([sympy.Rational(c) for c in q]).cross(sympy.Matrix([sympy.Rational(c) for c in p]))
    lead = next(c for c in v if c != 0)
    return [c / lead for c in v]


# ---------------------------------------------------------------- the answers


def check_classify(payload, d: int, a, t):
    probs = []
    eff, nef = is_effective(d, a), is_nef(d, a)
    want = {
        "divisor": {"d": d, "a": list(a)},
        "effective": eff,
        "effective_coords": {"m": d, "c": [d - ai for ai in a]} if eff else None,
        "nef": nef,
        "nef_coords": {"b": d - sum(a), "b_i": list(a)} if nef else None,
        "chi": chi(d, a),
        "h0": h0(d, a),
    }
    if eff:
        (dn, an), (k, e) = stripped(d, a)
        want["nef_part"] = {"d": dn, "a": an}
        want["removed"] = {"l": k, "e": e}
    else:
        want["nef_part"] = want["removed"] = None
    for key, value in want.items():
        if payload.get(key) != value:
            probs.append(f"classify {key}: expected {value}, got {payload.get(key)}")
    probs += _rank_agrees(payload.get("h0"), d, a, t)
    return probs


def check_h0(payload, d: int, a, t):
    probs = []
    if payload.get("h0") != h0(d, a):
        probs.append(f"h0: expected {h0(d, a)}, got {payload.get('h0')}")
    if payload.get("divisor") != {"d": d, "a": list(a)}:
        probs.append(f"h0 divisor echoed as {payload.get('divisor')}")
    return probs + _rank_agrees(payload.get("h0"), d, a, t)


def _rank_agrees(got, d, a, t):
    if not rank_is_small(d, a):
        return []
    ranked = h0_by_rank(d, a, t)
    return [] if got == ranked else [f"h0 {got} but the interpolation rank gives {ranked}"]


def check_basis(payload, d: int, a, t):
    want = h0(d, a)
    forms = [m["form"] for m in payload.get("monomials", [])]
    probs = []
    if payload.get("h0") != want:
        probs.append(f"basis h0: expected {want}, got {payload.get('h0')}")
    if len(forms) != want:
        probs.append(f"basis has {len(forms)} forms, h0 is {want}")
    if want == 0:
        return probs
    if payload.get("independent") is not True:
        probs.append("basis not reported independent")
    cols = {(i, j, d - i - j): c for c, (i, j) in enumerate(_columns(d))}
    vectors = []
    for f in forms:
        if f["degree"] != d:
            probs.append(f"form of degree {f['degree']} in degree {d}")
            continue
        terms = {tuple(term["exps"]): Fraction(term["coeff"]) for term in f["terms"]}
        for i, (ti, ai) in enumerate(zip(t, a), start=1):
            if not vanishing_order_ok(terms, d, ti, ai):
                probs.append(f"a form does not vanish to order {ai} at p{i}")
        row = [0] * len(cols)
        for exps, c in terms.items():
            row[cols[exps]] = sympy.Rational(c.numerator, c.denominator)
        vectors.append(row)
    if rank(vectors) != len(forms):
        probs.append(f"the {len(forms)} forms have rank {rank(vectors)}")
    return probs + _rank_agrees(payload.get("h0"), d, a, t)


def check_relations(payload, t, q):
    n = len(t)
    probs = []
    rels = payload.get("relations", [])
    if len(rels) != max(n - 2, 0):
        probs.append(f"{len(rels)} relations for n = {n}")
    lines = [line_through(q, (ti, 0, 1)) for ti in t]
    for r in rels:
        i = r["i"]
        ca, cb = sympy.Rational(r["a"]), sympy.Rational(r["b"])
        residual = [lines[i - 1][k] + ca * lines[n - 2][k] + cb * lines[n - 1][k] for k in range(3)]
        if any(c != 0 for c in residual) or ca == 0 or cb == 0:
            probs.append(f"relation {i}: l_{i} + ({ca}) l_{n - 1} + ({cb}) l_{n} = {residual}")
    pairs = {(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)}
    got = {(i, j) for i, j, zero in payload.get("spoly", []) if zero}
    if got != pairs or len(payload.get("spoly", [])) != comb(max(n - 2, 0), 2):
        probs.append(f"S-pairs reduced to zero: {sorted(got)}, expected all of {sorted(pairs)}")
    if payload.get("ok") is not True:
        probs.append("relations not reported ok")
    return probs


def check_verify(payload, pairs):
    """pairs: the (n, d_max) of each report, in order."""
    probs = []
    reports = payload.get("reports", [])
    if [(r["n"], r["d_max"]) for r in reports] != list(pairs):
        probs.append(f"verify reports for {[(r['n'], r['d_max']) for r in reports]}, asked {list(pairs)}")
    for r in reports:
        want = comb(r["d_max"] + r["n"] + 1, r["n"] + 1)
        if not (r["ok"] and r["complete"] and not r["failures"] and r["classes_checked"] == want):
            probs.append(
                f"verify n={r['n']} dmax={r['d_max']}: ok={r['ok']} complete={r['complete']} "
                f"classes={r['classes_checked']} (expected {want}) failures={r['failures'][:2]}"
            )
    if payload.get("ok") is not True:
        probs.append("verify not reported ok")
    return probs
