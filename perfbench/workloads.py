"""The three workloads, generated from a seed.

Each workload has a fixed shape and a seeded content: the seed changes the
classes, the configurations and the order of the requests, never how many
requests of each kind and size there are, so the work per pass barely moves
from one seed to the next.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

# sweep-default: one pass verifies these (n, d_max) pairs on the built-in
# configuration t_i = i - 1, q = (0 : 1 : 0).  They take in the top degree
# d = 8 and the top point count n = 6 of the acceptance range n = 2..6.
DEFAULT_PAIRS = ((3, 8), (5, 5), (6, 4))

# sweep-rational: the acceptance suite's configuration and one seeded
# configuration of the same shape, each verified up to its d_max.
POOL_A_T = ("-1", "1/2", "3", "9/2", "-5", "22/3")
POOL_A_Q = ("1", "2", "1")
RATIONAL_PAIRS = ((4, 6), (5, 4))  # (n, d_max) for pool A, then the seeded one

# queries: how many requests of each kind one round sends
NON_EFFECTIVE = 100
STRIP_LADDER = 20  # copies of L - E1 - ... - En from 10 to 10^5, for classify and for h0
BASIS = 60
RELATIONS_N = tuple(range(2, 17))
SMALL_VERIFY = ((3, 2), (4, 2), (5, 1), (6, 1))
REPEATS_BASIS = 25
REPEATS_NON_EFFECTIVE = 15


class Call:
    """One request: the argument vector for cli.main and what checks it."""

    def __init__(self, kind, argv, n, d=None, a=None, t=None, q=("0", "1", "0"), pairs=None, cfg_args=None):
        self.kind, self.argv, self.n, self.d, self.a = kind, argv, n, d, a
        self.t = t if t is not None else tuple(str(i) for i in range(n))
        self.q, self.pairs = q, pairs
        # the arguments that select this call's point configuration
        self.cfg_args = cfg_args if cfg_args is not None else ["--n", str(n)]


def _class_text(d, a):
    return " ".join(str(v) for v in (d, *a))


def write_config(path, t, q):
    with open(path, "w") as fh:
        fh.write(f"n = {len(t)}\nt = {', '.join(t)}\nq = {', '.join(q)}\n")


def seeded_rational_config(rng, n):
    """Distinct t_i = p_i / r_i with |t_i| < 6 and one denominator each from
    2, 3, 5, 7, 4, 6, and q = (u/3 : v/2 : 1): the seed moves the values, the
    sizes of the coefficients stay about those of the acceptance suite's."""
    dens = [2, 3, 5, 7, 4, 6][:n]
    rng.shuffle(dens)
    t = []
    for r in dens:
        while True:
            v = Fraction(rng.choice([p for p in range(-6 * r, 6 * r + 1) if p % r]), r)
            if v not in t:
                t.append(v)
                break
    q = (Fraction(rng.choice((-2, -1, 1, 2)), 3), Fraction(rng.choice((-1, 1)), 2), Fraction(1))
    return tuple(str(v) for v in t), tuple(str(v) for v in q)


def sweep_calls(workload, seed, config_dir):
    if workload == "sweep-default":
        return [
            Call("verify", ["--json", "verify", "--n-list", str(n), "--dmax", str(d)], n, pairs=[(n, d)])
            for n, d in DEFAULT_PAIRS
        ]
    rng = random.Random(seed)
    (n_a, d_a), (n_s, d_s) = RATIONAL_PAIRS
    t_s, q_s = seeded_rational_config(rng, n_s)
    calls = []
    for name, t, q, d in (("pool-a", POOL_A_T[:n_a], POOL_A_Q, d_a), ("seeded", t_s, q_s, d_s)):
        path = os.path.join(config_dir, f"{name}-n{len(t)}.cfg")
        write_config(path, t, q)
        argv = ["--json", "--config", path, "verify", "--dmax", str(d)]
        calls.append(Call("verify", argv, len(t), t=t, q=q, pairs=[(len(t), d)], cfg_args=["--config", path]))
    return calls


def sampled_sweep_classes(calls, seed, per_call=4):
    """Nef classes near the top degree of each sweep, as (configuration
    arguments, t, d, a), for the untimed check of coxline's basis of each."""
    rng = random.Random(seed + 1)
    out = []
    for c in calls:
        (n, d_max), = c.pairs
        for _ in range(per_call):
            d = rng.randint(max(d_max - 2, 0), d_max)
            budget = rng.randint(0, d)
            a = [0] * n
            for _ in range(budget):
                a[rng.randrange(n)] += 1
            out.append((c.cfg_args, c.t, d, tuple(a)))
    return out


def query_calls(seed):
    """One round of the closed-loop query stream, in sending order."""
    rng = random.Random(seed)
    base = []

    def add(kind, n, d=None, a=None):
        if kind == "relations":
            argv = ["--json", "--n", str(n), "relations"]
        else:
            argv = ["--json", "--n", str(n), kind, _class_text(d, a)]
        base.append(Call(kind, argv, n, d, tuple(a) if a is not None else None))

    for j in range(NON_EFFECTIVE):
        n = 2 + j % 15
        d = rng.randint(-6, 40)
        if d < 0:
            a = [rng.randint(-3, 10) for _ in range(n)]
        else:
            a = [rng.randint(-3, d) for _ in range(n)]
            a[rng.randrange(n)] = d + rng.randint(1, 10)
        add("classify" if j % 2 else "h0", n, d, a)

    # effective, not nef: k copies of L - sum E on top of a nef class that
    # meets L - sum E in 0, plus a few E_i where the nef part has a_i = 0,
    # so stripping removes exactly k + sum(e) copies; large k gets small n
    for kind in ("classify", "h0"):
        for j in range(STRIP_LADDER):
            k = round(10 ** (1 + 4 * j / (STRIP_LADDER - 1)))
            n = max(2, min(16, round(16 - 14 * j / (STRIP_LADDER - 1))))
            d0 = rng.randint(0, 12)
            b = [0] * n
            for _ in range(d0):
                b[rng.randrange(n)] += 1
            e = [rng.randint(0, 3) if bi == 0 else 0 for bi in b]
            add(kind, n, d0 + k, [bi + k - ei for bi, ei in zip(b, e)])

    for j in range(BASIS):
        n, d = 2 + j % 5, 3 + (j // 5) % 4
        if j % 2:  # nef
            a = [0] * n
            for _ in range(rng.randint(0, d)):
                a[rng.randrange(n)] += 1
        else:  # effective, mostly with base components
            a = [rng.randint(0, d) for _ in range(n)]
        add("basis", n, d, a)

    for n in RELATIONS_N:
        add("relations", n)
    rng.shuffle(base)

    # repeats of earlier requests, each placed after its original
    stream = list(base)
    for kind, count in (("basis", REPEATS_BASIS), ("classify/h0", REPEATS_NON_EFFECTIVE)):
        pool = [c for c in base if c.kind in kind.split("/") and (kind == "basis" or c.d < 0 or max(c.a) > c.d)]
        for original in rng.sample(pool, count):
            at = stream.index(original)
            stream.insert(rng.randint(at + 1, len(stream)), original)

    for n, d in SMALL_VERIFY:
        at = rng.randint(0, len(stream))
        argv = ["--json", "--n", str(n), "verify", "--dmax", str(d)]
        stream.insert(at, Call("verify", argv, n, pairs=[(n, d)]))
    return stream
