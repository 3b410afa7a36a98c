"""Picard lattice of the blow-up of the projective plane at n collinear points.

A class is stored as ``d*L - sum(a[i]*E[i])`` where L is the pullback of a
general line and E[1], ..., E[n] are the exceptional curves.  The
intersection form is L.L = 1, E[i].E[i] = -1, all mixed products 0.

Because the centers lie on one line, both cones of interest are simplicial
and membership reduces to coordinate checks:

* effective classes: non-negative span of L - E[1] - ... - E[n], E[1], ..., E[n];
* nef classes:       non-negative span of L, L - E[1], ..., L - E[n].

Everything here is exact integer arithmetic on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

# one message for every constructor that takes n points: DivisorClass here,
# PointConfig in the oracle
TOO_FEW_POINTS = (
    "need n >= 2 blown-up points (for a single point the surface "
    "is toric and its section ring is a free polynomial ring)"
)


@dataclass(frozen=True)
class DivisorClass:
    """Integer divisor class d*L - sum(a[i]*E[i]) with n = len(a) >= 2."""

    d: int
    a: tuple[int, ...]

    def __post_init__(self):
        # index, not int: a float, a string or a Fraction is a TypeError,
        # not truncated
        object.__setattr__(self, "d", index(self.d))
        object.__setattr__(self, "a", tuple(map(index, self.a)))
        if self.n < 2:
            raise ValueError(TOO_FEW_POINTS)

    @property
    def n(self) -> int:
        return len(self.a)

    @classmethod
    def zero(cls, n: int) -> "DivisorClass":
        return cls(0, (0,) * n)

    @classmethod
    def line(cls, n: int) -> "DivisorClass":
        """The class L."""
        return cls(1, (0,) * n)

    def _check_same_lattice(self, other: "DivisorClass"):
        if self.n != other.n:
            raise ValueError(f"classes live in different lattices: n={self.n} vs n={other.n}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_lattice(other)
        return DivisorClass(self.d + other.d, tuple(x + y for x, y in zip(self.a, other.a)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_lattice(other)
        return DivisorClass(self.d - other.d, tuple(x - y for x, y in zip(self.a, other.a)))

    def __str__(self) -> str:
        terms = []
        if self.d:
            mag = "L" if abs(self.d) == 1 else f"{abs(self.d)}L"
            terms.append(("-" if self.d < 0 else "+", mag))
        for i, ai in enumerate(self.a, start=1):
            if ai:
                mag = f"E{i}" if abs(ai) == 1 else f"{abs(ai)}E{i}"
                terms.append(("-" if ai > 0 else "+", mag))
        if not terms:
            return "0"
        sign, mag = terms[0]
        text = f"-{mag}" if sign == "-" else mag
        for sign, mag in terms[1:]:
            text += f" {sign} {mag}"
        return text

    def to_json(self) -> dict:
        return {"d": self.d, "a": list(self.a)}


@dataclass(frozen=True)
class EffectiveCoords:
    """Coordinates in the basis L - E[1] - ... - E[n], E[1], ..., E[n].

    m is the coefficient of the first generator, c[i] of E[i]; both are
    non-negative exactly on the effective cone.
    """

    m: int
    c: tuple[int, ...]


@dataclass(frozen=True)
class NefCoords:
    """Coordinates in the spanning set L, L - E[1], ..., L - E[n]."""

    b: int
    b_i: tuple[int, ...]


@dataclass(frozen=True)
class FixedPart:
    """Multiplicities of the generators removed by base-component stripping.

    l counts copies of L - E[1] - ... - E[n]; e[i] counts copies of E[i].
    """

    l: int
    e: tuple[int, ...]

    def to_json(self) -> dict:
        return {"l": self.l, "e": list(self.e)}


def choose2(k: int) -> int:
    """k*(k-1)/2 for any integer k; exact, and 0 at k = 0 or 1."""
    return k * (k - 1) // 2


def chi(D: DivisorClass) -> int:
    """Euler characteristic of O(D).

    Computed as C(d+2,2) - sum C(a[i]+1,2), which agrees with the
    Riemann-Roch value 1 + (D.D - D.K)/2 for every integer class.
    """
    return choose2(D.d + 2) - sum(choose2(ai + 1) for ai in D.a)


def is_effective(D: DivisorClass) -> bool:
    return D.d >= 0 and max(D.a) <= D.d


def effective_coords(D: DivisorClass) -> EffectiveCoords | None:
    """Coordinates in the free basis of the effective monoid, when effective."""
    if not is_effective(D):
        return None
    return EffectiveCoords(D.d, tuple(D.d - ai for ai in D.a))


def is_nef(D: DivisorClass) -> bool:
    return min(D.a) >= 0 and D.d >= sum(D.a)


def nef_coords(D: DivisorClass) -> NefCoords | None:
    """Decomposition over L, L - E[i], when nef."""
    if not is_nef(D):
        return None
    return NefCoords(D.d - sum(D.a), D.a)


def strip_base_components(D: DivisorClass) -> tuple[DivisorClass, FixedPart]:
    """Remove fixed components until the class is nef.

    Any effective-cone generator G meeting D negatively is a base component
    of the complete linear system, so subtracting it one copy at a time
    preserves the section space.  Generators are tried in the fixed order
    E[1], ..., E[n], then L - E[1] - ... - E[n], looping until nef; the
    effective monoid is free, so the removed multiset is order-independent
    while the fixed order keeps the record deterministic.  A nef class is
    returned itself, with an empty FixedPart.
    """
    if not is_effective(D):
        raise ValueError(f"cannot strip a non-effective class: {D}")
    n = D.n
    e_removed = [0] * n
    l_removed = 0
    while not is_nef(D):
        d = D.d
        a = list(D.a)
        for i in range(n):
            while a[i] < 0:  # D.E_i = a[i] < 0
                a[i] += 1
                e_removed[i] += 1
        while d < sum(a):  # D.(L - E_1 - ... - E_n) = d - sum(a) < 0
            d -= 1
            a = [ai - 1 for ai in a]
            l_removed += 1
        D = DivisorClass(d, tuple(a))
    return D, FixedPart(l_removed, tuple(e_removed))


def h0(D: DivisorClass) -> int:
    """Dimension of the section space of O(D).

    Zero off the effective cone; otherwise chi of the nef part, since
    stripping preserves sections and nef classes have no higher cohomology.
    """
    if not is_effective(D):
        return 0
    nef_part, _ = strip_base_components(D)
    return chi(nef_part)
