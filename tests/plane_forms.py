"""Exact arithmetic on plane forms, for the tests: the Fraction reference
that the oracle's integer line products and the relations' line identities
are checked against.  The library's HomogeneousForm is only the printed
value; Form adds sums, scalar multiples, products, powers and values at
points to it.
"""

from fractions import Fraction

from coxline.oracle import HomogeneousForm


class Form(HomogeneousForm):
    __slots__ = ()

    @classmethod
    def constant(cls, c) -> "Form":
        return cls(0, {(0, 0, 0): c})

    @classmethod
    def linear(cls, cx, cy, cz) -> "Form":
        return cls(1, {(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})

    def __add__(self, other: HomogeneousForm) -> "Form":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Form(self.degree, out)

    def __sub__(self, other: HomogeneousForm) -> "Form":
        return self + Form(other.degree, other.coeffs).scale(-1)

    def scale(self, c) -> "Form":
        c = Fraction(c)
        return Form(self.degree, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other: HomogeneousForm) -> "Form":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Form(self.degree + other.degree, out)

    def __pow__(self, k: int) -> "Form":
        if k < 0:
            raise ValueError("negative power")
        out = Form.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, p) -> Fraction:
        x, y, z = (Fraction(c) for c in p)
        return sum((c * x**i * y**j * z**k for (i, j, k), c in self.coeffs.items()), Fraction(0))
