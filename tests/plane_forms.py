"""Exact arithmetic on plane forms, for the tests: the Fraction reference
that the oracle's integer line products, its printed forms and the
relations' line identities are checked against.  The library keeps a
realized form as integer terms over one denominator and only prints it;
Form holds Fraction coefficients, prints them as the library did when it
held them too, and adds sums, scalar multiples, products, powers and
values at points.
"""

from fractions import Fraction


class Form:
    """Sparse homogeneous polynomial in x, y, z: a map from exponent triples
    (summing to the degree) to nonzero Fraction coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean = {}
        for exps, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = (int(exps[0]), int(exps[1]), int(exps[2]))
            if min(exps) < 0 or sum(exps) != degree:
                raise ValueError(f"exponents {exps} do not match degree {degree}")
            clean[exps] = c
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def of(cls, form) -> "Form":
        """A realized form of the library, its integer terms divided by its
        denominator."""
        return cls(form.degree, {e: Fraction(c, form.den) for e, c in form.coeffs.items()})

    @classmethod
    def constant(cls, c) -> "Form":
        return cls(0, {(0, 0, 0): c})

    @classmethod
    def linear(cls, cx, cy, cz) -> "Form":
        return cls(1, {(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Form) and self.degree == other.degree and self.coeffs == other.coeffs

    def terms_sorted(self):
        """Terms in graded lex order with x > y > z, descending."""
        return sorted(self.coeffs.items(), key=lambda item: item[0], reverse=True)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        names = "xyz"
        parts = []
        for exps, c in self.terms_sorted():
            mono = "*".join(f"{names[k]}^{e}" if e > 1 else names[k] for k, e in enumerate(exps) if e)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [{"exps": list(e), "coeff": str(c)} for e, c in self.terms_sorted()],
        }

    def __repr__(self) -> str:
        return f"Form({self})"

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Form(self.degree, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def scale(self, c) -> "Form":
        c = Fraction(c)
        return Form(self.degree, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other: "Form") -> "Form":
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
