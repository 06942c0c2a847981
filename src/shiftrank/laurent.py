"""Laurent polynomials K[t, t^-1] over an exact scalar field."""

from __future__ import annotations

from typing import Mapping

from .errors import BadConfig, ZeroEvaluationPoint
from .fields import Field


class LaurentPoly:
    """Finite map exponent -> nonzero scalar; the zero polynomial is the empty map."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Mapping[int, object]):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def zero(cls, field: Field) -> "LaurentPoly":
        return cls(field, {})

    @classmethod
    def const(cls, field: Field, scalar) -> "LaurentPoly":
        return cls(field, {0: scalar})

    @classmethod
    def t_power(cls, field: Field, exp: int = 1) -> "LaurentPoly":
        return cls(field, {exp: field.one})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def _check(self, other: "LaurentPoly"):
        if other.field != self.field:
            raise BadConfig("mixing Laurent polynomials over different fields")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, self.field.zero) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(self.field, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.field, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[int, object] = {}
        zero = self.field.zero
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, zero) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(self.field, out)

    def scalar_mul(self, scalar) -> "LaurentPoly":
        if not scalar:
            return LaurentPoly.zero(self.field)
        return LaurentPoly(self.field, {e: c * scalar for e, c in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k."""
        return LaurentPoly(self.field, {e + k: c for e, c in self.coeffs.items()})

    def evaluate(self, alpha):
        """Value at t = alpha; alpha must be a nonzero scalar."""
        if not alpha:
            raise ZeroEvaluationPoint("Laurent polynomials cannot be evaluated at 0")
        acc = self.field.zero
        for e, c in self.coeffs.items():
            acc = acc + c * alpha**e
        return acc

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def render(self) -> str:
        """Serialize as ``c_k*t^k ± ...`` with exponents ascending."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.field.render(self.coeffs[e])
            if e == 0:
                term = c
            elif e == 1:
                term = f"{c}*t"
            else:
                term = f"{c}*t^{e}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"LaurentPoly({self.render()})"
