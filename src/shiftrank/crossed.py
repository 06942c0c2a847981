"""Elements of the algebraic crossed product: finite sums sum_i f_i t^i.

Coefficients are locally constant functions kept on the left of the shift
unit t; products renormalize immediately through t f = alpha(f) t, so
equality of elements is decidable.  The involution fixes scalars and sends
f t^i to alpha(f, -i) t^-i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import BadConfig, LevelTooSmall
from .fields import Field
from .space import ClopenSet, LocallyConstantFn, SystemConfig, level_base


class CrossedElement:
    """Finite map degree -> nonzero locally constant coefficient."""

    __slots__ = ("config", "field", "coeffs")

    def __init__(self, config: SystemConfig, field: Field,
                 coeffs: Mapping[int, LocallyConstantFn]):
        self.config = config
        self.field = field
        self.coeffs = {d: f for d, f in coeffs.items() if not f.is_zero()}

    @classmethod
    def zero(cls, config, field) -> "CrossedElement":
        return cls(config, field, {})

    @classmethod
    def from_scalar(cls, config, field, scalar) -> "CrossedElement":
        return cls(config, field, {0: LocallyConstantFn.constant(config, field, scalar)})

    @classmethod
    def one(cls, config, field) -> "CrossedElement":
        return cls.from_scalar(config, field, field.one)

    @classmethod
    def from_fn(cls, f: LocallyConstantFn) -> "CrossedElement":
        return cls(f.config, f.field, {0: f})

    @classmethod
    def from_clopen(cls, u: ClopenSet, field: Field) -> "CrossedElement":
        return cls.from_fn(LocallyConstantFn.indicator(u, field))

    @classmethod
    def shift_unit(cls, config, field, power: int = 1) -> "CrossedElement":
        """The unitary t^power."""
        return cls(config, field, {power: LocallyConstantFn.constant(config, field, field.one)})

    def coeff(self, d: int) -> LocallyConstantFn:
        f = self.coeffs.get(d)
        if f is None:
            return LocallyConstantFn.constant(self.config, self.field, self.field.zero)
        return f

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def radius(self) -> int:
        if not self.coeffs:
            return 0
        return max(f.radius for f in self.coeffs.values())

    def degrees(self) -> list[int]:
        return sorted(self.coeffs)

    def _check(self, other: "CrossedElement"):
        if other.config != self.config or other.field != self.field:
            raise BadConfig("mixing elements from different systems or fields")

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        out = dict(self.coeffs)
        for d, f in other.coeffs.items():
            g = out.get(d)
            out[d] = f if g is None else g + f
        return CrossedElement(self.config, self.field, out)

    def __neg__(self) -> "CrossedElement":
        return CrossedElement(self.config, self.field, {d: -f for d, f in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "CrossedElement") -> "CrossedElement":
        """(f t^i)(g t^j) = f * alpha(g, i) t^(i+j), extended bilinearly."""
        self._check(other)
        out: dict[int, LocallyConstantFn] = {}
        for i, f in self.coeffs.items():
            for j, g in other.coeffs.items():
                term = f * g.alpha(i)
                if term.is_zero():
                    continue
                d = i + j
                acc = out.get(d)
                out[d] = term if acc is None else acc + term
        return CrossedElement(self.config, self.field, out)

    def scalar_mul(self, scalar) -> "CrossedElement":
        return CrossedElement(
            self.config, self.field,
            {d: f.scalar_mul(scalar) for d, f in self.coeffs.items()},
        )

    def adjoint(self) -> "CrossedElement":
        """(f t^i)* = alpha(f, -i) t^-i (identity involution on scalars)."""
        return CrossedElement(
            self.config, self.field,
            {-d: f.alpha(-d) for d, f in self.coeffs.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return (
            self.config == other.config
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(frozenset((d, f) for d, f in self.coeffs.items()))

    def __repr__(self):
        if self.is_zero():
            return "CrossedElement(0)"
        return "CrossedElement(" + ", ".join(f"deg {d}" for d in self.degrees()) + ")"


@lru_cache(maxsize=256)
def _tail_mask(config: SystemConfig, n: int, d: int) -> ClopenSet:
    """X minus the degree-d truncation strip of level-n bases.

    Positive d masks E_n u T(E_n) u ... u T^(d-1)(E_n); negative d mirrors
    to T^-1(E_n) u ... u T^d(E_n).
    """
    e = level_base(config, n)
    union = ClopenSet.empty(config)
    if d > 0:
        for u in range(d):
            union = union.union(e.shift(u))
    else:
        for u in range(1, -d + 1):
            union = union.union(e.shift(-u))
    return union.complement()


@dataclass(frozen=True)
class TruncatedElement:
    """An element of the level-n approximating algebra with its rank error bound.

    epsilon bounds the rank of (original - element); it is exactly zero when
    truncation did not change the element.
    """

    element: CrossedElement
    level: int
    epsilon: Fraction

    @classmethod
    def wrap(cls, element: CrossedElement, level: int, epsilon: Fraction = Fraction(0),
             validate: bool = True) -> "TruncatedElement":
        if validate and not supports_level(element, level):
            raise LevelTooSmall(
                f"element violates the level-{level} coefficient support condition"
            )
        return cls(element, level, epsilon)

    def __mul__(self, other: "TruncatedElement") -> "TruncatedElement":
        if other.level != self.level:
            raise BadConfig("mixing truncated elements of different levels")
        return TruncatedElement(self.element * other.element, self.level,
                                self.epsilon + other.epsilon)

    def __add__(self, other: "TruncatedElement") -> "TruncatedElement":
        if other.level != self.level:
            raise BadConfig("mixing truncated elements of different levels")
        return TruncatedElement(self.element + other.element, self.level,
                                self.epsilon + other.epsilon)

    def adjoint(self) -> "TruncatedElement":
        return TruncatedElement(self.element.adjoint(), self.level, self.epsilon)


def _meets_strip(f: LocallyConstantFn, n: int, d: int) -> bool:
    """Whether the nonzero f is nonzero somewhere on the degree-d strip.

    The strip is E_n u T(E_n) u ... u T^(d-1)(E_n) for d > 0 and
    T^-1(E_n) u ... u T^d(E_n) for d < 0.  f meets T^u(E_n), whose window
    is [-n-u, n-u], iff the windows do not overlap (the shift is full, so
    the two constraints are independent) or some value word of f carries
    the marker letter at every coordinate of the overlap.  Once the windows
    stop overlapping the answer is yes, so the loop runs at most
    min(|d|, n + radius(f) + 2) times.
    """
    if f.hi < f.lo:
        return True
    marker = f.config.marker_char
    for u in (range(d) if d > 0 else range(-1, d - 1, -1)):
        a, b = max(f.lo, -n - u), min(f.hi, n - u)
        if a > b:
            return True
        if any(not w[a - f.lo : b - f.lo + 1].strip(marker) for w in f.values):
            return True
    return False


def truncation_epsilon(a: CrossedElement, n: int) -> Fraction:
    """The rank error bound of truncating a at level n.

    It charges |d| * mu(E_n) for every degree d != 0 whose coefficient is
    nonzero somewhere on its strip, that is, whose coefficient truncation
    changes; the charge is zero exactly when a lies in the level-n algebra.
    """
    charged = sum(abs(d) for d, f in a.coeffs.items() if d and _meets_strip(f, n, d))
    return charged * level_base(a.config, n).measure()


def supports_level(element: CrossedElement, n: int) -> bool:
    """Check the support condition: no degree-d coefficient (d != 0) is
    nonzero on the degree-d strip of level-n bases that truncation masks."""
    return not any(d and _meets_strip(f, n, d) for d, f in element.coeffs.items())


def truncate(a: CrossedElement, n: int) -> TruncatedElement:
    """Project a into the level-n approximating algebra.

    Requires n >= radius(a) so that every coefficient is constant on the
    level-n tower cells.  A coefficient that meets its strip is multiplied
    by the strip's complement (`_tail_mask`, a set of about 2^(|d|+2n+1)
    window words); the error bound is `truncation_epsilon`.  The rank path
    in `engine` never builds the masked element: it reads each coefficient
    only on tower cells outside its strip, where the mask is 1.
    """
    if n < a.radius:
        raise LevelTooSmall(f"level {n} below element radius {a.radius}")
    out: dict[int, LocallyConstantFn] = {}
    for d, f in a.coeffs.items():
        if d and _meets_strip(f, n, d):
            f = f * LocallyConstantFn.indicator(_tail_mask(a.config, n, d), a.field)
        if not f.is_zero():
            out[d] = f
    return TruncatedElement(CrossedElement(a.config, a.field, out), n,
                            truncation_epsilon(a, n))
