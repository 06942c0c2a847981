"""The full shift on m letters: clopen sets, locally constant functions, measure.

Points of X = {0,...,m-1}^Z are bi-infinite letter sequences; the shift acts
by T(x)_i = x_{i+1}, so a constraint at coordinate c moves to c - i under T^i.
Clopen sets are stored in canonical window form: the minimal integer interval
[lo, hi] such that the set is a union of full cylinders on it, together with
the set of window words.  This makes equality decidable and the Bernoulli
measure exactly computable.

Letters are single decimal digits, so alphabets are capped at 10 letters;
words are plain digit strings throughout (also in all serialized output).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

from .errors import BadConfig, BadLetter
from .fields import Field

MAX_ALPHABET = 10


@dataclass(frozen=True)
class SystemConfig:
    """Alphabet size, exact letter distribution, and the marker letter.

    The marker letter q generates the nested tower bases: the base at level n
    is the cylinder of 2n+1 consecutive q's centred at the origin, shrinking
    to the constant-q sequence.
    """

    alphabet_size: int
    probabilities: tuple[Fraction, ...]
    marker: int = 0

    def __post_init__(self):
        m = self.alphabet_size
        if m < 2:
            raise BadConfig("alphabet needs at least 2 letters")
        if m > MAX_ALPHABET:
            raise BadConfig(f"alphabet is capped at {MAX_ALPHABET} letters (digit words)")
        if len(self.probabilities) != m:
            raise BadConfig("need one probability per letter")
        if any(p <= 0 for p in self.probabilities):
            raise BadConfig("letter probabilities must be positive (full measure)")
        if sum(self.probabilities, Fraction(0)) != 1:
            raise BadConfig("letter probabilities must sum to 1 exactly")
        if not 0 <= self.marker < m:
            raise BadConfig("marker letter outside the alphabet")

    @property
    def letters(self) -> str:
        return "".join(str(i) for i in range(self.alphabet_size))

    @property
    def marker_char(self) -> str:
        return str(self.marker)

    def check_word(self, word: str):
        for ch in word:
            if not ch.isdigit() or int(ch) >= self.alphabet_size:
                raise BadLetter(f"letter {ch!r} outside alphabet of size {self.alphabet_size}")

    def word_measure(self, word: str) -> Fraction:
        num = 1
        den = 1
        for i, p in enumerate(self.probabilities):
            c = word.count(str(i))
            if c:
                num *= p.numerator**c
                den *= p.denominator**c
        return Fraction(num, den)

    def spec_string(self) -> str:
        probs = ",".join(f"{p.numerator}/{p.denominator}" for p in self.probabilities)
        return f"bernoulli:{self.alphabet_size}:{probs}"


def parse_system(spec: str, marker: int = 0) -> SystemConfig:
    """Parse ``bernoulli:M:p0,p1,...`` into a SystemConfig."""
    parts = spec.strip().split(":")
    if len(parts) != 3 or parts[0] != "bernoulli":
        raise BadConfig(f"bad system spec {spec!r} (expected bernoulli:M:p0,p1,...)")
    try:
        m = int(parts[1])
        probs = tuple(Fraction(tok) for tok in parts[2].split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadConfig(f"bad system spec {spec!r}: {exc}") from exc
    return SystemConfig(m, probs, marker)


BINARY = SystemConfig(2, (Fraction(1, 2), Fraction(1, 2)), marker=1)


def _expand_words(words, lo, hi, new_lo, new_hi, letters) -> frozenset:
    """Re-express a word set from window [lo, hi] on the larger [new_lo, new_hi]."""
    left = [ "".join(p) for p in product(letters, repeat=lo - new_lo) ]
    right = [ "".join(p) for p in product(letters, repeat=new_hi - hi) ]
    return frozenset(l + w + r for w in words for l in left for r in right)


def _shrink(lo, hi, words, m, values: dict | None = None):
    """Minimal-window canonical form.

    For sets (values None) an edge coordinate is dropped when every reduced
    word has all m extensions present; for functions, when all m extensions
    carry equal values (absent = zero).  The right edge is reduced first,
    then the left.
    """
    words = set(words)
    for right in (True, False):
        keep = slice(None, -1) if right else slice(1, None)
        while lo <= hi:
            groups: dict[str, list] = {}
            ok = True
            for w in words:
                groups.setdefault(w[keep], []).append(w)
            for key, grp in groups.items():
                if len(grp) != m:
                    ok = False
                    break
                if values is not None:
                    first = values[grp[0]]
                    if any(values[g] != first for g in grp[1:]):
                        ok = False
                        break
            if not ok:
                break
            if values is not None:
                values = {key: values[grp[0]] for key, grp in groups.items()}
            words = set(groups)
            if right:
                hi -= 1
            else:
                lo += 1
    if lo > hi:
        lo, hi = 0, -1
    return lo, hi, frozenset(words), values


@dataclass(frozen=True)
class ClopenSet:
    """Canonical window-based clopen subset of X."""

    config: SystemConfig
    lo: int
    hi: int
    words: frozenset

    @classmethod
    def _make(cls, config, lo, hi, words: Iterable[str]) -> "ClopenSet":
        lo, hi, ws, _ = _shrink(lo, hi, frozenset(words), config.alphabet_size)
        return cls(config, lo, hi, ws)

    @classmethod
    def empty(cls, config) -> "ClopenSet":
        return cls(config, 0, -1, frozenset())

    @classmethod
    def all(cls, config) -> "ClopenSet":
        return cls(config, 0, -1, frozenset({""}))

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def is_empty(self) -> bool:
        return not self.words

    def is_all(self) -> bool:
        return self.words == frozenset({""})

    @property
    def radius(self) -> int:
        if self.hi < self.lo:
            return 0
        return max(abs(self.lo), abs(self.hi))

    def on_window(self, lo: int, hi: int) -> frozenset:
        """Word set re-expressed on a window containing [lo, hi] of self."""
        if self.hi < self.lo:
            base_lo = lo
            base_hi = lo - 1
        else:
            base_lo, base_hi = self.lo, self.hi
        if lo > base_lo or hi < base_hi:
            raise ValueError("target window does not contain the canonical window")
        return _expand_words(self.words, base_lo, base_hi, lo, hi, self.config.letters)

    def measure(self) -> Fraction:
        return sum((self.config.word_measure(w) for w in self.words), Fraction(0))

    def union(self, other: "ClopenSet") -> "ClopenSet":
        lo, hi = self._joint_window(other)
        return ClopenSet._make(
            self.config, lo, hi, self.on_window(lo, hi) | other.on_window(lo, hi)
        )

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        lo, hi = self._joint_window(other)
        return ClopenSet._make(
            self.config, lo, hi, self.on_window(lo, hi) & other.on_window(lo, hi)
        )

    def complement(self) -> "ClopenSet":
        lo, hi = (self.lo, self.hi) if self.lo <= self.hi else (0, -1)
        if lo > hi:
            full = frozenset({""})
        else:
            full = frozenset("".join(p) for p in product(self.config.letters, repeat=hi - lo + 1))
        return ClopenSet._make(self.config, lo, hi, full - self.words)

    def shift(self, i: int) -> "ClopenSet":
        """T^i(U): constraints at coordinate c move to c - i."""
        if self.hi < self.lo:
            return self
        return ClopenSet(self.config, self.lo - i, self.hi - i, self.words)

    def subset_of(self, other: "ClopenSet") -> bool:
        return self.intersect(other) == self

    def _joint_window(self, other: "ClopenSet"):
        if other.config != self.config:
            raise BadConfig("mixing clopen sets from different systems")
        los = [s.lo for s in (self, other) if s.lo <= s.hi]
        his = [s.hi for s in (self, other) if s.lo <= s.hi]
        if not los:
            return 0, -1
        return min(los), max(his)


def cylinder(config: SystemConfig, offset: int, word: str) -> ClopenSet:
    """The set of points carrying ``word`` starting at coordinate ``offset``."""
    if not word:
        raise BadLetter("cylinder word must be nonempty")
    config.check_word(word)
    return ClopenSet._make(config, offset, offset + len(word) - 1, {word})


def level_base(config: SystemConfig, n: int) -> ClopenSet:
    """The level-n tower base: 2n+1 marker letters on the window [-n, n]."""
    return cylinder(config, -n, config.marker_char * (2 * n + 1))


class LocallyConstantFn:
    """Canonical window-based locally constant function X -> K.

    Stores only nonzero values; the window is minimal for the function.
    """

    __slots__ = ("config", "field", "lo", "hi", "values")

    def __init__(self, config: SystemConfig, field: Field, lo: int, hi: int,
                 values: Mapping[str, object], *, _canonical: bool = False):
        if not _canonical:
            vals = {w: v for w, v in values.items() if v}
            lo, hi, _, vals = _shrink(lo, hi, frozenset(vals), config.alphabet_size, vals)
            values = vals
        self.config = config
        self.field = field
        self.lo = lo
        self.hi = hi
        self.values = dict(values)

    @classmethod
    def constant(cls, config, field, scalar) -> "LocallyConstantFn":
        vals = {"": scalar} if scalar else {}
        return cls(config, field, 0, -1, vals, _canonical=True)

    @classmethod
    def indicator(cls, clopen: ClopenSet, field: Field) -> "LocallyConstantFn":
        return cls(
            clopen.config, field, clopen.lo, clopen.hi,
            {w: field.one for w in clopen.words}, _canonical=True,
        )

    def is_zero(self) -> bool:
        return not self.values

    def __bool__(self):
        return bool(self.values)

    @property
    def radius(self) -> int:
        if self.hi < self.lo:
            return 0
        return max(abs(self.lo), abs(self.hi))

    def values_on(self, lo: int, hi: int) -> dict:
        """Nonzero values re-expressed on a containing window."""
        if self.hi < self.lo:
            base_lo, base_hi = lo, lo - 1
        else:
            base_lo, base_hi = self.lo, self.hi
        if lo > base_lo or hi < base_hi:
            raise ValueError("target window does not contain the canonical window")
        letters = self.config.letters
        out = {}
        left = ["".join(p) for p in product(letters, repeat=base_lo - lo)]
        right = ["".join(p) for p in product(letters, repeat=hi - base_hi)]
        for w, v in self.values.items():
            for l in left:
                for r in right:
                    out[l + w + r] = v
        return out

    def _joint(self, other: "LocallyConstantFn"):
        if other.config != self.config or other.field != self.field:
            raise BadConfig("mixing functions from different systems or fields")
        los = [f.lo for f in (self, other) if f.lo <= f.hi]
        his = [f.hi for f in (self, other) if f.lo <= f.hi]
        if not los:
            return 0, -1
        return min(los), max(his)

    def __add__(self, other: "LocallyConstantFn") -> "LocallyConstantFn":
        lo, hi = self._joint(other)
        a = self.values_on(lo, hi)
        for w, v in other.values_on(lo, hi).items():
            s = a.get(w, self.field.zero) + v
            if s:
                a[w] = s
            else:
                a.pop(w, None)
        return LocallyConstantFn(self.config, self.field, lo, hi, a)

    def __neg__(self) -> "LocallyConstantFn":
        return LocallyConstantFn(
            self.config, self.field, self.lo, self.hi,
            {w: -v for w, v in self.values.items()}, _canonical=True,
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "LocallyConstantFn") -> "LocallyConstantFn":
        lo, hi = self._joint(other)
        a = self.values_on(lo, hi)
        b = other.values_on(lo, hi)
        out = {}
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        for w, v in small.items():
            u = big.get(w)
            if u is not None:
                pr = v * u
                if pr:
                    out[w] = pr
        return LocallyConstantFn(self.config, self.field, lo, hi, out)

    def scalar_mul(self, scalar) -> "LocallyConstantFn":
        if not scalar:
            return LocallyConstantFn.constant(self.config, self.field, self.field.zero)
        return LocallyConstantFn(
            self.config, self.field, self.lo, self.hi,
            {w: v * scalar for w, v in self.values.items()}, _canonical=True,
        )

    def alpha(self, n: int) -> "LocallyConstantFn":
        """The translation automorphism: alpha(f, n)(x) = f(T^-n x).

        Sends the indicator of U to the indicator of T^n(U).
        """
        if self.hi < self.lo:
            return self
        return LocallyConstantFn(
            self.config, self.field, self.lo - n, self.hi - n, self.values,
            _canonical=True,
        )

    def support(self) -> ClopenSet:
        return ClopenSet._make(self.config, self.lo, self.hi, set(self.values))

    def is_indicator(self) -> bool:
        one = self.field.one
        return all(v == one for v in self.values.values())

    def __eq__(self, other):
        if not isinstance(other, LocallyConstantFn):
            return NotImplemented
        return (
            self.config == other.config
            and self.field == other.field
            and self.lo == other.lo
            and self.hi == other.hi
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.lo, self.hi, frozenset(self.values.items())))

    def __repr__(self):
        if self.is_zero():
            return "LocallyConstantFn(0)"
        items = ", ".join(
            f"{w or 'X'}:{self.field.render(v)}" for w, v in sorted(self.values.items())
        )
        return f"LocallyConstantFn([{self.lo},{self.hi}] {items})"

