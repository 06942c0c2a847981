"""Certified rank intervals: truncation error + enumerated towers + tail bound.

For a d x d matrix M over the crossed product, the interval at level n and
cap kmax is

    [ max(0, partial - eps),  min(d, partial + d*tail + eps) ]

where partial = sum over enumerated words of mu(W) * Rk(projection of the
truncated matrix), eps sums the per-entry truncation bounds, and tail is
the unenumerated tower mass.  Everything is exact rational arithmetic; the
true rank always lies inside the interval.

The per-word ranks run on integer-compiled tables (scaled rationals, or
residues mod p) with a sparse fraction-free elimination; this is an
optimized equivalent of projecting via the representation module and
taking the scalar-field rank, and the test suite cross-checks the two.

The masked (truncated) element is never built.  eps is
`crossed.truncation_epsilon`, a strip test on each coefficient, and the
tables hold the entries' own coefficients.  On a return word of length k a
degree-d coefficient is read only on rows i in [max(d, 0), k + min(d, 0)):
the tower cells at height >= d (or <= k-1+d for negative d), which lie
outside its truncation strip, where the mask is 1.  So every per-word
matrix, and partial, is exactly that of the truncated matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

from .crossed import CrossedElement, truncation_epsilon
from .errors import BadConfig, LevelTooSmall
from .fields import Field, PrimeField, render_rational
from .space import SystemConfig
from .towers import ReturnWord, TowerFamily, get_family

_GCD_SHRINK_BOUND = 1 << 48


@dataclass(frozen=True)
class RankInterval:
    """Exact rational enclosure of the rank, with its provenance."""

    lower: Fraction
    upper: Fraction
    level: int
    kmax: int
    epsilon: Fraction
    tail: Fraction
    partial: Fraction
    dim: int
    field_name: str
    words_used: int

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def intersects(self, other: "RankInterval") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def to_json_dict(self) -> dict:
        out = {
            "lower": render_rational(self.lower),
            "upper": render_rational(self.upper),
            "partial": render_rational(self.partial),
            "epsilon": render_rational(self.epsilon),
            "tail": render_rational(self.tail),
            "level": self.level,
            "kmax": self.kmax,
            "dim": self.dim,
            "words_used": self.words_used,
            "field": self.field_name,
            "lower_dec": rational_decimal(self.lower),
            "upper_dec": rational_decimal(self.upper),
            "width_dec": rational_decimal(self.width),
        }
        return out


def rational_decimal(fr: Fraction, places: int = 12) -> str:
    """Display-only decimal rendering (round toward zero), 12 digits default."""
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    scaled = fr.numerator * 10**places // fr.denominator
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _normalize_matrix(m) -> list[list[CrossedElement]]:
    if isinstance(m, CrossedElement):
        return [[m]]
    rows = [list(r) for r in m]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise BadConfig("rank computations need a nonempty square matrix")
    return rows


class _Compiled:
    """Integer-compiled projection tables for one element matrix.

    word_rank is the rank of the matrix's truncation on the word; the
    entries themselves need not be truncated (see the module docstring).
    """

    __slots__ = ("dim", "mod", "entries", "single")

    def __init__(self, entries: list[list[CrossedElement]], field: Field):
        self.dim = len(entries)
        self.mod = field.p if isinstance(field, PrimeField) else None
        coeffs = [[sorted(e.coeffs.items()) for e in row] for row in entries]
        if self.mod is None:
            scale = lcm(*(v.denominator for row in coeffs for per in row
                          for _, f in per for v in f.values.values()))
            conv = lambda v: int(v * scale)
        else:
            conv = lambda v: v.value
        self.entries = [
            [
                [
                    (d, 0, -1, None, conv(f.values[""])) if f.hi < f.lo
                    else (d, f.lo, f.hi, {w: conv(v) for w, v in f.values.items()}, None)
                    for d, f in per
                ]
                for per in row
            ]
            for row in coeffs
        ]
        self.single = None
        if self.dim == 1 and len(self.entries[0][0]) == 1:
            self.single = self.entries[0][0][0]

    def word_rank(self, word: ReturnWord) -> int:
        k = word.length
        content = word.content
        clen = len(content)
        n = word.level
        if self.single is not None:
            d, lo, hi, table, const = self.single
            start, stop = max(0, d), k + min(0, d)
            if const is not None:
                return max(0, stop - start) if const else 0
            count = 0
            a0, b0 = lo + n, hi + n
            for i in range(start, stop):
                a, b = a0 + i, b0 + i
                key = content[a : b + 1] if 0 <= a and b < clen \
                    else word.rep_window_word(i, lo, hi)
                if table.get(key):
                    count += 1
            return count
        dim = self.dim
        row_entries: list = [None] * (dim * k)
        for r in range(dim):
            base_r = r * k
            per_col = self.entries[r]
            for c in range(dim):
                base_c = c * k
                for d, lo, hi, table, const in per_col[c]:
                    start = d if d > 0 else 0
                    stop = k + d if d < 0 else k
                    if const is not None:
                        for i in range(start, stop):
                            e = row_entries[base_r + i]
                            if e is None:
                                row_entries[base_r + i] = e = []
                            e.append((base_c + i - d, const))
                        continue
                    a0, b0 = lo + n, hi + n
                    for i in range(start, stop):
                        a, b = a0 + i, b0 + i
                        key = content[a : b + 1] if 0 <= a and b < clen \
                            else word.rep_window_word(i, lo, hi)
                        v = table.get(key)
                        if v:
                            e = row_entries[base_r + i]
                            if e is None:
                                row_entries[base_r + i] = e = []
                            e.append((base_c + i - d, v))
        rows = []
        for e in row_entries:
            if e:
                if len(e) > 1:
                    e.sort()
                rows.append(e)
        return _sparse_rank(rows, self.mod)


def _combine(row, pivot, mod):
    """Eliminate row's leading entry against the pivot (same leading column)."""
    pv = pivot[0][1]
    ov = row[0][1]
    if mod is not None:
        f = (ov * pow(pv, mod - 2, mod)) % mod
        merged = {}
        for c, v in row[1:]:
            merged[c] = v
        for c, v in pivot[1:]:
            s = (merged.get(c, 0) - f * v) % mod
            if s:
                merged[c] = s
            else:
                merged.pop(c, None)
        return sorted(merged.items())
    merged = {}
    for c, v in row[1:]:
        merged[c] = pv * v
    for c, v in pivot[1:]:
        s = merged.get(c, 0) - ov * v
        if s:
            merged[c] = s
        else:
            merged.pop(c, None)
    out = sorted(merged.items())
    if out and (pv > _GCD_SHRINK_BOUND or -pv > _GCD_SHRINK_BOUND
                or ov > _GCD_SHRINK_BOUND or -ov > _GCD_SHRINK_BOUND):
        g = 0
        for _, v in out:
            g = gcd(g, v)
        if g > 1:
            out = [(c, v // g) for c, v in out]
    return out


def _sparse_rank(rows, mod) -> int:
    """Rank of a sparse integer matrix given as sorted (col, val) rows."""
    pending: dict[int, list] = {}
    heap: list[int] = []
    for row in rows:
        c = row[0][0]
        b = pending.get(c)
        if b is None:
            pending[c] = [row]
            heappush(heap, c)
        else:
            b.append(row)
    rank = 0
    while heap:
        col = heappop(heap)
        bucket = pending.pop(col, None)
        if not bucket:
            continue
        pivot = bucket[0]
        rank += 1
        for row in bucket[1:]:
            new = _combine(row, pivot, mod)
            if not new:
                continue
            c = new[0][0]
            b = pending.get(c)
            if b is None:
                pending[c] = [new]
                heappush(heap, c)
            else:
                b.append(new)
    return rank


def _prepare(m, level: int) -> tuple[list[list[CrossedElement]], SystemConfig, Field, Fraction]:
    entries = _normalize_matrix(m)
    config = entries[0][0].config
    field = entries[0][0].field
    for row in entries:
        for e in row:
            if e.config != config or e.field != field:
                raise BadConfig("matrix entries disagree on system or field")
    max_radius = max(e.radius for row in entries for e in row)
    if level < max_radius:
        raise LevelTooSmall(f"level {level} below matrix radius {max_radius}")
    eps = sum((truncation_epsilon(e, level) for row in entries for e in row), Fraction(0))
    return entries, config, field, eps


def _interval(m, level: int, kmax: int) -> tuple[RankInterval, TowerFamily, list[int]]:
    """The certified interval, with the family and the rank on each of its words."""
    entries, config, field, eps = _prepare(m, level)
    dim = len(entries)
    family = get_family(config, level, kmax)
    compiled = _Compiled(entries, field)
    ranks = [compiled.word_rank(w) for w in family.words]
    partial = sum((w.measure * r for w, r in zip(family.words, ranks) if r), Fraction(0))
    iv = RankInterval(
        lower=max(Fraction(0), partial - eps),
        upper=min(Fraction(dim), partial + dim * family.tail + eps),
        level=level, kmax=kmax, epsilon=eps, tail=family.tail, partial=partial,
        dim=dim, field_name=field.name, words_used=len(family.words),
    )
    return iv, family, ranks


def rank_interval(m, level: int, kmax: int) -> RankInterval:
    """Certified enclosure of the rank of a matrix over the crossed product."""
    return _interval(m, level, kmax)[0]


def auto_refine(m, level: int, width_target: Fraction = Fraction(1, 10**6),
                word_budget: int = 10**5, start_kmax: int = 6) -> list[RankInterval]:
    """Double kmax until the width target or the word budget is reached."""
    out = []
    kmax = start_kmax
    while True:
        iv = rank_interval(m, level, kmax)
        out.append(iv)
        if iv.width < width_target or iv.words_used > word_budget:
            return out
        kmax *= 2


def rank_report(m, level: int, kmax: int, include_per_word: bool = True) -> dict:
    """Interval JSON plus per-word contributions sorted by contribution."""
    iv, family, ranks = _interval(m, level, kmax)
    doc = iv.to_json_dict()
    if include_per_word:
        rows = []
        for w, r in zip(family.words, ranks):
            contribution = w.measure * r
            rows.append((contribution, w.length, w.content, r, w.measure))
        rows.sort(key=lambda t: (-t[0], t[1], t[2]))
        doc["per_word"] = [
            {
                "content": content,
                "k": k,
                "measure": render_rational(measure),
                "rank": r,
                "contribution": render_rational(contribution),
            }
            for contribution, k, content, r, measure in rows
        ]
    return doc
