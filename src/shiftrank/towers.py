"""Level schemes, return words, and the generalized Bratteli diagram.

Level n partitions X into the base E_n (2n+1 marker letters on [-n, n]) and
all other window cylinders.  A return word of length k is the cylinder of a
content string on [-n, k+n] whose two end blocks are all-marker and whose
k-1 internal windows are not; its translates T^l(W), 0 <= l < k, tile X up
to measure zero.  Enumeration is a pruned depth-first walk over the free
letters, in (length, lexicographic) order.  The tail mass and the Bratteli
mass deficit also come exactly from a run-length recursion over the free
letters (``tower_tail``, ``mass_deficit``), which lists no word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import BadConfig, LevelMismatch
from .space import ClopenSet, SystemConfig, cylinder, level_base


def _require_nonnegative(**values: int) -> None:
    for name, v in values.items():
        if v < 0:
            raise BadConfig(f"{name} must be >= 0 (got {v})")


@dataclass(frozen=True)
class LevelScheme:
    """Level n: the base E_n plus the implicit partition of its complement."""

    config: SystemConfig
    level: int

    def __post_init__(self):
        _require_nonnegative(level=self.level)

    @property
    def base(self) -> ClopenSet:
        return level_base(self.config, self.level)


@dataclass(frozen=True, slots=True)
class ReturnWord:
    """A return word W: merged cylinder content on [-n, k+n] with its measure."""

    config: SystemConfig
    level: int
    content: str
    measure: Fraction

    @property
    def length(self) -> int:
        return len(self.content) - (2 * self.level + 1)

    def cell(self, j: int) -> str:
        """The j-th internal window word (1 <= j <= k-1)."""
        w = 2 * self.level + 1
        return self.content[j : j + w]

    def cells(self) -> list[str]:
        return [self.cell(j) for j in range(1, self.length)]

    def clopen(self) -> ClopenSet:
        return cylinder(self.config, -self.level, self.content)

    def rep_window_word(self, i: int, lo: int, hi: int) -> str:
        """Letters of the T^i(W) representative on coordinates [lo, hi]."""
        n = self.level
        content = self.content
        top = len(content)
        marker = self.config.marker_char
        out = []
        for c in range(lo, hi + 1):
            idx = c + n + i
            out.append(content[idx] if 0 <= idx < top else marker)
        return "".join(out)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "k": self.length,
            "content": self.content,
            "measure": f"{self.measure.numerator}/{self.measure.denominator}",
        }


@dataclass(frozen=True)
class TowerFamily:
    """Return words of length <= kmax at one level, with the exact tail mass."""

    scheme: LevelScheme
    kmax: int
    words: tuple[ReturnWord, ...]
    tail: Fraction

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return len(self.words)


def _free_strings(letters: str, marker: str, length: int, maxrun: int) -> list[str]:
    """Free inner strings: first/last letter differs from the marker and no
    marker run reaches maxrun (= window width).  Lexicographic order.

    Iterative depth-first walk; frame i chooses the letter at position i.
    """
    if length <= 0:
        return []
    out: list[str] = []
    word: list[str] = []
    stack = [(iter(letters), 0)]
    while stack:
        it, run = stack[-1]
        ch = next(it, None)
        if ch is None:
            stack.pop()
            if word:
                word.pop()
            continue
        pos = len(word)
        if ch == marker:
            if pos == 0 or pos == length - 1:
                continue
            r = run + 1
            if r >= maxrun:
                continue
        else:
            r = 0
        if pos == length - 1:
            out.append("".join(word) + ch)
            continue
        word.append(ch)
        stack.append((iter(letters), r))
    return out


def iter_return_words(scheme: LevelScheme, kmax: int) -> Iterator[ReturnWord]:
    """Stream the nonempty return words with length <= kmax, shortest first."""
    config = scheme.config
    n = scheme.level
    marker = config.marker_char
    block = marker * (2 * n + 1)
    for k in range(1, kmax + 1):
        if k == 1:
            content = marker * (2 * n + 2)
            yield ReturnWord(config, n, content, config.word_measure(content))
            continue
        free_len = k - 2 * n - 1
        if free_len < 1:
            continue
        for free in _free_strings(config.letters, marker, free_len, 2 * n + 1):
            content = block + free + block
            yield ReturnWord(config, n, content, config.word_measure(content))


def enumerate_return_words(scheme: LevelScheme, kmax: int) -> TowerFamily:
    _require_nonnegative(kmax=kmax)
    words = tuple(iter_return_words(scheme, kmax))
    mass = sum((w.length * w.measure for w in words), Fraction(0))
    return TowerFamily(scheme, kmax, words, 1 - mass)


def _pattern_automaton(pattern: str, letters: str) -> dict[tuple[int, str], tuple[int, bool]]:
    """KMP automaton: (j, a) -> (j', hit).

    j is the length of the longest prefix of `pattern` ending at the last
    letter read (always < len(pattern)); hit says that a whole occurrence ends
    at a.  Overlapping occurrences are all counted.  An empty pattern has the
    single state 0 and never hits.
    """
    n = len(pattern)
    delta = {}
    for j in range(max(n, 1)):
        for a in letters:
            s = pattern[:j] + a
            hit = s == pattern
            delta[j, a] = (
                max((l for l in range(min(len(s), n - 1) + 1) if s.endswith(pattern[:l])),
                    default=0),
                hit,
            )
    return delta


def _length_sums(config: SystemConfig, level: int, kmax: int, pattern: str = ""):
    """Yield (k, m_k, c_k) over the lengths k <= kmax that have return words.

    m_k is the total measure of the level-`level` return words of length k and
    c_k = sum mu(W) * occ(W), where occ(W) counts the occurrences of `pattern`
    in the content of W less its first and last letter (c_k = 0 for an empty
    pattern).

    No word is listed.  The free inner string is read letter by letter with
    state (r, j): r is the trailing marker run, which must stay below the
    window width 2n+1, and j the automaton state for `pattern`.  Every weight
    is an exact Fraction.  Non-marker letters absent from the pattern move
    every state alike, so the first of them stands for all, with their summed
    probability; with an empty pattern this is the (2n+1)-state run-length
    recursion.
    """
    width = 2 * level + 1
    q = config.marker_char
    pq = config.probabilities[config.marker]
    letters = [(q, pq)]
    others = []
    for a, p in zip(config.letters, config.probabilities):
        if a != q:
            (letters if a in pattern else others).append((a, p))
    if others:
        letters.append((others[0][0], sum(p for _, p in others)))
    delta = _pattern_automaton(pattern, "".join(a for a, _ in letters))

    def run_markers(j: int) -> tuple[int, int]:
        """State and hit count after the width-1 markers of a stripped end block."""
        hits = 0
        for _ in range(width - 1):
            j, hit = delta[j, q]
            hits += hit
        return j, hits

    if kmax >= 1:
        mass = pq ** (width + 1)
        yield 1, mass, mass * run_markers(0)[1]
    j0, hits0 = run_markers(0)
    close_hits = {j: run_markers(j)[1] for j in range(max(len(pattern), 1))}
    block = pq ** (2 * width)
    # state (r, j) -> (weight, weighted hits); r = width-1 forbids a marker as
    # the first free letter
    states = {(width - 1, j0): (block, block * hits0)}
    for k in range(width + 1, kmax + 1):
        nxt: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
        for (r, j), (w, c) in states.items():
            for a, p in letters:
                if a == q:
                    r2 = r + 1
                    if r2 >= width:
                        continue
                else:
                    r2 = 0
                j2, hit = delta[j, a]
                key = (r2, j2)
                pw = p * w
                ow, oc = nxt.get(key, (0, 0))
                nxt[key] = (ow + pw, oc + p * c + (pw if hit else 0))
        states = nxt
        m_k = Fraction(0)
        c_k = Fraction(0)
        for (r, j), (w, c) in states.items():
            if r == 0:  # the last free letter is not a marker
                m_k += w
                c_k += c + w * close_hits[j]
        yield k, m_k, c_k


def tower_tail(config: SystemConfig, level: int, kmax: int) -> Fraction:
    """Exact tail 1 - sum_{|W| <= kmax} |W| mu(W) without enumerating words.

    Equal to ``get_family(config, level, kmax).tail``; the run-length
    recursion makes kmax steps over at most 2n+1 states, so caps far beyond
    enumeration are reachable.
    """
    _require_nonnegative(level=level, kmax=kmax)
    return 1 - sum((k * m for k, m, _ in _length_sums(config, level, kmax)), Fraction(0))


def mass_deficit(coarse: ReturnWord, fine_kmax: int) -> Fraction:
    """Bratteli mass deficit of `coarse` against the next level, without enumerating.

    Equal to ``verify_mass_identity(coarse, get_family(config, coarse.level + 1,
    fine_kmax)).deficit``: edge_offsets counts the occurrences of the coarse
    content in the fine content less its first and last letter.
    """
    _require_nonnegative(fine_kmax=fine_kmax)
    sums = _length_sums(coarse.config, coarse.level + 1, fine_kmax, coarse.content)
    return coarse.measure - sum((c for _, _, c in sums), Fraction(0))


@lru_cache(maxsize=12)
def get_family(config: SystemConfig, level: int, kmax: int) -> TowerFamily:
    """Cached enumeration; large families are reused across computations."""
    return enumerate_return_words(LevelScheme(config, level), kmax)


def edge_offsets(coarse: ReturnWord, fine: ReturnWord) -> tuple[int, ...]:
    """Offsets j' with T^(j')(W') contained in the coarse word W.

    Containment of cylinders is a letter match of the coarse content inside
    the fine content; offsets run through 0 .. |W'| - |W|.
    """
    cw = coarse.content
    k = coarse.length
    kp = fine.length
    if k > kp:
        return ()
    fc = fine.content
    # coordinate j' - n of the shifted coarse window sits at string index j' + 1
    # in the fine content (fine level = coarse level + 1)
    last_start = kp - k + 1
    out = []
    start = 1
    while True:
        idx = fc.find(cw, start)
        if idx < 0 or idx > last_start:
            break
        out.append(idx - 1)
        start = idx + 1
    return tuple(out)


def bratteli_edges(fine: TowerFamily, coarse: ReturnWord) -> dict[ReturnWord, tuple[int, ...]]:
    """Map fine word -> offset set J(W, W'); words without edges are omitted."""
    if fine.scheme.level != coarse.level + 1:
        raise LevelMismatch(
            f"fine family level {fine.scheme.level} != coarse level {coarse.level} + 1"
        )
    out = {}
    for wp in fine.words:
        offs = edge_offsets(coarse, wp)
        if offs:
            out[wp] = offs
    return out


@dataclass(frozen=True)
class MassIdentity:
    """One tower cell mass against its refinement: lhs = mu(W), rhs partial."""

    lhs: Fraction
    partial_rhs: Fraction
    deficit: Fraction


def verify_mass_identity(coarse: ReturnWord, fine: TowerFamily) -> MassIdentity:
    if fine.scheme.level != coarse.level + 1:
        raise LevelMismatch(
            f"fine family level {fine.scheme.level} != coarse level {coarse.level} + 1"
        )
    rhs = Fraction(0)
    for wp in fine.words:
        cnt = len(edge_offsets(coarse, wp))
        if cnt:
            rhs += cnt * wp.measure
    lhs = coarse.measure
    return MassIdentity(lhs, rhs, lhs - rhs)


def bratteli_export(config: SystemConfig, from_level: int, kmax: int,
                    fmt: str = "json") -> str:
    """Render the level n -> n+1 diagram slice with edge multiplicities |J|."""
    coarse_words = get_family(config, from_level, kmax).words
    fine_words = get_family(config, from_level + 1, kmax).words
    edges = []
    for w in coarse_words:
        for wp in fine_words:
            offs = edge_offsets(w, wp)
            if offs:
                edges.append((w, wp, offs))
    if fmt == "json":
        doc = {
            "from_level": from_level,
            "kmax": kmax,
            "vertices": [w.to_json_dict() for w in coarse_words]
            + [w.to_json_dict() for w in fine_words],
            "edges": [
                {
                    "from": {"level": w.level, "content": w.content},
                    "to": {"level": wp.level, "content": wp.content},
                    "offsets": list(offs),
                    "multiplicity": len(offs),
                }
                for w, wp, offs in edges
            ],
        }
        return json.dumps(doc, indent=2)
    if fmt == "dot":
        lines = ["digraph bratteli {", "  rankdir=TB;"]
        for w in list(coarse_words) + list(fine_words):
            mu = f"{w.measure.numerator}/{w.measure.denominator}"
            lines.append(
                f'  "{w.level}:{w.content}" '
                f'[label="{w.content}\\nk={w.length} mu={mu}"];'
            )
        for w, wp, offs in edges:
            lines.append(
                f'  "{w.level}:{w.content}" -> "{wp.level}:{wp.content}" '
                f'[label="{len(offs)}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
