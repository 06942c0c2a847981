"""Reference values and checks for certified rank intervals.

Nothing here imports shiftrank: every value an interval is checked against
is computed from the letter probabilities alone.

- Cylinder measures are products of letter probabilities.
- Return-word counts and tower tails come from a run-length count over the
  free letters of a return word (first and last free letter not the marker,
  no marker run as long as the window 2n+1).
- Known ranks: an indicator chi_U has rank mu(U); a nonzero Laurent
  polynomial in t with scalar coefficients has rank 1 (each factor t - alpha
  has full rank on every word, and Sylvester's nullity law gives rank 1); a
  block-diagonal matrix has the sum of its blocks' ranks.

An interval is a mapping with the exact fields ``lower``, ``upper``,
``partial``, ``epsilon``, ``tail`` (Fractions) and ``words_used``, ``dim``
(ints), as read from ``RankInterval`` or from ``shiftrank rank --json``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def cylinder_measure(probs: tuple[Fraction, ...], word: str) -> Fraction:
    out = Fraction(1)
    for ch in word:
        out *= probs[int(ch)]
    return out


@lru_cache(maxsize=None)
def tower_census(probs: tuple[Fraction, ...], marker: int, level: int,
                 kmax: int) -> tuple[int, Fraction]:
    """(number of return words with length <= kmax, exact tail mass).

    The content of a length-k return word (k >= 2) is a marker block of
    width w = 2n+1, a free string of length k - w, and another marker block;
    length 1 is the single content of 2n+2 markers.  The free string is
    counted letter by letter with its trailing marker run r < w as state.
    """
    width = 2 * level + 1
    pq = probs[marker]
    p_other = 1 - pq
    n_other = len(probs) - 1
    count = 0
    mass = Fraction(0)  # sum over words of |W| mu(W)
    if kmax >= 1:
        count += 1
        mass += pq ** (width + 1)
    blocks = pq ** (2 * width)
    # run r -> (number of free prefixes, their total probability); the
    # first free letter is not the marker
    states = {0: (n_other, p_other)}
    for free_len in range(1, kmax - width + 1):
        if free_len > 1:
            nxt: dict[int, tuple[int, Fraction]] = {}
            for r, (c, w) in states.items():
                c0, w0 = nxt.get(0, (0, Fraction(0)))
                nxt[0] = (c0 + c * n_other, w0 + w * p_other)
                if r + 1 < width:
                    c1, w1 = nxt.get(r + 1, (0, Fraction(0)))
                    nxt[r + 1] = (c1 + c, w1 + w * pq)
            states = nxt
        c, w = states.get(0, (0, Fraction(0)))  # the last free letter is no marker
        k = free_len + width
        count += c
        mass += k * w * blocks
    return count, 1 - mass


def check_interval(iv, dim: int, expect: Fraction | None) -> list[str]:
    """Bounds 0 <= lower <= upper <= d, and the known rank inside, if any."""
    errors = []
    if iv["dim"] != dim:
        errors.append(f"dim {iv['dim']} != {dim}")
    if not 0 <= iv["lower"] <= iv["upper"] <= dim:
        errors.append(f"bounds out of order: 0 <= {iv['lower']} <= {iv['upper']} <= {dim}")
    if expect is not None and not iv["lower"] <= expect <= iv["upper"]:
        errors.append(f"known rank {expect} outside [{iv['lower']}, {iv['upper']}]")
    return errors


def check_towers(iv, probs: tuple[Fraction, ...], marker: int, level: int, kmax: int,
                 library_tail: Fraction) -> list[str]:
    """Word count and tail against the run-length count, and the tail against
    ``towers.tower_tail``; at level 0 of the fair binary system the tail is
    also (K+2)/2^(K+1)."""
    count, tail = tower_census(probs, marker, level, kmax)
    errors = []
    if iv["words_used"] != count:
        errors.append(f"words_used {iv['words_used']} != run-length count {count}")
    if iv["tail"] != tail:
        errors.append(f"tail {iv['tail']} != run-length tail {tail}")
    if iv["tail"] != library_tail:
        errors.append(f"tail {iv['tail']} != tower_tail {library_tail}")
    if level == 0 and probs == (Fraction(1, 2), Fraction(1, 2)):
        closed = Fraction(kmax + 2, 2 ** (kmax + 1))
        if iv["tail"] != closed:
            errors.append(f"level-0 tail {iv['tail']} != (K+2)/2^(K+1) = {closed}")
    return errors


def check_additive(diag, blocks) -> list[str]:
    """The partial of diag(a, b) is partial(a) + partial(b), exactly."""
    total = sum((b["partial"] for b in blocks), Fraction(0))
    if diag["partial"] != total:
        return [f"partial of diag {diag['partial']} != sum of blocks {total}"]
    return []


def check_mod_p(fp, q) -> list[str]:
    """For p-integral entries the partial over F_p is at most the one over Q."""
    if fp["partial"] > q["partial"]:
        return [f"partial over F_p {fp['partial']} > partial over Q {q['partial']}"]
    return []
