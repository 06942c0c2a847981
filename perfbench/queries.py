"""Seeded query rounds for the three workloads.

A run repeats one round, the same list of queries, until its time is up.
The seed draws only what leaves the cost of a query about the same: the
scalar coefficients of the Laurent polynomials, and the word and offset of
each indicator (of fixed length, so of fixed measure).  The levels, caps,
degrees, directions of t and fields of every slot are fixed, and so are the
mixed elements, so two seeds measure the same work at the same widths.

Scalars are integers prime to 7, so every Laurent polynomial stays nonzero
over F_7 and the rank-mod-p check applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from reference import cylinder_measure

SYSTEM = "bernoulli:2:1/2,1/2"
MARKER = 1
PROBS = (Fraction(1, 2), Fraction(1, 2))
FP = "f:7"

WORKLOADS = ("cli-cold", "sweep-warm", "high-degree")

# Set-up of each workload, as a fresh process pays it: import shiftrank, then
# parse the round's expressions, then enumerate its families.
SETUP_PARSES = {"cli-cold": False, "sweep-warm": True, "high-degree": True}
SETUP_ENUMERATES = {"cli-cold": False, "sweep-warm": True, "high-degree": False}


@dataclass(frozen=True)
class Query:
    """One certified-interval request and what is known about its answer."""

    name: str
    cells: tuple[tuple[str, ...], ...]  # d x d expression strings
    field: str                          # "q" or "f:7"
    level: int
    kmax: int
    expect: Fraction | None = None      # a rank the interval must contain
    blocks: tuple[str, ...] = ()        # diagonal blocks, by query name
    over_q: str | None = None           # the same matrix over Q

    @property
    def dim(self) -> int:
        return len(self.cells)


class _Draw:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")

    def scalar(self) -> str:
        """A nonzero integer prime to 7, of one or two digits."""
        num = self.rng.choice([2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13])
        return f"{self.rng.choice(('', '-'))}{num}"

    def cylinder(self, level: int, length: int) -> tuple[str, Fraction]:
        """chi(o;w) with |w| = length inside the window [-level, level]."""
        offset = self.rng.randint(-level, level - length + 1)
        word = "".join(self.rng.choice("01") for _ in range(length))
        return f"chi({offset};{word})", cylinder_measure(PROBS, word)


def _sum(terms: list[str]) -> str:
    """Join terms ("3*t", "-chi(0;1)") into one expression."""
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _scalar_term(c: str, power: int) -> str:
    if power == 0:
        return c
    return f"{c}*t^{power}" if power != 1 else f"{c}*t"


def _one(name, expr, field, level, kmax, expect=None) -> Query:
    return Query(name, ((expr,),), field, level, kmax, expect)


def _diag(name, a: Query, b: Query) -> Query:
    cells = ((a.cells[0][0], "0"), ("0", b.cells[0][0]))
    expect = None if a.expect is None or b.expect is None else a.expect + b.expect
    return Query(name, cells, a.field, a.level, a.kmax, expect, (a.name, b.name))


def _over_fp(q: Query) -> Query:
    """The same query over F_7 (diagonal blocks renamed alike)."""
    return Query(q.name + ".fp", q.cells, FP, q.level, q.kmax, q.expect,
                 tuple(b + ".fp" for b in q.blocks), q.name)


def cli_cold(seed: int) -> list[Query]:
    """Five CLI processes: each lists a family of 55-79k words."""
    d = _Draw("cli-cold", seed)
    u, mu = d.cylinder(1, 2)
    a = _one("chi", u, "q", 1, 22, mu)
    b = _one("ct", _scalar_term(d.scalar(), 2), "q", 1, 22, Fraction(1))
    u2, mu2 = d.cylinder(2, 3)
    return [
        a,
        b,
        _diag("diag", a, b),
        _over_fp(b),
        _one("chi.l2", u2, "q", 2, 22, mu2),
    ]


def sweep_warm(seed: int) -> list[Query]:
    """Degree 1-3 expressions and a 2x2 matrix against one level-1 family.

    Twelve queries: five of them cost less than the two mixed2 ones, five
    more, so the median falls between those two and not at the edge of a
    gap in the costs.

    The mixed elements are fixed: their ranks, and so the widths, depend on
    their cylinders (and over F_7 on their scalars), and the cost depends on
    the direction of t (t^-1 in place of t can halve it, with the same
    interval).
    """
    d = _Draw("sweep-warm", seed)
    n, k = 1, 18
    u, mu = d.cylinder(n, 2)
    lin = _one("lin", _sum([d.scalar(), _scalar_term(d.scalar(), 1)]), "q", n, k,
               Fraction(1))
    mixed1 = _one("mixed1", "chi(-1;00)*t + chi(0;1)", "q", n, k)
    quad = _one("quad", _sum([_scalar_term(d.scalar(), 2), _scalar_term(d.scalar(), 1),
                              d.scalar()]), "q", n, k, Fraction(1))
    mixed3 = _one("mixed3", "chi(-1;10)*t^3 - chi(1;0)", "q", n, k)
    mixed2 = _one("mixed2", "4*t^-1 + chi(-1;011)*t^2 + 9", "q", n, k)
    chi = _one("chi", u, "q", n, k, mu)
    over_q = [lin, mixed1, mixed3, mixed2, _diag("diag", lin, mixed1)]
    return over_q + [_over_fp(q) for q in over_q] + [quad, chi]


def high_degree(seed: int) -> list[Query]:
    """t-degree 9 to 16 at levels 1-2 on families of 178 and 245 words.

    Every element of degree >= 8 gets width d at these caps (epsilon >= 1/4,
    tail > 0.9 at level 2), so the round also ranks the indicator of the
    diagonal matrix on its own, and one level-0 indicator at a cap where the
    tail is tiny; they keep width.mean below 1 and certainty_per_s above 0.
    Exponents and the cylinders of the mixed element are fixed, as on
    sweep-warm.
    """
    d = _Draw("high-degree", seed)
    u, mu = d.cylinder(2, 3)
    u0, mu0 = d.cylinder(0, 1)
    binom = _one("binom", f"(t + {d.scalar().lstrip('-')})^10", "q", 1, 12, Fraction(1))
    mixed = _one("mixed", _sum(["chi(-1;00)*t^12", _scalar_term(d.scalar(), -9),
                                "chi(0;101)"]), "q", 2, 14)
    mono12 = _one("mono12", _scalar_term(d.scalar(), 12), "q", 2, 14, Fraction(1))
    chi = _one("chi", u, "q", 2, 14, mu)
    return [
        _one("mono16", "t^16", "q", 1, 12, Fraction(1)),
        _one("ct14", _scalar_term(d.scalar(), 14), "q", 1, 12, Fraction(1)),
        binom,
        mixed,
        mono12,
        _over_fp(mono12),
        chi,
        _diag("diag", mixed, chi),
        _one("chi.l0", u0, "q", 0, 24, mu0),
    ]


ROUNDS = {"cli-cold": cli_cold, "sweep-warm": sweep_warm, "high-degree": high_degree}


def make_round(workload: str, seed: int) -> list[Query]:
    return ROUNDS[workload](seed)
