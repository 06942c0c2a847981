"""Seeded property-check suites, runnable from the CLI.

Each suite exercises exact identities on randomized inputs at desk-scale
parameters and reports one named result per property.  Results are
deterministic for a fixed (config, field, seed).  The hom, oracle and
sylvester suites also take their scale (a pair or segment count, and for hom
a family cap): the defaults are the CLI's, and the acceptance battery runs
the same suites at its own pinned scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .crossed import CrossedElement, TruncatedElement, truncate
from .engine import rank_interval
from .errors import BadConfig
from .fields import Field
from .represent import (
    WordMatrix,
    matrix_unit_element,
    occurrence_project,
    project_element,
    segment_element,
)
from .space import ClopenSet, SystemConfig, cylinder
from .towers import LevelScheme, get_family, verify_mass_identity

SUITES = ("mass", "hom", "oracle", "bratteli", "sylvester")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _random_element(rnd: random.Random, config: SystemConfig, field: Field,
                    max_terms: int = 3, max_degree: int = 2) -> CrossedElement:
    """Random radius-<=1 element with small integer scalars."""
    e = CrossedElement.zero(config, field)
    letters = config.letters
    for _ in range(rnd.randint(1, max_terms)):
        off = rnd.randint(-1, 1)
        wlen = rnd.randint(1, 2 - max(0, off))
        word = "".join(rnd.choice(letters) for _ in range(wlen))
        scalar = field.from_int(rnd.choice([-2, -1, 1, 2, 3]))
        d = rnd.randint(-max_degree, max_degree)
        term = CrossedElement.from_clopen(cylinder(config, off, word), field)
        term = term.scalar_mul(scalar) * CrossedElement.shift_unit(config, field, d)
        e = e + term
    return e


def _random_segment(rnd: random.Random, config: SystemConfig, level: int,
                    total: int) -> list[str]:
    width = 2 * level + 1
    marker_block = config.marker_char * width
    merged_len = width + total - 1
    while True:
        merged = "".join(rnd.choice(config.letters) for _ in range(merged_len))
        cells = [merged[i : i + width] for i in range(total)]
        if all(c != marker_block for c in cells):
            return cells


def suite_mass(config: SystemConfig, field: Field, seed: int) -> list[CheckResult]:
    rnd = random.Random(seed)
    out = []
    for level in (0, 1):
        fam = get_family(config, level, 8)
        mass = sum((w.length * w.measure for w in fam.words), Fraction(0))
        out.append(CheckResult(
            f"tower-mass-level-{level}",
            mass + fam.tail == 1 and fam.tail >= 0,
            f"sum|W|mu(W)={mass}, tail={fam.tail}",
        ))
        tails = [get_family(config, level, k).tail for k in range(2, 9)]
        out.append(CheckResult(
            f"tail-monotone-level-{level}",
            all(a >= b for a, b in zip(tails, tails[1:])),
            "tail non-increasing in kmax",
        ))
        base = LevelScheme(config, level).base
        base_mass = sum((w.measure for w in fam.words), Fraction(0))
        out.append(CheckResult(
            f"base-quasi-partition-level-{level}",
            base_mass <= base.measure() and base_mass > 0,
            f"sum mu(W)={base_mass} vs mu(E)={base.measure()}",
        ))
        translates = [
            (w, l) for w in fam.words if w.length <= 5 for l in range(w.length)
        ]
        rnd.shuffle(translates)
        ok = True
        for (w1, l1), (w2, l2) in zip(translates[:12], translates[1:13]):
            if (w1, l1) == (w2, l2):
                continue
            s1 = w1.clopen().shift(l1)
            s2 = w2.clopen().shift(l2)
            if not s1.intersect(s2).is_empty():
                ok = False
        out.append(CheckResult(
            f"translate-disjointness-level-{level}", ok,
            "sampled tower cells pairwise disjoint",
        ))
    # first-return structure: words of length k tile the exact k-return set
    scheme = LevelScheme(config, 0)
    fam0 = get_family(config, 0, 4)
    e = scheme.base
    ok = True
    for k in range(1, 5):
        y = e
        for j in range(1, k):
            y = y.intersect(e.shift(-j).complement())
        y = y.intersect(e.shift(-k))
        union = ClopenSet.empty(config)
        for w in fam0.words:
            if w.length == k:
                union = union.union(w.clopen())
        if union != y:
            ok = False
    out.append(CheckResult("first-return-cells", ok,
                           "length-k words tile the k-th return set"))
    return out


def suite_hom(config: SystemConfig, field: Field, seed: int,
              pairs: int = 40, kmax: int = 6) -> list[CheckResult]:
    """Projection onto every level-1 word with |W| <= kmax is a *-homomorphism."""
    rnd = random.Random(seed)
    words = get_family(config, 1, kmax).words
    ok_prod = True
    ok_star = True
    for _ in range(pairs):
        a = truncate(_random_element(rnd, config, field), 1)
        b = truncate(_random_element(rnd, config, field), 1)
        ab = a * b
        astar = a.adjoint()
        for w in words:
            ma, mb = project_element(a, w), project_element(b, w)
            if project_element(ab, w) != ma * mb:
                ok_prod = False
            if project_element(astar, w) != ma.transpose():
                ok_star = False
    scope = f"{pairs} random pairs over {len(words)} words (|W| <= {kmax})"
    out = [
        CheckResult("projection-multiplicative", ok_prod,
                    f"project(ab) == project(a)project(b) on {scope}"),
        CheckResult("projection-star", ok_star,
                    f"project(a*) is the transpose of project(a) on {scope}"),
    ]
    ok_units = True
    zero = CrossedElement.zero(config, field)
    for w in words:
        k = w.length
        units = {(i, j): matrix_unit_element(w, i, j, field)
                 for i in range(k) for j in range(k)}
        for (i, j), eij in units.items():
            tr = TruncatedElement.wrap(eij, 1)
            if project_element(tr, w) != WordMatrix.elementary(w, field, i, j):
                ok_units = False
            for kk in range(k):
                for l in range(k):
                    expect = units[i, l] if j == kk else zero
                    if eij * units[kk, l] != expect:
                        ok_units = False
    out.append(CheckResult("matrix-unit-relations", ok_units,
                           f"e_ij projects to E_ij and e_ij e_kl = delta_jk e_il "
                           f"on all {len(words)} words"))
    return out


def suite_oracle(config: SystemConfig, field: Field, seed: int,
                 segments: int = 30) -> list[CheckResult]:
    """Occurrence formula against direct projection for random segment monomials.

    Each segment monomial sits at a random level 0 or 1 and is checked on
    every word of length 2..10 at that level.
    """
    rnd = random.Random(seed)
    kmax = 10
    ok = True
    checked = 0
    for _ in range(segments):
        level = rnd.choice((0, 1))
        words = [w for w in get_family(config, level, kmax).words if w.length >= 2]
        total = rnd.randint(1, 3)
        s = rnd.randint(0, total)
        d = rnd.randint(-(total - s), s)
        segment = _random_segment(rnd, config, level, total)
        elem = segment_element(segment, s, d, config, level, field)
        for w in words:
            checked += 1
            if occurrence_project(segment, s, d, w, field) != project_element(elem, w):
                ok = False
    return [CheckResult("occurrence-oracle", ok,
                        f"occurrence formula == direct projection on {checked} cases: "
                        f"{segments} random segment monomials at levels 0 and 1, "
                        f"|W| <= {kmax}")]


def suite_bratteli(config: SystemConfig, field: Field, seed: int) -> list[CheckResult]:
    rnd = random.Random(seed)
    out = []
    coarse = get_family(config, 0, 6)
    fine = get_family(config, 1, 6)
    indeg = {wp: 0 for wp in fine.words}
    from .towers import edge_offsets

    for w in coarse.words:
        for wp in fine.words:
            indeg[wp] += len(edge_offsets(w, wp))
    out.append(CheckResult(
        "fine-in-degree", all(v >= 1 for v in indeg.values()),
        "every enumerated fine word receives an edge",
    ))
    w0 = coarse.words[0]
    deficits = []
    for kmax in (4, 6, 8, 10):
        deficits.append(verify_mass_identity(w0, get_family(config, 1, kmax)).deficit)
    out.append(CheckResult(
        "mass-identity-deficit",
        all(d >= 0 for d in deficits)
        and all(a >= b for a, b in zip(deficits, deficits[1:])),
        f"deficits {[str(d) for d in deficits]} nonnegative and non-increasing",
    ))
    base = LevelScheme(config, 0).base
    ok_refine = True
    for wp in rnd.sample(list(fine.words), min(6, len(fine.words))):
        for l in range(wp.length):
            cell = wp.clopen().shift(l)
            in_base = cell.subset_of(base)
            in_cells = any(
                cell.subset_of(cylinder(config, 0, ch))
                for ch in config.letters if ch != config.marker_char
            )
            if not (in_base or in_cells):
                ok_refine = False
    out.append(CheckResult(
        "refinement", ok_refine,
        "fine tower cells sit inside one coarse partition cell",
    ))
    return out


def suite_sylvester(config: SystemConfig, field: Field, seed: int,
                    pairs: int = 15) -> list[CheckResult]:
    """Sylvester-type rank inequalities on random pairs at level 3, cap 12."""
    rnd = random.Random(seed)
    # products of radius-1, degree-<=2 elements have radius up to 3
    level, kmax = 3, 12
    ok_prod = True
    ok_diag = True
    ok_star = True
    for _ in range(pairs):
        a = _random_element(rnd, config, field)
        b = _random_element(rnd, config, field)
        iva = rank_interval(a, level, kmax)
        ivb = rank_interval(b, level, kmax)
        ivab = rank_interval(a * b, level, kmax)
        slack = iva.width + ivb.width
        if ivab.upper > min(iva.upper, ivb.upper) + slack:
            ok_prod = False
        ivdiag = rank_interval([[a, CrossedElement.zero(config, field)],
                                [CrossedElement.zero(config, field), b]], level, kmax)
        if ivdiag.partial != iva.partial + ivb.partial:
            ok_diag = False
        if rank_interval(a.adjoint(), level, kmax).partial != iva.partial:
            ok_star = False
    one = rank_interval(CrossedElement.one(config, field), level, kmax)
    zero = rank_interval(CrossedElement.zero(config, field), level, kmax)
    return [
        CheckResult("product-upper-bound", ok_prod,
                    f"upper(ab) <= min(upper a, upper b) + widths on {pairs} random "
                    f"pairs (n={level}, kmax={kmax})"),
        CheckResult("diag-additivity", ok_diag,
                    "partial(diag(a,b)) = partial(a) + partial(b) exactly"),
        CheckResult("adjoint-partial", ok_star, "partial(a*) = partial(a) exactly"),
        CheckResult("normalization", one.upper == 1 and one.lower <= 1 and zero.partial == 0,
                    "unit has upper 1; zero has partial 0"),
    ]


_SUITE_FNS = {
    "mass": suite_mass,
    "hom": suite_hom,
    "oracle": suite_oracle,
    "bratteli": suite_bratteli,
    "sylvester": suite_sylvester,
}


def run_suite(name: str, config: SystemConfig, field: Field, seed: int) -> list[CheckResult]:
    try:
        fn = _SUITE_FNS[name]
    except KeyError:
        raise BadConfig(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return fn(config, field, seed)
