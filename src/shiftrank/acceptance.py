"""End-to-end verification battery with pinned tolerances.

Every criterion is a standalone function returning a :class:`CriterionResult`;
``run_all`` executes the battery and prints one pass/fail line per criterion.
The binary (1/2, 1/2) system with marker 1 is the reference instance.

Criteria 3b and 7b check the tail and Bratteli deficit targets at the
smallest length caps where the construction meets them (140 and 83): the
number of level-1 return words of length k grows like 1.84^k, so the tail
decays like 0.92^k, and no cap that enumeration can reach gets there.  The
exact run-length recursion of ``towers.tower_tail`` and
``towers.mass_deficit`` does, and each criterion first checks it against the
enumerated value at the old caps (24 and 25).

Criteria 5, 6, 10 and 11 run the property suites of ``checks`` (hom, oracle,
sylvester) at the pinned scale below, each from ``random.Random(_SEED)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product

from .checks import CheckResult, suite_hom, suite_oracle, suite_sylvester
from .crossed import CrossedElement
from .engine import rank_interval
from .expressions import parse_expr
from .fields import QQ, Field, PrimeField
from .linalg import matrix_rank
from .periodic import PeriodicPoint, evaluation_rank, periodic_rank_kt, rho_finite
from .space import BINARY, cylinder, level_base
from .towers import get_family, mass_deficit, tower_tail, verify_mass_identity

F7 = PrimeField(7)
_SEED = 20260808


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"criterion {self.cid}: {'PASS' if self.ok else 'FAIL'} - {self.detail}"


def criterion_1() -> CriterionResult:
    """Exact tower mass at level 0 and the closed-form tail."""
    fam = get_family(BINARY, 0, 20)
    mass = sum((w.length * w.measure for w in fam.words), Fraction(0))
    ok = mass == 1 - Fraction(22, 2**21)
    details = [f"sum|W|mu(W) at kmax=20 is {mass}"]
    for cap in range(1, 21):
        tail = get_family(BINARY, 0, cap).tail
        if tail != Fraction(cap + 2, 2 ** (cap + 1)):
            ok = False
            details.append(f"tail({cap}) = {tail} != (K+2)2^-(K+1)")
    return CriterionResult("1", ok, "; ".join(details))


def criterion_2() -> CriterionResult:
    """Level-1 word census against a brute-force enumeration."""
    fam = get_family(BINARY, 1, 8)
    by_k: dict[int, list[str]] = {}
    for w in fam.words:
        by_k.setdefault(w.length, []).append(w.content)
    ok = by_k.get(1) == ["1111"] and by_k.get(4) == ["1110111"]
    ok = ok and 2 not in by_k and 3 not in by_k
    detail = f"k=1: {by_k.get(1)}, k=4: {by_k.get(4)}"
    for k, contents in by_k.items():
        if k >= 5:
            for c in contents:
                inner = c[4:-4]
                if not (c[3] == "0" and c[-4] == "0" and "111" not in inner):
                    ok = False
                    detail += f"; malformed {c}"
    for k in range(1, 9):
        brute = _census_brute(1, k)
        if sorted(by_k.get(k, [])) != sorted(brute):
            ok = False
            detail += f"; census mismatch at k={k}"
    return CriterionResult("2", ok, detail)


def _census_brute(n: int, k: int) -> list[str]:
    width = 2 * n + 1
    block = "1" * width
    total = width + k
    out = []
    for bits in product("01", repeat=total):
        s = "".join(bits)
        if s[:width] != block or s[-width:] != block:
            continue
        if any(s[j : j + width] == block for j in range(1, k)):
            continue
        out.append(s)
    return out


def _window_cylinders():
    return [cylinder(BINARY, -1, "".join(bits)) for bits in product("01", repeat=3)]


def _measure_compat_core(field: Field):
    """Criterion 3 invariants: interval contains mu(U), width == tail (eps 0)."""
    results = []
    for u in _window_cylinders():
        iv = rank_interval(CrossedElement.from_clopen(u, field), 1, 24)
        mu = u.measure()
        results.append((iv, mu,
                        iv.lower <= mu <= iv.upper and iv.width <= iv.tail
                        and iv.epsilon == 0))
    return results


def criterion_3a() -> CriterionResult:
    rows = _measure_compat_core(QQ)
    ok = all(flag for _, _, flag in rows)
    iv = rows[0][0]
    return CriterionResult(
        "3a", ok,
        f"8 window-[-1,1] cylinders at (n=1, kmax=24): interval contains mu(U), "
        f"width = tail = {float(iv.tail):.6f}",
    )


def criterion_3b() -> CriterionResult:
    """Level-1 tail below 1e-4 at cap 140, the smallest cap that reaches it."""
    tail24 = get_family(BINARY, 1, 24).tail
    tail140 = tower_tail(BINARY, 1, 140)
    ok = tower_tail(BINARY, 1, 24) == tail24 and tail140 < Fraction(1, 10**4)
    return CriterionResult(
        "3b", ok,
        f"tail(n=1, kmax=24) = {float(tail24):.6f} by enumeration and recursion; "
        f"tail(n=1, kmax=140) = {float(tail140):.4e} vs target 1e-4",
    )


def _shift_series_core(field: Field, caps) -> tuple[bool, str]:
    base = level_base(BINARY, 0)
    el = CrossedElement.from_clopen(base.complement(), field) * \
        CrossedElement.shift_unit(BINARY, field)
    ok = True
    detail = ""
    for cap in caps:
        iv = rank_interval(el, 0, cap)
        expected = sum(
            ((k - 1) * Fraction(1, 2 ** (k + 1)) for k in range(1, cap + 1)),
            Fraction(0),
        )
        if iv.partial != expected or iv.epsilon != 0:
            ok = False
            detail += f" partial({cap}) = {iv.partial} != {expected};"
        if not iv.lower <= Fraction(1, 2) <= iv.upper:
            ok = False
            detail += f" 1/2 not in interval at K={cap};"
    return ok, detail


def criterion_4() -> CriterionResult:
    ok, detail = _shift_series_core(QQ, list(range(1, 13)) + [20, 30])
    iv30 = rank_interval(
        CrossedElement.from_clopen(level_base(BINARY, 0).complement(), QQ)
        * CrossedElement.shift_unit(BINARY, QQ),
        0, 30,
    )
    if not iv30.width < Fraction(1, 10**6):
        ok = False
        detail += f" width({30}) = {float(iv30.width)} >= 1e-6;"
    return CriterionResult(
        "4", ok,
        detail or f"partial(K) matches the series; width(30) = {float(iv30.width):.3g}",
    )


def _from_suites(cid: str, results: list[CheckResult]) -> CriterionResult:
    return CriterionResult(cid, all(r.ok for r in results),
                           "; ".join(r.line() for r in results))


def criterion_5() -> CriterionResult:
    return _from_suites("5", suite_hom(BINARY, QQ, _SEED, pairs=500, kmax=8))


def criterion_6() -> CriterionResult:
    return _from_suites("6", suite_oracle(BINARY, QQ, _SEED, segments=200))


_DEFICIT_CAPS = (5, 10, 15, 20, 25)


@cache
def _deficits():
    coarse = get_family(BINARY, 0, 4).words
    table = {}
    for w in coarse:
        table[w.content] = [
            verify_mass_identity(w, get_family(BINARY, 1, cap)).deficit
            for cap in _DEFICIT_CAPS
        ]
    return table


def criterion_7a() -> CriterionResult:
    table = _deficits()
    ok = all(
        all(d >= 0 for d in ds) and all(a >= b for a, b in zip(ds, ds[1:]))
        for ds in table.values()
    )
    return CriterionResult(
        "7a", ok,
        "deficits nonnegative and non-increasing in kmax for all coarse words k <= 4",
    )


def criterion_7b() -> CriterionResult:
    """Bratteli deficit below 2^-10 at fine cap 83, the smallest cap that reaches it."""
    table = _deficits()
    coarse = get_family(BINARY, 0, 4).words
    exact = all(
        [mass_deficit(w, cap) for cap in _DEFICIT_CAPS] == table[w.content]
        for w in coarse
    )
    worst = max(mass_deficit(w, 83) for w in coarse)
    ok = exact and worst < Fraction(1, 2**10)
    return CriterionResult(
        "7b", ok,
        f"recursion reproduces the 7a deficit table: {exact}; max deficit at fine "
        f"kmax=83 is {float(worst):.4e} vs target 2^-10 = {float(Fraction(1, 2**10)):.4e}",
    )


def _random_radius1_expr(rnd: random.Random, field: Field) -> CrossedElement:
    """Random expression of radius <= 1: one or two cylinder monomials."""
    def monomial():
        off = rnd.randint(-1, 1)
        wlen = rnd.randint(1, 2 if off <= 0 else 1)
        word = "".join(rnd.choice("01") for _ in range(wlen))
        coeff = field.from_int(rnd.choice([-2, -1, 1, 2, 3]))
        d = rnd.randint(-2, 2)
        return (
            CrossedElement.from_clopen(cylinder(BINARY, off, word), field)
            .scalar_mul(coeff)
            * CrossedElement.shift_unit(BINARY, field, d)
        )

    e = monomial()
    if rnd.random() < 0.35:
        e = e + monomial()
    return e


def criterion_8() -> CriterionResult:
    rnd = random.Random(_SEED)
    configs = [(1, 12), (1, 24), (2, 12), (2, 24)]
    ok = True
    detail = ""
    for idx in range(20):
        e = _random_radius1_expr(rnd, QQ)
        ivs = [rank_interval(e, n, kmax) for n, kmax in configs]
        for i in range(len(ivs)):
            for j in range(i + 1, len(ivs)):
                if not ivs[i].intersects(ivs[j]):
                    ok = False
                    detail += f" expr {idx}: {configs[i]} vs {configs[j]} disjoint;"
    return CriterionResult(
        "8", ok,
        detail or "20 random radius-<=1 expressions: intervals at "
        "(n,kmax) in {1,2}x{12,24} pairwise intersect",
    )


def criterion_9() -> CriterionResult:
    x = PeriodicPoint(BINARY, "0")
    e = parse_expr("t - 1", BINARY, QQ)
    kt = periodic_rank_kt(e, x)
    rho = matrix_rank(rho_finite(e, x))
    ev = evaluation_rank(e, x, Fraction(2))
    ok = kt == 1 and rho == 0 and ev == 1
    return CriterionResult(
        "9", ok, f"fixed point '0': kt-rank {kt}, rho-rank {rho}, eval(2)-rank {ev}",
    )


def criterion_10() -> CriterionResult:
    return _from_suites("10", suite_sylvester(BINARY, QQ, _SEED, pairs=100))


def criterion_11() -> CriterionResult:
    rows_q = _measure_compat_core(QQ)
    rows_7 = _measure_compat_core(F7)
    ok = all(f for _, _, f in rows_q) and all(f for _, _, f in rows_7)
    same_partials = all(
        a.partial == b.partial for (a, _, _), (b, _, _) in zip(rows_q, rows_7)
    )
    ok = ok and same_partials
    s_q = _shift_series_core(QQ, [12])
    s_7 = _shift_series_core(F7, [12])
    ok = ok and s_q[0] and s_7[0]
    suites = suite_hom(BINARY, F7, _SEED, pairs=120, kmax=8) \
        + suite_oracle(BINARY, F7, _SEED, segments=80)
    ok = ok and all(r.ok for r in suites)
    return CriterionResult(
        "11", ok,
        "measure-compat, shift series, homomorphism, occurrence oracle hold over "
        f"F_7 as over Q; indicator partials identical across fields: {same_partials}",
    )


ALL_CRITERIA = (
    ("1", criterion_1),
    ("2", criterion_2),
    ("3a", criterion_3a),
    ("3b", criterion_3b),
    ("4", criterion_4),
    ("5", criterion_5),
    ("6", criterion_6),
    ("7a", criterion_7a),
    ("7b", criterion_7b),
    ("8", criterion_8),
    ("9", criterion_9),
    ("10", criterion_10),
    ("11", criterion_11),
)


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for _, fn in ALL_CRITERIA:
        r = fn()
        results.append(r)
        if verbose:
            print(r.line(), flush=True)
    return results
