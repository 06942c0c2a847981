import json
import random
from fractions import Fraction

import pytest

from shiftrank import (
    BINARY,
    QQ,
    BadConfig,
    CrossedElement,
    LevelTooSmall,
    LocallyConstantFn,
    PrimeField,
    auto_refine,
    cylinder,
    get_family,
    level_base,
    matrix_rank,
    parse_expr,
    rank_interval,
    rank_report,
    supports_level,
    truncate,
    truncation_epsilon,
)
from shiftrank import acceptance
from shiftrank.checks import _random_element
from shiftrank.crossed import _tail_mask
from shiftrank.engine import _Compiled, rational_decimal
from shiftrank.represent import project_matrix

F = Fraction


def _shift_off_base(field=QQ):
    return CrossedElement.from_clopen(level_base(BINARY, 0).complement(), field) * \
        CrossedElement.shift_unit(BINARY, field)


def test_indicator_interval_contains_measure():
    for text, mu in (("chi(0;0)", F(1, 2)), ("chi(-1;10)", F(1, 4)), ("chi(-1;111)", F(1, 8))):
        e = parse_expr(text, BINARY, QQ)
        iv = rank_interval(e, 1, 12)
        assert iv.lower <= mu <= iv.upper
        assert iv.epsilon == 0
        assert iv.width == iv.tail  # dim 1, no clamping for indicators


def test_unit_and_zero():
    one = parse_expr("t * t'", BINARY, QQ)
    iv = rank_interval(one, 1, 10)
    assert iv.upper == 1 and iv.lower <= 1
    z = rank_interval(CrossedElement.zero(BINARY, QQ), 0, 6)
    assert z.lower == 0 and z.partial == 0
    t_iv = rank_interval(parse_expr("t", BINARY, QQ), 0, 12)
    assert t_iv.lower <= 1 <= t_iv.upper and t_iv.upper == 1


def test_shift_series_partials():
    el = _shift_off_base()
    for cap in (1, 4, 9, 14):
        iv = rank_interval(el, 0, cap)
        expected = sum(((k - 1) * F(1, 2 ** (k + 1)) for k in range(1, cap + 1)), F(0))
        assert iv.partial == expected
        assert iv.epsilon == 0
        assert iv.lower <= F(1, 2) <= iv.upper
        assert iv.upper - iv.lower <= iv.tail + F(1, 2 ** (cap + 1))


def test_proportional_rows_matrix():
    t = parse_expr("t", BINARY, QQ)
    one = parse_expr("1", BINARY, QQ)
    tstar = parse_expr("t'", BINARY, QQ)
    iv = rank_interval([[t, one], [one, tstar]], 1, 14)
    assert iv.dim == 2
    assert iv.lower <= 1 <= iv.upper


def test_interval_width_formula_and_monotonicity():
    e = parse_expr("chi(0;1) * t - 2 * chi(0;0)", BINARY, QQ)
    prev = None
    prev_partial = None
    for cap in (2, 4, 8, 12, 16):
        iv = rank_interval(e, 1, cap)
        if iv.upper < 1 and iv.lower > 0:
            assert iv.width == 2 * iv.epsilon + iv.dim * iv.tail
        if prev is not None:
            assert iv.width <= prev
            assert iv.partial >= prev_partial
        prev, prev_partial = iv.width, iv.partial


def test_level_too_small():
    e = parse_expr("chi(-2;11)", BINARY, QQ)
    with pytest.raises(LevelTooSmall):
        rank_interval(e, 1, 6)
    iv = rank_interval(e, 2, 6)
    assert iv.lower <= F(1, 4) <= iv.upper


def test_bad_matrix_shape():
    t = parse_expr("t", BINARY, QQ)
    with pytest.raises(BadConfig):
        rank_interval([[t, t]], 1, 4)


def _mask_epsilon(a, n):
    """The mask rule: |d| * mu(E_n) for every degree d != 0 whose
    coefficient changes when multiplied by the explicit strip mask."""
    mu = level_base(a.config, n).measure()
    eps = F(0)
    for d, f in a.coeffs.items():
        if d and f * LocallyConstantFn.indicator(_tail_mask(a.config, n, d), a.field) != f:
            eps += abs(d) * mu
    return eps


# caps for the rank cross-check: every level-0 word up to length 24, so that
# degrees up to +-16 reach rows; small families above, where the reference
# route projects and eliminates every word
_CHECK_KMAX = {0: 24, 1: 10, 2: 12, 3: 10}


def _cross_check_cases(field):
    """(matrix, level, kmax): the random elements of the check suites, the
    criterion 8 and 10 expressions and the high-degree benchmark expressions.

    The mask oracle lists about 2^(|d|+2n+1) window words (12 s for one
    degree-16 coefficient at level 2), so degrees above 12 run at levels 0
    and 1 only.
    """
    def levels(e, top=2):
        deg = max((abs(d) for d in e.coeffs), default=0)
        return [n for n in range(e.radius, max(top, e.radius) + 1) if n < 2 or deg <= 12]

    cases = []
    rnd = random.Random(31)
    elements = [_random_element(rnd, BINARY, field) for _ in range(6)]
    elements += [_random_element(rnd, BINARY, field, max_degree=12) for _ in range(3)]
    rnd = random.Random(acceptance._SEED)
    elements += [acceptance._random_radius1_expr(rnd, field) for _ in range(20)]
    for e in elements:
        cases += [([[e]], n, _CHECK_KMAX[n]) for n in levels(e)]
    rnd = random.Random(acceptance._SEED)
    for _ in range(4):  # criterion 10 ranks a, b and a*b at level 3
        a = _random_element(rnd, BINARY, field)
        b = _random_element(rnd, BINARY, field)
        cases += [([[x]], n, _CHECK_KMAX[n]) for x in (a, b, a * b) for n in levels(x, 3)]
    zero = CrossedElement.zero(BINARY, field)
    for text in ("t^16", "t^-16", "-11*t^14", "(t + 3)^10",
                 "chi(0;1)*t^16 + 2*chi(0;10)*t^-16"):
        e = parse_expr(text, BINARY, field)
        cases += [([[e]], n, {0: 24, 1: 12}[n]) for n in levels(e, 1)]
    mixed = parse_expr("chi(-1;00)*t^12 - 4*t^-9 + chi(0;101)", BINARY, field)
    chi = parse_expr("chi(-2;101)", BINARY, field)
    cases += [([[mixed]], 2, 14), ([[parse_expr("6*t^12", BINARY, field)]], 2, 14),
              ([[chi]], 2, 14), ([[mixed, zero], [zero, chi]], 2, 14)]
    return cases


def _check_fast_path(field, seed):
    """The rank path against the reference route, exactly: the strip-test
    epsilon against the mask rule, and _Compiled over the raw entries against
    the rank of the projected truncated entries on every word."""
    rnd = random.Random(seed)
    cases = _cross_check_cases(field)
    for _ in range(12):
        d = rnd.randint(1, 2)
        cases.append(([[_random_element(rnd, BINARY, field) for _ in range(d)]
                       for _ in range(d)], 1, 7))
    for m, n, kmax in cases:
        trunc = [[truncate(e, n) for e in row] for row in m]
        for row, trow in zip(m, trunc):
            for e, tr in zip(row, trow):
                eps = _mask_epsilon(e, n)
                assert truncation_epsilon(e, n) == eps == tr.epsilon
                assert supports_level(e, n) == (eps == 0)
                assert supports_level(tr.element, n)
        compiled = _Compiled(m, field)
        for w in get_family(BINARY, n, kmax).words:
            assert compiled.word_rank(w) == matrix_rank(project_matrix(trunc, w))


def test_fast_path_matches_reference():
    _check_fast_path(QQ, 21)


def test_fast_path_matches_reference_mod_p():
    _check_fast_path(PrimeField(7), 22)


def test_refine_intervals_intersect():
    e = parse_expr("chi(0;0)", BINARY, QQ)
    ivs = [rank_interval(e, n, kmax) for n, kmax in [(1, 6), (1, 12), (2, 6), (2, 12)]]
    for i in range(4):
        for j in range(i + 1, 4):
            assert ivs[i].intersects(ivs[j])


def test_refine_unit_and_zero():
    one = parse_expr("t * t'", BINARY, QQ)
    ivs = [rank_interval(one, n, kmax) for n, kmax in [(1, 5), (1, 9)]]
    assert all(iv.lower <= 1 <= iv.upper for iv in ivs)
    zero = CrossedElement.zero(BINARY, QQ)
    ivs = [rank_interval(zero, n, kmax) for n, kmax in [(0, 4), (1, 4)]]
    assert all(iv.lower == 0 for iv in ivs)


def test_auto_refine_stops_on_budget_or_width():
    e = parse_expr("chi(0;0)", BINARY, QQ)
    trail = auto_refine(e, 0, width_target=F(1, 10**6), word_budget=10**5)
    assert trail[-1].width < F(1, 10**6)
    widths = [iv.width for iv in trail]
    assert widths == sorted(widths, reverse=True)
    short = auto_refine(e, 1, width_target=F(0), word_budget=50)
    assert short[-1].words_used > 50


def test_rank_report():
    e = parse_expr("chi(-1;111)", BINARY, QQ)  # the level-1 base
    doc = rank_report(e, 1, 6)
    total = sum(F(row["contribution"]) for row in doc["per_word"])
    assert total == F(doc["partial"])
    assert all(row["rank"] == 1 for row in doc["per_word"])  # e_00 on every word
    assert doc["words_used"] == len(doc["per_word"])
    again = json.loads(json.dumps(doc))
    assert again == doc
    contribs = [F(r["contribution"]) for r in doc["per_word"]]
    assert contribs == sorted(contribs, reverse=True)
    # the report and the interval come from one path, over Q and F_7, for the
    # base indicator and for a diagonal matrix
    for field in (QQ, PrimeField(7)):
        rnd = random.Random(23)
        a = _random_element(rnd, BINARY, field)
        b = _random_element(rnd, BINARY, field)
        zero = CrossedElement.zero(BINARY, field)
        cases = [(parse_expr("chi(-1;111)", BINARY, field), 1, 6),
                 ([[a, zero], [zero, b]], 3, 10)]
        for m, level, kmax in cases:
            doc = rank_report(m, level, kmax)
            iv = rank_interval(m, level, kmax)
            assert {k: v for k, v in doc.items() if k != "per_word"} == iv.to_json_dict()
            total = sum((F(row["contribution"]) for row in doc["per_word"]), F(0))
            assert total == iv.partial


def test_adjoint_and_diag_partials():
    rnd = random.Random(23)
    zero = CrossedElement.zero(BINARY, QQ)
    for _ in range(8):
        a = _random_element(rnd, BINARY, QQ)
        b = _random_element(rnd, BINARY, QQ)
        iva = rank_interval(a, 3, 10)
        assert rank_interval(a.adjoint(), 3, 10).partial == iva.partial
        ivd = rank_interval([[a, zero], [zero, b]], 3, 10)
        assert ivd.partial == iva.partial + rank_interval(b, 3, 10).partial


def test_soundness_against_known_values():
    # cylinders on windows within the level: true rank equals the measure
    for off, word in ((-1, "0"), (0, "11"), (-1, "101")):
        u = cylinder(BINARY, off, word)
        e = CrossedElement.from_clopen(u, QQ)
        iv = rank_interval(e, 1, 16)
        assert iv.lower <= u.measure() <= iv.upper
    # invertibles have rank 1
    for text in ("t", "t^-2", "t * t'", "2/3 * t"):
        iv = rank_interval(parse_expr(text, BINARY, QQ), 2, 10)
        assert iv.lower <= 1 and iv.upper == 1


def test_json_dict_fields():
    iv = rank_interval(parse_expr("chi(0;0)", BINARY, QQ), 1, 8)
    doc = iv.to_json_dict()
    for key in ("lower", "upper", "partial", "epsilon", "tail", "level",
                "kmax", "dim", "words_used", "field"):
        assert key in doc
    assert doc["field"] == "Q"
    assert doc["lower_dec"].count(".") == 1
    assert len(doc["lower_dec"].split(".")[1]) == 12


def test_rational_decimal():
    assert rational_decimal(F(1, 2)) == "0.500000000000"
    assert rational_decimal(F(22, 2**21), 12) == "0.000010490417"
    assert rational_decimal(F(3)) == "3.000000000000"
