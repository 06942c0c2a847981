import random
from fractions import Fraction

import pytest

from shiftrank import (
    BINARY,
    QQ,
    BadLetter,
    CrossedElement,
    DivisionByZero,
    ExprSyntaxError,
    PrimeField,
    cylinder,
    parse_expr,
    render_element,
)
from shiftrank.expressions import MAX_GROUP_POWER

F = Fraction


def _p(text, field=QQ):
    return parse_expr(text, BINARY, field)


def test_basic_examples():
    assert _p("t * t'") == CrossedElement.one(BINARY, QQ)
    chi1t = CrossedElement.from_clopen(cylinder(BINARY, 0, "1"), QQ) * \
        CrossedElement.shift_unit(BINARY, QQ)
    chi0 = CrossedElement.from_clopen(cylinder(BINARY, 0, "0"), QQ)
    assert _p("chi(0;1)*t + chi(0;0)") == chi1t + chi0
    assert _p("2/3 * chi(-1;10)") == CrossedElement.from_clopen(
        cylinder(BINARY, -1, "10"), QQ).scalar_mul(F(2, 3))


def test_powers_and_adjoints():
    assert _p("t^-2") == _p("(t')^2") == _p("t' * t'")
    assert _p("t^0") == _p("1")
    assert _p("(chi(0;1) * t)'") == _p("chi(0;1)*t").adjoint()
    assert _p("t''") == _p("t")


def test_precedence_and_parentheses():
    assert _p("1 - 2 * 3") == _p("-5")
    assert _p("(1 - 2) * 3") == _p("-3")
    assert _p("2 * chi(0;1)'") == _p("2 * chi(0;1)")


def test_word_letters_preserved():
    # leading zeros in cylinder words matter
    assert _p("chi(0;01)") != _p("chi(0;1)")
    assert _p("chi(-1;001)") == CrossedElement.from_clopen(
        cylinder(BINARY, -1, "001"), QQ)


def test_errors():
    with pytest.raises(ExprSyntaxError) as err:
        _p("t +")
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError):
        _p("chi(0:1)")
    with pytest.raises(ExprSyntaxError):
        _p("2 * * 3")
    with pytest.raises(ExprSyntaxError):
        _p("t 2")
    with pytest.raises(BadLetter):
        _p("chi(0;2)")
    with pytest.raises(DivisionByZero):
        _p("1/0")


def test_group_power_cap():
    assert _p(f"(t + 1)^{MAX_GROUP_POWER}") == _p(f"(t + 1)^{MAX_GROUP_POWER - 1} * (t + 1)")
    for text, caret in (("(t + 1)^65", 7), ("2 * (t)^100000", 7), ("(t + 1)^-1", 7)):
        with pytest.raises(ExprSyntaxError) as err:
            _p(text)
        assert err.value.position == caret


def test_render_fixed_point_on_examples():
    for text in (
        "0",
        "1",
        "-1",
        "t",
        "t^-1",
        "chi(0;1)",
        "2/3 * chi(-1;10)",
        "chi(0;1) * t + chi(0;0)",
        "t - 1",
        "-1/2 * chi(0;0) * t^2 + 7 * chi(-1;11)",
    ):
        e = _p(text)
        r = render_element(e)
        assert _p(r) == e
        assert render_element(_p(r)) == r  # render is a fixed point


def test_render_fixed_point_random():
    rnd = random.Random(11)
    for _ in range(50):
        e = CrossedElement.zero(BINARY, QQ)
        for _ in range(rnd.randint(1, 4)):
            off = rnd.randint(-2, 2)
            word = "".join(rnd.choice("01") for _ in range(rnd.randint(1, 3)))
            coeff = F(rnd.randint(-5, 5), rnd.randint(1, 4))
            term = CrossedElement.from_clopen(cylinder(BINARY, off, word), QQ)
            e = e + term.scalar_mul(coeff) * CrossedElement.shift_unit(
                BINARY, QQ, rnd.randint(-3, 3))
        r = render_element(e)
        assert _p(r) == e
        assert render_element(_p(r)) == r


def test_prime_field_expressions():
    f5 = PrimeField(5)
    e = parse_expr("1/2 * chi(0;1)", BINARY, f5)
    assert e.coeff(0).values == {"1": f5.from_int(3)}
    r = render_element(e)
    assert parse_expr(r, BINARY, f5) == e
    with pytest.raises(DivisionByZero):
        parse_expr("1/5", BINARY, f5)
