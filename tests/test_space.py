from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftrank import (
    BINARY,
    QQ,
    BadConfig,
    BadLetter,
    ClopenSet,
    LocallyConstantFn,
    SystemConfig,
    cylinder,
    level_base,
    parse_system,
)

F = Fraction

# small random clopen sets on windows inside [-3, 3]
offsets = st.integers(min_value=-3, max_value=1)
words = st.text(alphabet="01", min_size=1, max_size=3)
clopens = st.builds(lambda o, w: cylinder(BINARY, o, w), offsets, words)
shifts = st.integers(min_value=-4, max_value=4)


def test_config_validation():
    with pytest.raises(BadConfig):
        SystemConfig(1, (F(1),))
    with pytest.raises(BadConfig):
        SystemConfig(2, (F(1, 2), F(1, 3)))
    with pytest.raises(BadConfig):
        SystemConfig(2, (F(1), F(0)))
    with pytest.raises(BadConfig):
        SystemConfig(2, (F(1, 2), F(1, 2)), marker=2)
    three = parse_system("bernoulli:3:1/2,1/4,1/4")
    assert three.alphabet_size == 3
    assert three.spec_string() == "bernoulli:3:1/2,1/4,1/4"


def test_cylinder_examples():
    u = cylinder(BINARY, 0, "0")
    assert u.measure() == F(1, 2)
    e1 = cylinder(BINARY, -1, "111")
    assert e1.measure() == F(1, 8)
    assert level_base(BINARY, 1) == e1
    with pytest.raises(BadLetter):
        cylinder(BINARY, 0, "02")
    with pytest.raises(BadLetter):
        cylinder(BINARY, 0, "")
    # full window with all words is X
    full = cylinder(BINARY, 0, "0").union(cylinder(BINARY, 0, "1"))
    assert full.is_all() and full.measure() == 1


def test_boolean_examples():
    u = cylinder(BINARY, 0, "0")
    assert u.union(u.complement()).is_all()
    assert u.intersect(cylinder(BINARY, 0, "1")).is_empty()
    v = cylinder(BINARY, 0, "10")
    assert u.union(v).measure() == F(3, 4)
    # non-binary alphabet
    three = parse_system("bernoulli:3:1/2,1/4,1/4")
    w = cylinder(three, 0, "02")
    assert w.measure() == F(1, 8)
    assert w.complement().measure() == F(7, 8)


@settings(max_examples=60, deadline=None)
@given(clopens, clopens)
def test_de_morgan_and_measure_additivity(u, v):
    assert u.union(v).complement() == u.complement().intersect(v.complement())
    assert u.union(v).measure() + u.intersect(v).measure() == u.measure() + v.measure()


@settings(max_examples=60, deadline=None)
@given(clopens, shifts)
def test_shift_properties(u, i):
    assert u.shift(0) == u
    assert u.shift(i).shift(-i) == u
    assert u.shift(i).measure() == u.measure()


@settings(max_examples=60, deadline=None)
@given(clopens, clopens)
def test_canonical_idempotence(u, v):
    # re-expressing on a joint window and canonicalizing is stable
    w = u.union(v)
    again = ClopenSet._make(w.config, w.lo, w.hi, w.words)
    assert again == w


def test_window_shrinks_to_minimal():
    # the set {x_0 = 0} expressed with a redundant second coordinate
    u = cylinder(BINARY, 0, "00").union(cylinder(BINARY, 0, "01"))
    assert (u.lo, u.hi) == (0, 0)
    assert u == cylinder(BINARY, 0, "0")
    assert u.radius == 0


def test_locally_constant_algebra():
    chi0 = LocallyConstantFn.indicator(cylinder(BINARY, 0, "0"), QQ)
    chi1 = LocallyConstantFn.indicator(cylinder(BINARY, 0, "1"), QQ)
    assert chi0 + chi1 == LocallyConstantFn.constant(BINARY, QQ, F(1))
    assert (chi0.scalar_mul(F(5)) - chi0.scalar_mul(F(5))).is_zero()
    assert chi0 * chi1 == LocallyConstantFn.constant(BINARY, QQ, F(0))
    assert chi0 * chi0 == chi0
    assert chi0.radius == 0
    assert LocallyConstantFn.indicator(cylinder(BINARY, -1, "101"), QQ).radius == 1


def test_alpha_translation():
    chi0 = LocallyConstantFn.indicator(cylinder(BINARY, 0, "0"), QQ)
    assert chi0.alpha(0) == chi0
    assert chi0.alpha(1) == LocallyConstantFn.indicator(cylinder(BINARY, -1, "0"), QQ)
    f = LocallyConstantFn.indicator(cylinder(BINARY, -1, "10"), QQ).scalar_mul(F(2, 3))
    assert f.alpha(2).alpha(-1) == f.alpha(1)
    assert f.alpha(3).support() == f.support().shift(3)


def test_rank_of_locally_constant():
    u = cylinder(BINARY, -2, "01")
    chi = LocallyConstantFn.indicator(u, QQ)
    assert chi.support().measure() == u.measure()
    assert LocallyConstantFn.constant(BINARY, QQ, F(1)).support().measure() == 1
    assert (chi.scalar_mul(F(5)) - chi.scalar_mul(F(5))).support().measure() == 0
    g = chi.scalar_mul(F(7, 2)) + LocallyConstantFn.indicator(cylinder(BINARY, 5, "1"), QQ)
    h = chi * g
    assert h.support().measure() <= min(chi.support().measure(), g.support().measure())
