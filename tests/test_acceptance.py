"""The acceptance battery, one test per criterion, at the pinned tolerances.

Criteria 3b and 7b check their targets at the smallest caps the construction
reaches them at (tail < 1e-4 at level-1 cap 140, deficit < 2^-10 at fine cap
83), through the exact run-length recursion, after checking that recursion
against enumeration at the old caps 24 and 25.  See the README.
"""

from shiftrank import acceptance


def _check(fn):
    r = fn()
    print(r.line())
    assert r.ok, r.line()


def test_criterion_1_tower_mass_exact():
    _check(acceptance.criterion_1)


def test_criterion_2_word_census():
    _check(acceptance.criterion_2)


def test_criterion_3a_measure_compatibility():
    _check(acceptance.criterion_3a)


def test_criterion_3b_tail_below_1e4():
    # tail(1, 24) against enumeration, then tail(1, 140) < 1e-4
    _check(acceptance.criterion_3b)


def test_criterion_4_shift_series():
    _check(acceptance.criterion_4)


def test_criterion_5_homomorphism_suite():
    _check(acceptance.criterion_5)


def test_criterion_6_occurrence_oracle():
    _check(acceptance.criterion_6)


def test_criterion_7a_mass_identity_monotone():
    _check(acceptance.criterion_7a)


def test_criterion_7b_deficit_below_2pow10():
    # the whole 7a deficit table against enumeration, then fine cap 83 < 2^-10
    _check(acceptance.criterion_7b)


def test_criterion_8_cross_level_consistency():
    _check(acceptance.criterion_8)


def test_criterion_9_periodic_ranks():
    _check(acceptance.criterion_9)


def test_criterion_10_sylvester_spot_checks():
    _check(acceptance.criterion_10)


def test_criterion_11_field_generality():
    _check(acceptance.criterion_11)


def test_known_unattainable_registry():
    ids = [cid for cid, _ in acceptance.ALL_CRITERIA]
    assert ids == ["1", "2", "3a", "3b", "4", "5", "6", "7a", "7b", "8", "9", "10", "11"]
