"""The benchmark's checks report wrong intervals as failed operations.

    python3 -m pytest perfbench/test_reference.py
"""

from fractions import Fraction

from queries import PROBS, Query
from reference import tower_census
from run import run_round

F = Fraction
N, K = 1, 12
COUNT, TAIL = tower_census(PROBS, 1, N, K)
TAILS = {(N, K): TAIL, (0, 24): tower_census(PROBS, 1, 0, 24)[1]}

A = Query("a", (("chi(0;0)",),), "q", N, K, expect=F(1, 2))
B = Query("b", (("t",),), "q", N, K, expect=F(1))
DIAG = Query("diag", (("chi(0;0)", "0"), ("0", "t")), "q", N, K, expect=F(3, 2),
             blocks=("a", "b"))
B_FP = Query("b.fp", (("t",),), "f:7", N, K, expect=F(1), over_q="b")


def interval(lower, upper, partial, dim=1, words=COUNT, tail=TAIL):
    return {"lower": F(lower), "upper": F(upper), "partial": F(partial),
            "epsilon": F(0), "tail": tail, "words_used": words, "dim": dim}


class FakeRunner:
    def __init__(self, answers):
        self.answers = answers

    def run(self, q, recorder):
        answer = self.answers[q.name]
        if isinstance(answer, Exception):
            raise answer
        return answer, 0.01


GOOD = {
    "a": interval(F(1, 4), F(3, 4), F(1, 4)),
    "b": interval(F(1, 2), 1, F(1, 2)),
    "diag": interval(F(3, 4), F(7, 4), F(3, 4), dim=2),
    "b.fp": interval(F(1, 2), 1, F(1, 2)),
}


def verdicts(answers, round_=(A, B, DIAG, B_FP)):
    outcomes = run_round(FakeRunner(answers), list(round_), None, 0, TAILS)
    return {o["query"].name: (bool(o["errors"]), o["wrong"]) for o in outcomes}


def test_correct_round_passes():
    assert verdicts(GOOD) == {name: (False, False) for name in GOOD}


def test_interval_excluding_the_measure_fails():
    answers = dict(GOOD, a=interval(F(5, 8), F(3, 4), F(5, 8)))
    assert verdicts(answers)["a"] == (True, True)


def test_interval_excluding_rank_one_fails():
    answers = dict(GOOD, b=interval(0, F(7, 8), F(1, 2)))
    assert verdicts(answers)["b"] == (True, True)


def test_bounds_out_of_order_fail():
    answers = dict(GOOD, b=interval(1, F(1, 2), F(1, 2)))
    assert verdicts(answers)["b"] == (True, True)


def test_wrong_word_count_fails():
    answers = dict(GOOD, a=interval(F(1, 4), F(3, 4), F(1, 4), words=COUNT - 1))
    assert verdicts(answers)["a"] == (True, True)


def test_wrong_tail_fails():
    answers = dict(GOOD, a=interval(F(1, 4), F(3, 4), F(1, 4), tail=TAIL + F(1, 2**30)))
    assert verdicts(answers)["a"] == (True, True)


def test_broken_additivity_fails():
    answers = dict(GOOD, diag=interval(F(3, 4), F(7, 4), F(3, 4) + F(1, 2**20), dim=2))
    assert verdicts(answers)["diag"] == (True, True)


def test_mod_p_partial_above_q_fails():
    answers = dict(GOOD, **{"b.fp": interval(F(1, 2), 1, F(9, 16))})
    assert verdicts(answers)["b.fp"] == (True, True)


def test_error_is_failed_but_not_wrong():
    answers = dict(GOOD, b=RuntimeError("no interval"))
    result = verdicts(answers)
    assert result["b"] == (True, False)
    # relations with a missing answer are not checked
    assert result["b.fp"] == (False, False)


def test_level_zero_tail_closed_form():
    q = Query("z", (("chi(0;1)",),), "q", 0, 24, expect=F(1, 2))
    count, tail = tower_census(PROBS, 1, 0, 24)
    assert (count, tail) == (24, F(26, 2**25))
    good = interval(F(1, 2) - tail, F(1, 2), F(1, 2) - tail, words=24, tail=tail)
    assert verdicts({"z": good}, [q]) == {"z": (False, False)}


def test_census_matches_known_enumeration_sizes():
    # sizes listed by shiftrank's enumeration: level 1 cap 22, level 2 cap 22
    assert tower_census(PROBS, 1, 1, 22)[0] == 78653
    assert tower_census(PROBS, 1, 2, 22)[0] == 54513
    assert tower_census(PROBS, 1, 1, 0) == (0, 1)
