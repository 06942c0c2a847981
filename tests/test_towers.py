import json
from fractions import Fraction

import pytest

from shiftrank import (
    BINARY,
    BadConfig,
    LevelMismatch,
    LevelScheme,
    bratteli_edges,
    bratteli_export,
    cylinder,
    enumerate_return_words,
    get_family,
    iter_return_words,
    mass_deficit,
    parse_system,
    tower_tail,
    verify_mass_identity,
)
from shiftrank.towers import edge_offsets

F = Fraction


def test_level_zero_enumeration():
    fam = enumerate_return_words(LevelScheme(BINARY, 0), 3)
    assert [w.content for w in fam.words] == ["11", "101", "1001"]
    assert [w.measure for w in fam.words] == [F(1, 4), F(1, 8), F(1, 16)]
    assert [w.length for w in fam.words] == [1, 2, 3]
    assert fam.tail == F(5, 16)


def test_lamplighter_level_one_words():
    fam = enumerate_return_words(LevelScheme(BINARY, 1), 6)
    by_k = {}
    for w in fam.words:
        by_k.setdefault(w.length, []).append(w.content)
    assert by_k[1] == ["1111"]
    assert by_k[4] == ["1110111"]
    assert 2 not in by_k and 3 not in by_k
    assert by_k[6] == ["111000111", "111010111"]


def test_ternary_enumeration():
    three = parse_system("bernoulli:3:1/2,1/4,1/4", marker=1)
    fam = enumerate_return_words(LevelScheme(three, 0), 2)
    assert [w.content for w in fam.words] == ["11", "101", "121"]
    assert fam.words[0].measure == F(1, 16)
    assert fam.words[1].measure == F(1, 32)


def test_word_geometry():
    fam = get_family(BINARY, 1, 6)
    w = next(x for x in fam.words if x.content == "1110111")
    assert w.cells() == ["110", "101", "011"]
    assert w.clopen() == cylinder(BINARY, -1, "1110111")
    assert w.rep_window_word(0, -1, 1) == "111"
    assert w.rep_window_word(2, -1, 1) == "101"
    assert w.rep_window_word(0, -5, -2) == "1111"  # marker padding on the left


def test_tail_closed_form_level_zero():
    for cap in (1, 2, 5, 12, 20):
        fam = get_family(BINARY, 0, cap)
        assert fam.tail == F(cap + 2, 2 ** (cap + 1))
    assert get_family(BINARY, 0, 1).tail == F(3, 4)
    assert get_family(BINARY, 0, 2).tail == F(1, 2)


def test_translate_disjointness():
    fam = get_family(BINARY, 1, 6)
    cells = [
        (w, l) for w in fam.words if w.length <= 5 for l in range(w.length)
    ]
    clopens = {key: key[0].clopen().shift(key[1]) for key in cells}
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            assert clopens[a].intersect(clopens[b]).is_empty(), (a, b)


def test_tail_monotone_and_mass():
    prev = None
    for cap in range(1, 9):
        fam = get_family(BINARY, 1, cap)
        mass = sum((w.length * w.measure for w in fam.words), F(0))
        assert mass + fam.tail == 1
        assert fam.tail >= 0
        if prev is not None:
            assert fam.tail <= prev
        prev = fam.tail


def test_bratteli_edges_examples():
    fine = get_family(BINARY, 1, 8)
    coarse = get_family(BINARY, 0, 4)
    w11 = coarse.words[0]
    edges = bratteli_edges(fine, w11)
    w1111 = next(w for w in fine.words if w.content == "1111")
    assert edges[w1111] == (0,)
    w_k4 = next(w for w in fine.words if w.content == "1110111")
    assert edges[w_k4] == (0, 3)
    # no room for containment when |W| > |W'|
    w_long = next(w for w in coarse.words if w.length == 4)
    assert edge_offsets(w_long, w1111) == ()
    # every fine word receives at least one edge from some coarse word
    indegree = {wp: 0 for wp in fine.words}
    for w in coarse.words:
        for wp, offs in bratteli_edges(fine, w).items():
            indegree[wp] += len(offs)
    # coarse cap 4 < fine cap 8: count edges from all needed coarse words
    coarse_full = get_family(BINARY, 0, 8)
    for w in coarse_full.words[4:]:
        for wp, offs in bratteli_edges(fine, w).items():
            indegree[wp] += len(offs)
    assert all(v >= 1 for v in indegree.values())


def test_bratteli_level_mismatch():
    fine = get_family(BINARY, 1, 4)
    with pytest.raises(LevelMismatch):
        bratteli_edges(fine, fine.words[0])
    with pytest.raises(LevelMismatch):
        verify_mass_identity(fine.words[0], fine)


def test_mass_identity():
    coarse = get_family(BINARY, 0, 3)
    fine = get_family(BINARY, 1, 12)
    for w in coarse.words:
        ident = verify_mass_identity(w, fine)
        assert ident.lhs == w.measure
        assert ident.deficit >= 0
        assert ident.deficit <= w.length * fine.tail
        assert ident.lhs == ident.partial_rhs + ident.deficit
    # empty fine family: the deficit is the whole mass
    empty_fine = enumerate_return_words(LevelScheme(BINARY, 1), 0)
    ident = verify_mass_identity(coarse.words[0], empty_fine)
    assert ident.partial_rhs == 0 and ident.deficit == coarse.words[0].measure


def test_refinement_containment():
    # every level-1 tower cell sits inside the level-0 base or its single cell
    base = LevelScheme(BINARY, 0).base
    zero_cell = cylinder(BINARY, 0, "0")
    fine = get_family(BINARY, 1, 6)
    for wp in fine.words:
        for l in range(wp.length):
            cell = wp.clopen().shift(l)
            assert cell.subset_of(base) or cell.subset_of(zero_cell)


def test_bratteli_export_json_and_dot():
    doc = json.loads(bratteli_export(BINARY, 0, 4, "json"))
    coarse = get_family(BINARY, 0, 4)
    fine = get_family(BINARY, 1, 4)
    assert len(doc["vertices"]) == len(coarse.words) + len(fine.words)
    fine_contents = {w.content for w in fine.words}
    to_counts = {c: 0 for c in fine_contents}
    for e in doc["edges"]:
        assert e["multiplicity"] == len(e["offsets"])
        to_counts[e["to"]["content"]] += e["multiplicity"]
    assert all(v >= 1 for v in to_counts.values())
    dot = bratteli_export(BINARY, 0, 4, "dot")
    assert dot.startswith("digraph")
    assert '"0:11" -> "1:1110111" [label="2"]' in dot
    empty = json.loads(bratteli_export(BINARY, 0, 0, "json"))
    assert empty["vertices"] == [] and empty["edges"] == []


def test_word_json_record():
    w = get_family(BINARY, 0, 2).words[1]
    assert w.to_json_dict() == {
        "level": 0, "k": 2, "content": "101", "measure": "1/8",
    }


def test_iter_matches_enumerate():
    scheme = LevelScheme(BINARY, 1)
    assert list(iter_return_words(scheme, 7)) == list(
        enumerate_return_words(scheme, 7).words
    )


TERNARY = parse_system("bernoulli:3:1/2,1/4,1/4", marker=1)


@pytest.mark.parametrize("config,levels,caps", [
    (BINARY, (0, 1, 2), range(15)),
    (TERNARY, (0, 1), range(10)),
], ids=["binary", "ternary"])
def test_tower_tail_matches_enumeration(config, levels, caps):
    for level in levels:
        for cap in caps:
            assert tower_tail(config, level, cap) == get_family(config, level, cap).tail, (
                level, cap,
            )


def test_tower_tail_closed_form_level_zero():
    for cap in range(201):
        assert tower_tail(BINARY, 0, cap) == F(cap + 2, 2 ** (cap + 1))


def test_tower_tail_rejects_negative_arguments():
    with pytest.raises(BadConfig):
        tower_tail(BINARY, -1, 3)
    with pytest.raises(BadConfig):
        tower_tail(BINARY, 1, -3)
    with pytest.raises(BadConfig):
        mass_deficit(get_family(BINARY, 0, 1).words[0], -1)
    with pytest.raises(BadConfig):
        LevelScheme(BINARY, -1)
    with pytest.raises(BadConfig):
        enumerate_return_words(LevelScheme(BINARY, 1), -3)
    with pytest.raises(BadConfig):
        get_family(BINARY, -1, 3)


@pytest.mark.parametrize("config,level,coarse_cap,fine_caps", [
    (BINARY, 0, 6, range(12)),
    (BINARY, 1, 6, range(10)),
    (TERNARY, 0, 3, range(8)),
    (TERNARY, 1, 4, range(7)),
], ids=["binary-0", "binary-1", "ternary-0", "ternary-1"])
def test_mass_deficit_matches_mass_identity(config, level, coarse_cap, fine_caps):
    for w in get_family(config, level, coarse_cap).words:
        assert mass_deficit(w, 0) == w.measure
        for cap in fine_caps:
            fine = get_family(config, level + 1, cap)
            d = mass_deficit(w, cap)
            assert d == verify_mass_identity(w, fine).deficit, (w.content, cap)
            # occ(W, V) <= |V|, so the missing mass is at most the fine tail
            assert 0 <= d <= tower_tail(config, level + 1, cap)


def test_smallest_caps_meeting_acceptance_targets():
    # criteria 3b and 7b use the first caps at which the targets hold
    assert tower_tail(BINARY, 1, 139) >= F(1, 10**4) > tower_tail(BINARY, 1, 140)
    coarse = get_family(BINARY, 0, 4).words
    worst = {cap: max(mass_deficit(w, cap) for w in coarse) for cap in (82, 83)}
    assert worst[82] >= F(1, 2**10) > worst[83]
