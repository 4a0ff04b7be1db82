from collections import Counter

import pytest

from polycell import hecke
from polycell.errors import BallTooSmall, ResourceLimit
from polycell.hecke import a_lower_bounds, c_basis, h_constants, multiply
from polycell.kl import _B, KLTable

Q = 1 << _B  # the packed polynomial q


def _word_route(group, x, y):
    """T_x T_y over normal words, the reference: T_w T_s is T_ws when ws is
    longer, and q T_ws + (q - 1) T_w otherwise, with ws from group.element."""
    out = {x.word: 1}
    for s in y.word:
        step: dict = {}
        for w, c in out.items():
            ws = group.element(w + (s,)).word
            if len(ws) > len(w):
                step[ws] = step.get(ws, 0) + c
            else:
                step[ws] = step.get(ws, 0) + c * Q
                step[w] = step.get(w, 0) + c * Q - c
        out = step
    return {w: c for w, c in out.items() if c}


def test_quadratic_relation(g237, kl237):
    s = kl237.ball.index[g237.element((1,)).word]
    assert multiply(kl237, {s: 1}, {s: 1}) == {0: Q, s: Q - 1}


def test_unit_and_length_additive_products(g237, kl237):
    w = kl237.ball.index[g237.element((0, 1, 2)).word]
    assert multiply(kl237, {w: 1}, {0: 1}) == {w: 1}
    r, s = (kl237.ball.index[g237.element((i,)).word] for i in (0, 1))
    rs = kl237.ball.index[g237.element((0, 1)).word]
    assert multiply(kl237, {r: 1}, {s: 1}) == {rs: 1}


@pytest.mark.parametrize("name", ["g237", "g2224"])
def test_t_products_match_word_route(name, request):
    group = request.getfixturevalue(name)
    table = KLTable(group, group.ball(6))
    elements = table.ball.elements
    sample = [i for i, e in enumerate(elements) if e.length <= 3]
    for x in sample:
        for y in sample:
            got = multiply(table, {x: 1}, {y: 1})
            assert {elements[z].word: c for z, c in got.items()} == \
                _word_route(group, elements[x], elements[y])


def test_c_basis_small(g237, kl237):
    assert c_basis(kl237, 0) == {0: 1}
    s = kl237.ball.index[g237.element((1,)).word]
    assert c_basis(kl237, s) == {0: -Q, s: 1}  # C_s = T_s - q


def test_c_basis_leading_coefficient(g237, kl237):
    for txt in ((0,), (0, 1), (1, 2, 1), (0, 1, 0)):
        w = kl237.ball.index[g237.element(txt).word]
        assert c_basis(kl237, w)[w] == 1


def test_h_constants_examples(g237, kl237):
    s = kl237.ball.index[g237.element((1,)).word]
    # C_s C_s = -(1 + q) C_s, so h_{s,s,s} = -(v + 1/v)
    assert h_constants(kl237, s, s) == {s: -(1 + Q)}
    # identity acts as the unit
    y = kl237.ball.index[g237.element((0, 1)).word]
    assert h_constants(kl237, 0, y) == {y: 1}


def test_h_constants_roundtrip_dihedral(g237, kl237):
    pairs = [kl237.ball.index[g237.element(w).word]
             for w in ((1,), (2,), (1, 2), (2, 1), (1, 2, 1))]
    for x in pairs:
        for y in pairs:
            recombined: dict = {}
            for z, h in h_constants(kl237, x, y).items():
                for t, c in c_basis(kl237, z).items():
                    recombined[t] = recombined.get(t, 0) + h * c
            assert {t: c for t, c in recombined.items() if c} == \
                multiply(kl237, c_basis(kl237, x), c_basis(kl237, y))


def test_ball_too_small(g237):
    table = KLTable(g237, g237.ball(2))
    w = table.ball.index[g237.element((0, 1)).word]
    with pytest.raises(BallTooSmall):
        h_constants(table, w, w)
    with pytest.raises(BallTooSmall):
        a_lower_bounds(table, 2)
    with pytest.raises(BallTooSmall):
        multiply(table, {w: 1}, {w: 1})


def test_a_lower_bound(g237, kl237):
    b1 = a_lower_bounds(kl237, 1)
    assert b1[0] == 0
    s = kl237.ball.index[g237.element((1,)).word]
    assert b1[s] >= 1
    # monotone in the sample radius
    b2 = a_lower_bounds(kl237, 2)
    assert b2[s] >= b1[s]


def test_a_lower_bound_histograms(kl237, g2224):
    hist237 = Counter(a_lower_bounds(kl237, 3).values())
    assert hist237 == {0: 17, 1: 29, 2: 6, 3: 1}
    hist2224 = Counter(a_lower_bounds(KLTable(g2224, g2224.ball(8)), 3).values())
    assert hist2224 == {0: 125, 1: 108, 2: 24}


def test_uncertified_digits_raise(g237, kl237, monkeypatch):
    s = kl237.ball.index[g237.element((1,)).word]
    cs = c_basis(kl237, s)
    monkeypatch.setattr(hecke, "_HALF", 2)  # certify L1 norms below 2 only
    # C_s C_s = (q + q^2) - (1 + q) T_s fails in the product
    with pytest.raises(ResourceLimit):
        multiply(kl237, cs, cs)
    with pytest.raises(ResourceLimit):
        h_constants(kl237, s, s)
    # C_e C_s = C_s passes, but stripping 1 * C_s from it leaves a zero
    # T_e coefficient whose majorant is 2
    assert multiply(kl237, c_basis(kl237, 0), cs) == cs
    with pytest.raises(ResourceLimit):
        h_constants(kl237, 0, s)
