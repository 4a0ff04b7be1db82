import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycell.errors import ResourceLimit
from polycell.oracle import braid_closure, closure_is_reduced, reduce_by_rewriting


def test_normal_form_examples(g237, w237):
    nf = lambda txt: w237.word_str(g237.element(w237.parse_word(txt)).word)
    assert nf("tr") == "rt"
    assert nf("srs") == "rsr"
    assert nf("ss") == ""
    assert nf("tststst") == "stststs"


def test_multiply_basics(g237):
    e = g237.element(())
    r = g237.element((0,))
    t = g237.element((2,))
    assert g237.multiply(r, e) == r
    assert g237.multiply(r, r) == e
    rt = g237.multiply(r, t)
    assert rt.word == (0, 2) and rt.length == 2


def test_element_and_ball_records(g237):
    rt = g237.element((0, 2))
    tr = g237.element((2, 0))  # r and t commute
    assert rt is not tr and rt == tr and hash(rt) == hash(tr)
    assert rt != g237.element((0,))
    assert repr(rt) == "Element((0, 2))" and repr(g237.element(())) == "Element(())"
    ball = g237.ball(3)
    assert len(ball) == len(ball.elements) == sum(ball.counts) == 16


def test_descents(g237, w237):
    e = g237.element(())
    assert e.left == frozenset() and e.right == frozenset()
    w_t = g237.element(w237.parse_word("stststs"))
    assert w_t.left == frozenset({1, 2})
    assert w_t.right == frozenset({1, 2})
    rs = g237.element(w237.parse_word("rs"))
    assert rs.right == frozenset({1})


def test_descent_iff_shorter(g237):
    ball = g237.ball(6)
    for e in ball.elements:
        for s in range(3):
            shorter = g237.multiply(g237.element((s,)), e).length == e.length - 1
            assert (s in e.left) == shorter


def test_ball_counts_small(g237):
    assert len(g237.ball(0)) == 1
    assert len(g237.ball(1)) == 4
    ball2 = g237.ball(2)
    assert ball2.counts == [1, 3, 5]
    # brute force: all 9 two-letter words, identified by their elements
    elems = {g237.element(w).word for w in itertools.product(range(3), repeat=2)}
    assert sum(1 for w in elems if len(w) == 2) == 5


def test_ball_edges_involutive(g237):
    ball = g237.ball(5)
    for i in range(len(ball)):
        for s in range(3):
            j = ball.right_mult[i][s]
            if j is not None:
                assert ball.right_mult[j][s] == i


@functools.cache
def _oracle_ball(angles, radius):
    """A ball built from braid closures alone, the reference for the ball
    that takes its edges from its own search.  Layer L+1 holds the least
    word of closure(w + (s,)) for each w of layer L and each s not a right
    descent of w; descents are the first and last letters of a closure; a
    down edge drops the last (or first) letter s of a closure word that
    ends (or starts) with s, and an up edge adds s to the word.  Returns,
    by index, the words, left and right descents and Cayley edges, and the
    index of every closure word."""
    import polycell

    pres = polycell.presentation_from_angles(angles)
    rank = pres.rank
    layers, closures = [[()]], {(): frozenset({()})}
    for _ in range(radius):
        layer = {}
        for w in layers[-1]:
            right = {z[-1] for z in closures[w] if z}
            for s in range(rank):
                closure = braid_closure(pres, w + (s,))
                assert closure_is_reduced(pres, closure) == (s not in right)
                if s not in right:
                    layer[min(closure)] = closure
        closures.update(layer)
        layers.append(sorted(layer))
    words = [w for layer in layers for w in layer]
    where = {z: i for i, w in enumerate(words) for z in closures[w]}
    left = [frozenset(z[0] for z in closures[w] if z) for w in words]
    right = [frozenset(z[-1] for z in closures[w] if z) for w in words]
    right_mult = [[where[next(z[:-1] for z in closures[w] if z and z[-1] == s)]
                   if s in right[i] else where.get(w + (s,)) for s in range(rank)]
                  for i, w in enumerate(words)]
    left_mult = [[where[next(z[1:] for z in closures[w] if z and z[0] == s)]
                  if s in left[i] else where.get((s,) + w) for s in range(rank)]
                 for i, w in enumerate(words)]
    return words, left, right, right_mult, left_mult, where


@pytest.mark.parametrize("angles, radius", [
    ([2, 3, 7], 12), ([2, 2, 2, 4], 9), ([3, 3, 4], 8), ([2, 3, "inf"], 8),
    ([2, 2, 2, 2, 2], 7), ([2, 4, "inf", 3], 7)],
    ids=["w237-12", "w2224-9", "w334-8", "w23inf-8", "w22222-7", "w24inf3-7"])
def test_ball_edges_match_normal_forms(angles, radius):
    import polycell

    group = polycell.PolygonGroup(polycell.presentation_from_angles(angles))
    ball = group.ball(radius)
    words, left, right, right_mult, left_mult, where = _oracle_ball(tuple(angles), radius)
    assert ball.words == words
    assert ball.index == {w: where[w] for w in words}
    assert [e.left for e in ball.elements] == left
    assert [e.right for e in ball.elements] == right
    assert ball.right_mult == right_mult
    assert ball.left_mult == left_mult
    # s.w is the inverse of w^-1.s
    inv = [where[w[::-1]] for w in ball.words]
    for i in range(len(ball)):
        for s in range(group.rank):
            j = ball.left_mult[i][s]
            assert (None if j is None else inv[j]) == ball.right_mult[inv[i]][s]


def test_ball_cap(monkeypatch):
    import polycell

    p = polycell.presentation_from_angles([2, 2, 2, 4])
    g = polycell.PolygonGroup(p)
    monkeypatch.setattr("polycell.words.BALL_CAP", 10)
    with pytest.raises(ResourceLimit):
        g.ball(8)


def _snapshot(ball):
    """Everything a ball holds, by index, copied out of it."""
    return (ball.radius, len(ball), list(ball.words), list(ball.lengths),
            list(ball.counts), [ball.descents[q] for q in ball.lstate],
            [ball.descents[q] for q in ball.rstate],
            [list(row) for row in ball.right_mult], [list(row) for row in ball.left_mult])


def _reference(angles, radius):
    """The snapshot of the ball built from braid closures alone."""
    words, left, right, right_mult, left_mult, _ = _oracle_ball(angles, radius)
    lengths = list(map(len, words))
    return (radius, len(words), words, lengths,
            [lengths.count(n) for n in range(radius + 1)], left, right,
            right_mult, left_mult)


@pytest.mark.parametrize("angles, r, R", [((2, 3, 7), 5, 11), ((2, 2, 2, 4), 4, 8)],
                         ids=["w237", "w2224"])
@pytest.mark.parametrize("order", ["small-first", "large-first"])
def test_smaller_ball_is_the_index_prefix(angles, r, R, order):
    """Built in either order, ball(r) equals the ball built from closures,
    index for index, and is the index prefix of ball(R); growing the group
    leaves the ball handed out before as it was."""
    import polycell

    group = polycell.PolygonGroup(polycell.presentation_from_angles(angles))
    first, second = (r, R) if order == "small-first" else (R, r)
    ball = group.ball(first)
    assert _snapshot(ball) == _reference(angles, first)
    assert _snapshot(group.ball(second)) == _reference(angles, second)
    assert _snapshot(ball) == _reference(angles, first)
    assert group.ball(r).words == group.ball(R).words[:len(group.ball(r))]
    assert sorted(group._balls) == [r, R]


def test_ball_cap_while_growing_keeps_earlier_balls(monkeypatch):
    import polycell

    g = polycell.PolygonGroup(polycell.presentation_from_angles([2, 2, 2, 4]))
    small, larger = g.ball(3), g.ball(5)
    before = [_snapshot(small), _snapshot(larger)]
    monkeypatch.setattr("polycell.words.BALL_CAP", 200)  # ball(6) has 257
    with pytest.raises(ResourceLimit, match="ball exceeds cap 200"):
        g.ball(8)
    assert sorted(g._balls) == [3, 5]
    assert [_snapshot(small), _snapshot(larger)] == before
    monkeypatch.undo()
    assert g.ball(8).counts == [1, 4, 9, 18, 35, 66, 124, 234, 441]
    assert [_snapshot(g.ball(3)), _snapshot(g.ball(5))] == before


def test_elements_sorted_by_length_then_word(g2224):
    ball = g2224.ball(6)
    keys = [(e.length, e.word) for e in ball.elements]
    assert keys == sorted(keys)


words237 = st.lists(st.integers(min_value=0, max_value=2), max_size=10).map(tuple)


@settings(max_examples=80, deadline=None)
@given(word=words237)
def test_element_is_least_rewritten_word(g237, w237, word):
    # the ball walk against reduction by braid moves and ss-deletion alone
    least = min(reduce_by_rewriting(w237, word), key=lambda z: (len(z), z))
    assert g237.element(word).word == least


@settings(max_examples=80, deadline=None)
@given(word=words237)
def test_length_changes_by_one(g237, word):
    e = g237.element(word)
    for s in range(3):
        assert abs(g237.multiply(e, g237.element((s,))).length - e.length) == 1


@settings(max_examples=60, deadline=None)
@given(word=words237)
def test_braid_closure_constant_on_classes(g237, w237, word):
    e = g237.element(word)
    for sibling in braid_closure(w237, e.word):
        assert g237.element(sibling).word == e.word


@settings(max_examples=60, deadline=None)
@given(word=words237)
def test_inverse_involution(g237, word):
    e = g237.element(word)
    inverse = g237.element(e.word[::-1])
    assert g237.element(inverse.word[::-1]) == e
    assert g237.multiply(e, inverse) == g237.element(())


WALK = (0, 1, 2, 3) * 3  # a reduced word of length 12 in w2224


def test_element_walk_keeps_only_the_last_ball_it_grows(w2224):
    # the walk grows one layer per letter from ball(0); the balls there
    # before it stay, and of those it grows only the last
    import polycell

    group = polycell.PolygonGroup(w2224)
    group.element(WALK)
    assert sorted(group._balls) == [12]
    group = polycell.PolygonGroup(w2224)
    group.ball(5)
    group.element(WALK)
    assert sorted(group._balls) == [5, 12]
    group.element(WALK[:7])
    assert sorted(group._balls) == [5, 12]


def test_element_walk_matches_the_reference(w2224):
    # on a fresh group, against rewriting and a ball built at once
    import polycell

    e = polycell.PolygonGroup(w2224).element(WALK)
    rewritten = reduce_by_rewriting(w2224, WALK)
    assert e.word == min(rewritten, key=lambda z: (len(z), z)) and len(e.word) == 12
    ball = polycell.PolygonGroup(w2224).ball(12)
    assert e == ball.elements[ball.index[e.word]]
