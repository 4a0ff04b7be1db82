import pytest

from polycell.kl import (
    KLTable,
    poly_add,
    poly_mul,
    poly_reverse,
    strongly_connected_components,
    two_sided_cells,
    w_graph,
)
from polycell.oracle import ClassicalKL


def _lifting_below(ball):
    """below[w] = {x : x <= w} by the lifting recursion on pairs
    (s = min D_R(w)), without ideals."""
    n = len(ball.elements)
    memo = {}

    def leq(v, w):
        if v == w:
            return True
        if ball.elements[v].length >= ball.elements[w].length:
            return False
        if (v, w) not in memo:
            s = min(ball.elements[w].right)
            ws = ball.right_mult[w][s]
            if s in ball.elements[v].right:
                memo[v, w] = leq(ball.right_mult[v][s], ws)
            else:
                memo[v, w] = leq(v, ws)
        return memo[v, w]

    return [{x for x in range(n) if leq(x, w)} for w in range(n)]


def _scan_interval(ball, below, v, w):
    """[v, w] by scanning every ball element in the length window."""
    lv, lw = ball.elements[v].length, ball.elements[w].length
    return [x for x in range(len(ball.elements))
            if lv <= ball.elements[x].length <= lw
            and v in below[x] and x in below[w]]


def test_r_poly_base_cases(g237, kl237):
    e = g237.identity
    s = g237.element((1,))
    assert kl237.r_poly(s, s) == (1,)
    assert kl237.r_poly(e, s) == (-1, 1)          # q - 1
    st = g237.element((1, 2))
    rt = g237.element((0, 2))
    assert kl237.r_poly(st, rt) == ()             # incomparable, same length


def test_r_poly_degree_and_constant(g237, kl237):
    ball = g237.ball(8)
    for vi, v in enumerate(ball.elements):
        for wi, w in enumerate(ball.elements):
            if not kl237.leq_idx(vi, wi) or vi == wi:
                continue
            n = w.length - v.length
            r = kl237.r_idx(vi, wi)
            assert len(r) - 1 == n
            assert r[0] == (-1) ** n


def test_kl_poly_base_cases(g237, kl237):
    e = g237.identity
    w = g237.element((1, 2, 1, 2, 1))
    assert kl237.kl_poly(w, w) == (1,)
    assert kl237.kl_poly(e, w) == (1,)


def test_kl_poly_dihedral_always_one(g237, kl237):
    # inside the <s,t> parabolic every comparable pair has P = 1
    ball = g237.ball(7)
    dihedral = [i for i, e in enumerate(ball.elements)
                if set(e.word) <= {1, 2}]
    for vi in dihedral:
        for wi in dihedral:
            if kl237.leq_idx(vi, wi):
                assert kl237.p_idx(vi, wi) == (1,)


def test_kl_poly_short_intervals_are_one(g237, kl237):
    ball = g237.ball(10)
    for vi, v in enumerate(ball.elements):
        for wi, w in enumerate(ball.elements):
            if 0 < w.length - v.length <= 2 and kl237.leq_idx(vi, wi):
                assert kl237.p_idx(vi, wi) == (1,)


def test_kl_degree_bound(g237, kl237):
    ball = g237.ball(10)
    for vi, v in enumerate(ball.elements):
        for wi, w in enumerate(ball.elements):
            if kl237.leq_idx(vi, wi) and vi != wi:
                p = kl237.p_idx(vi, wi)
                assert 2 * (len(p) - 1) <= w.length - v.length - 1


def test_defining_identity_recheck(g237, kl237):
    ball = g237.ball(8)
    for vi in range(len(ball.elements)):
        for wi in range(len(ball.elements)):
            if not kl237.leq_idx(vi, wi):
                continue
            n = ball.elements[wi].length - ball.elements[vi].length
            rhs = ()
            for x in kl237.interval(vi, wi):
                rhs = poly_add(rhs, poly_mul(kl237.r_idx(vi, x), kl237.p_idx(x, wi)))
            assert poly_reverse(kl237.p_idx(vi, wi), n) == rhs


def test_mu_conventions(g237, kl237):
    e = g237.identity
    s = g237.element((1,))
    st = g237.element((1, 2))
    assert kl237.mu(e, st) == 0          # even length difference
    assert kl237.mu(s, st) == 1          # covering pair
    assert kl237.mu(st, s) == 0          # wrong order
    rt = g237.element((0, 2))
    assert kl237.mu(st, rt) == 0         # incomparable


def test_mu_covering_pairs_are_one(g237, kl237):
    ball = g237.ball(8)
    for vi, v in enumerate(ball.elements):
        for wi, w in enumerate(ball.elements):
            if w.length - v.length == 1 and kl237.leq_idx(vi, wi):
                assert kl237.mu_idx(vi, wi) == 1


def test_bruhat_examples(g237, kl237):
    e = g237.identity
    r = g237.element((0,))
    rsr = g237.element((0, 1, 0))
    for w in (e, r, rsr):
        assert kl237.bruhat_leq(e, w)
    assert kl237.bruhat_leq(r, rsr)
    st = g237.element((1, 2))
    rt = g237.element((0, 2))
    assert not kl237.bruhat_leq(st, rt)
    assert not kl237.bruhat_leq(rt, st)


def test_bruhat_matches_subexpression_search(g237, kl237, g2224):
    # independent route: enumerate subsequences of one fixed reduced word
    for g, table in ((g237, kl237), (g2224, KLTable(g2224, g2224.ball(5)))):
        ball = g.ball(5)
        for w in ball.elements:
            subelems = set()
            for mask in range(1 << w.length):
                sub = tuple(w.word[i] for i in range(w.length) if mask >> i & 1)
                subelems.add(g.nf(sub))
            for v in ball.elements:
                want = v.word in subelems
                assert table.bruhat_leq(v, w) == want


@pytest.mark.parametrize("group, radius", [("g237", 8), ("g2224", 6)])
def test_ideals_match_pairwise_scan(request, group, radius):
    g = request.getfixturevalue(group)
    ball = g.ball(radius)
    table = KLTable(g, ball)
    below = _lifting_below(ball)
    n = len(ball.elements)
    for w in range(n):
        assert table.lower(w) == sorted(below[w])
        assert table.upper(w) == [x for x in range(n) if w in below[x]]
        for v in range(n):
            assert table.leq_idx(v, w) == (v in below[w])
            # every x in [v, w] has v <= x <= w, so v <= w or the interval is empty
            want = _scan_interval(ball, below, v, w) if v in below[w] else []
            assert table.interval(v, w) == want


def test_kl_poly_matches_classical_w2224(g2224, w2224):
    # pairs v <= w; test_bruhat_matches_subexpression_search covers the
    # order itself on the same ball, and P is zero off it
    ball = g2224.ball(5)
    table = KLTable(g2224, ball)
    oracle = ClassicalKL(w2224)
    for wi, w in enumerate(ball.elements):
        for vi in table.lower(wi):
            want = oracle.kl_poly(ball.elements[vi].word, w.word)
            assert table.p_idx(vi, wi) == want


def test_w_graph_singleton(g237):
    ball = g237.ball(0)
    table = KLTable(g237, ball)
    graph = w_graph(ball, "left", table)
    assert graph.edges == {0: []}


def test_w_graph_dihedral_edge_directions(g237, kl237):
    ball = kl237.ball
    s = ball.index[(1,)]
    st = ball.index[(1, 2)]
    gl = w_graph(ball, "left", kl237)
    # descents: L(s) = {s}, L(st) = {s}; mu = 1, containment both ways fails
    # only where the descent sets are not nested
    assert (st in gl.edges[s]) == (not ball.elements[s].left <= ball.elements[st].left)
    gr = w_graph(ball, "right", kl237)
    assert (st in gr.edges[s]) == (not ball.elements[s].right <= ball.elements[st].right)


def test_scc_basics():
    comps = strongly_connected_components(4, {0: [1], 1: [0], 2: [3], 3: []})
    assert comps == [[0, 1], [2], [3]]


def test_scc_invariant_under_relabeling():
    edges = {0: [1], 1: [2], 2: [0], 3: [0]}
    base = strongly_connected_components(4, edges)
    perm = [2, 0, 3, 1]
    relabeled = {perm[a]: [perm[b] for b in bs] for a, bs in edges.items()}
    other = strongly_connected_components(4, relabeled)
    as_sets = lambda comps: {frozenset(c) for c in comps}
    assert as_sets(other) == {frozenset(perm[v] for v in c) for c in base}


def test_two_sided_join_properties():
    singles = [[0], [1], [2], [3]]
    assert two_sided_cells(singles, singles) == singles
    left = [[0, 1], [2], [3]]
    right = [[0], [1, 2], [3]]
    joined = two_sided_cells(left, right)
    assert joined == [[0, 1, 2], [3]]
    assert two_sided_cells(right, left) == joined
    # both inputs refine the join
    for part in (left, right):
        for comp in part:
            assert any(set(comp) <= set(j) for j in joined)
