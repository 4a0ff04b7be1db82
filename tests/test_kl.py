import functools

import pytest

from polycell import PolygonGroup, presentation_from_angles, verify
from polycell.errors import ResourceLimit, VerificationDisagreement
from polycell.field import _poly_mul_into
from polycell.kl import (
    KLTable,
    empirical_cells,
    strongly_connected_components,
    w_graph,
)
from tests.conftest import bruhat_leq, kl_mu


@functools.cache
def _generated(angles):
    return PolygonGroup(presentation_from_angles(list(angles)))


def _group(request, group):
    """A bundled group by fixture name, or one generated from its angles:
    the pentagon (2,2,2,2,2) has rank 5, (2,4,inf,3) an ideal vertex."""
    if isinstance(group, str):
        return request.getfixturevalue(group)
    return _generated(group)


# generated groups at radius 6: 1,161 and 816 elements
GENERATED = [pytest.param((2, 2, 2, 2, 2), 6, id="w22222-6"),
             pytest.param((2, 4, "inf", 3), 6, id="w24inf3-6")]


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


def _members(mask):
    """Indices of the set bits of mask, ascending."""
    return [x for x, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def _scan_interval(below, v, w):
    """[v, w] by scanning below[w] for the x with v in below[x]."""
    return sorted(x for x in below[w] if v in below[x])


def _r_poly(table, v, w):
    return table.r_idx(table.ball.index[v.word], table.ball.index[w.word])


def _is_extremal(ball, v, w):
    """D_L(w) in D_L(v) and D_R(w) in D_R(v), from the ball's descent sets."""
    a, b = ball.elements[v], ball.elements[w]
    return b.left <= a.left and b.right <= a.right


def _full_scan_w_graph(ball, side, table):
    """W-graph edges from mu on every Bruhat pair."""
    edges = {i: [] for i in range(len(ball.elements))}
    desc = [e.left if side == "left" else e.right for e in ball.elements]
    for b in range(len(ball.elements)):
        for a in table.lower(b):
            if kl_mu(table, a, b) == 0:
                continue
            if not desc[a] <= desc[b]:
                edges[a].append(b)
            if not desc[b] <= desc[a]:
                edges[b].append(a)
    return edges


def test_r_poly_base_cases(g237, kl237):
    e = g237.element(())
    s = g237.element((1,))
    assert _r_poly(kl237, s, s) == (1,)
    assert _r_poly(kl237, e, s) == (-1, 1)          # q - 1
    st = g237.element((1, 2))
    rt = g237.element((0, 2))
    assert _r_poly(kl237, st, rt) == ()             # incomparable, same length


def test_r_poly_degree_and_constant(g237, kl237):
    ball = g237.ball(8)
    for vi, v in enumerate(ball.elements):
        for wi, w in enumerate(ball.elements):
            if not bruhat_leq(kl237, vi, wi) or vi == wi:
                continue
            n = w.length - v.length
            r = kl237.r_idx(vi, wi)
            assert len(r) - 1 == n
            assert r[0] == (-1) ** n


def test_kl_poly_base_cases(g237, kl237):
    e = g237.element(())
    w = g237.element((1, 2, 1, 2, 1))
    wi = kl237.ball.index[w.word]
    assert kl237.p_idx(wi, wi) == (1,)
    assert kl237.p_idx(kl237.ball.index[e.word], wi) == (1,)


def test_kl_poly_dihedral_always_one(g237, kl237):
    # inside the <s,t> parabolic every comparable pair has P = 1
    ball = g237.ball(7)
    dihedral = [i for i, e in enumerate(ball.elements)
                if set(e.word) <= {1, 2}]
    for vi in dihedral:
        for wi in dihedral:
            if bruhat_leq(kl237, vi, wi):
                assert kl237.p_idx(vi, wi) == (1,)


def test_kl_poly_short_intervals_are_one(g237, kl237):
    ball = g237.ball(10)
    for vi, v in enumerate(ball.elements):
        for wi, w in enumerate(ball.elements):
            if 0 < w.length - v.length <= 2 and bruhat_leq(kl237, vi, wi):
                assert kl237.p_idx(vi, wi) == (1,)


def test_kl_degree_bound(g237, kl237):
    ball = g237.ball(10)
    for vi, v in enumerate(ball.elements):
        for wi, w in enumerate(ball.elements):
            if bruhat_leq(kl237, vi, wi) and vi != wi:
                p = kl237.p_idx(vi, wi)
                assert 2 * (len(p) - 1) <= w.length - v.length - 1


def test_defining_identity_recheck(g237, kl237):
    ball = g237.ball(8)
    for vi in range(len(ball.elements)):
        for wi in range(len(ball.elements)):
            if not bruhat_leq(kl237, vi, wi):
                continue
            n = ball.elements[wi].length - ball.elements[vi].length
            rhs = [0] * (n + 1)
            for x in kl237.lower(wi):
                if bruhat_leq(kl237, vi, x):  # x in [v, w]
                    _poly_mul_into(rhs, kl237.r_idx(vi, x), kl237.p_idx(x, wi))
            lhs = [0] * (n + 1)
            for i, c in enumerate(kl237.p_idx(vi, wi)):
                lhs[n - i] = c
            assert lhs == rhs


def test_mu_conventions(g237, kl237):
    e, s, st, rt = (kl237.ball.index[g237.element(w).word]
                    for w in ((), (1,), (1, 2), (0, 2)))
    assert kl_mu(kl237, e, st) == 0      # even length difference
    assert kl_mu(kl237, s, st) == 1      # covering pair
    assert kl_mu(kl237, st, s) == 0      # wrong order
    assert kl_mu(kl237, st, rt) == 0      # incomparable


def test_mu_covering_pairs_are_one(g237, kl237):
    ball = g237.ball(8)
    for vi, v in enumerate(ball.elements):
        for wi, w in enumerate(ball.elements):
            if w.length - v.length == 1 and bruhat_leq(kl237, vi, wi):
                assert kl_mu(kl237, vi, wi) == 1


def test_bruhat_examples(g237, kl237):
    e, r, rsr, st, rt = (kl237.ball.index[g237.element(w).word]
                         for w in ((), (0,), (0, 1, 0), (1, 2), (0, 2)))
    for w in (e, r, rsr):
        assert bruhat_leq(kl237, e, w)
    assert bruhat_leq(kl237, r, rsr)
    assert not bruhat_leq(kl237, st, rt)
    assert not bruhat_leq(kl237, rt, st)


def test_bruhat_matches_subexpression_search(g237, kl237, g2224, classical237,
                                             classical2224):
    """The engine's ideals (from covers) and the oracle's `below` (subword
    products grown a letter at a time) against the reference: all 2^l
    subsequences of one fixed reduced word."""
    for g, table, oracle in ((g237, kl237, classical237),
                             (g2224, KLTable(g2224, g2224.ball(5)), classical2224)):
        ball = g.ball(5)
        for w in ball.elements:
            subelems = set()
            for mask in range(1 << w.length):
                sub = tuple(w.word[i] for i in range(w.length) if mask >> i & 1)
                subelems.add(g.element(sub).word)
            assert oracle.below(oracle.canon(w.word)) == subelems
            index = table.ball.index
            for v in ball.elements:
                want = v.word in subelems
                assert bruhat_leq(table, index[v.word], index[w.word]) == want


@pytest.mark.parametrize("group, radius", [("g237", 8), ("g2224", 6), *GENERATED])
def test_ideals_match_pairwise_scan(request, group, radius):
    g = _group(request, group)
    ball = g.ball(radius)
    table = KLTable(g, ball)
    below = _lifting_below(ball)
    n = len(ball.elements)

    for w in range(n):
        assert table.lower(w) == sorted(below[w])
        # the upper ideal, which records() walks and p_idx intersects
        assert _members(table._geq[w]) == [x for x in range(n) if w in below[x]]
        for v in range(n):
            assert bruhat_leq(table, v, w) == (v in below[w])
            # every x in [v, w] has v <= x <= w, so v <= w or the interval is empty
            interval = table._leq[w] & table._geq[v]
            if v in below[w]:
                assert _members(interval) == _scan_interval(below, v, w)
            else:
                assert interval == 0


def _list_transpose(rows):
    """The transpose of a bit matrix, one int per row, through a list of
    members per column."""
    above = [[] for _ in rows]
    for w, row in enumerate(rows):
        for x in _members(row):
            above[x].append(w)
    return [sum(1 << w for w in members) for members in above]


@pytest.mark.parametrize("group", ["g237", "g2224"])
@pytest.mark.parametrize("radius", [0, 9])
def test_upper_ideals_are_the_list_transpose(request, group, radius):
    g = request.getfixturevalue(group)
    table = KLTable(g, g.ball(radius))
    assert table._geq == _list_transpose(table._leq)


@pytest.mark.parametrize("group, radius", [("g237", 8), ("g2224", 8)])
def test_p_idx_matches_classical_on_every_pair(request, group, radius):
    # pairs v <= w of a cold table: non-extremal pairs climb, extremal ones
    # are summed; test_bruhat_matches_subexpression_search covers the order
    # itself, and P is zero off it
    g = request.getfixturevalue(group)
    oracle = request.getfixturevalue("classical" + group[1:])
    ball = g.ball(radius)
    table = KLTable(g, ball)
    assert verify.kl_oracle(table, radius, oracle).ok
    kinds = {_is_extremal(ball, v, w)
             for w in range(len(ball)) for v in table.lower(w)}
    assert kinds == {False, True}


def test_kl_oracle_catches_a_wrong_ideal_or_p(g2224, classical2224):
    """kl_oracle compares each lower ideal as well as P on it: a Bruhat pair
    dropped from the engine's ideal is caught, though kl_identity, which
    walks the same ideal, passes; so is one wrong extremal P."""
    ball = g2224.ball(6)
    table = KLTable(g2224, ball)
    table._leq[-1] &= ~1  # the identity, bit 0, no longer below the last element
    assert verify.kl_identity(table).ok
    check = verify.kl_oracle(table, 6, classical2224)
    assert (check.ok, check.detail) == (False, "1 mismatches up to length 6")
    table = KLTable(g2224, ball)
    v, w = _far_extremal_pair(ball, table)
    table._P[v, w] = 7  # packed: P_{v,w} = 7, stored before its column is solved
    assert not verify.kl_oracle(table, 6, classical2224).ok


@pytest.mark.parametrize("group, radius", [("g237", 8), ("g2224", 6)])
def test_fill_stores_extremal_pairs_only(request, group, radius):
    g = request.getfixturevalue(group)
    ball = g.ball(radius)
    table = KLTable(g, ball)
    table.fill()
    assert set(table._P) == {
        (v, w) for w in range(len(ball)) for v in table.lower(w)
        if v != w and _is_extremal(ball, v, w)}


@pytest.mark.parametrize("group, radius",
                         [("g237", 8), ("g237", 12), ("g2224", 6), ("g2224", 7)])
def test_sweep_agrees_with_the_lazy_route(request, group, radius):
    """records() reads the sweep's store.  A second cold table answers
    every pair through the lazy r_idx and p_idx; a third, warmed by
    the W-graph route before its sweep, covers the mixed order; and the
    sweep re-checks the identity on a table with one bad R term."""
    g = request.getfixturevalue(group)
    ball = g.ball(radius)
    records = list(KLTable(g, ball).records())
    lazy = KLTable(g, ball)
    assert records == [(v, w, lazy.r_idx(v, w), lazy.p_idx(v, w), kl_mu(lazy, v, w))
                       for v in range(len(ball)) for w in range(len(ball))
                       if bruhat_leq(lazy, v, w)]
    warm = KLTable(g, ball)
    empirical_cells(warm)
    assert list(warm.records()) == records
    bad = KLTable(g, ball)
    v, w = _far_extremal_pair(ball, bad)
    bad._R[v][w] = bad._r(v, w) + 1
    with pytest.raises(VerificationDisagreement,
                       match=rf"defining identity failed for pair \({v}, {w}\)"):
        bad.fill()


@pytest.mark.parametrize("group, radius, p_count, r_count",
                         [("g237", 12, 893, 5960), ("g2224", 8, 2330, 8683)])
def test_w_graphs_solve_only_what_their_far_mu_need(request, group, radius,
                                                    p_count, r_count):
    """On a cold table the right W-graph, the only one solved, runs no
    sweep, and stores P only on the extremal pairs behind its far mu and R
    (diagonal included) only on the pairs those sums read, in one column
    per inverse pair: that of its earlier member."""
    g = request.getfixturevalue(group)
    table = KLTable(g, g.ball(radius))
    empirical_cells(table)
    assert table._p_rows is None
    assert len(table._P) == p_count
    assert sum(map(len, table._R)) == r_count
    assert all(table._inv[w] >= w for _, w in table._P)


def _far_extremal_pair(ball, table):
    return next((v, w) for w in range(len(ball)) for v in table.lower(w)
                if ball.lengths[w] - ball.lengths[v] >= 3
                and _is_extremal(ball, v, w))


def test_defining_identity_recheck_rejects_a_bad_term(g237):
    ball = g237.ball(6)
    table = KLTable(g237, ball)
    v, w = _far_extremal_pair(ball, table)
    table.r_idx(v, w)
    table._R[v][w] += 1  # the constant term of the x = w term of the sum
    with pytest.raises(ArithmeticError, match="defining identity failed"):
        table.p_idx(v, w)


def test_coefficient_bound_stores_nothing_past_the_packed_digit(g237):
    ball = g237.ball(6)
    table = KLTable(g237, ball)
    v, w = _far_extremal_pair(ball, table)
    table._pmax = 1 << 64
    with pytest.raises(ResourceLimit, match="KL polynomials"):
        table.p_idx(v, w)
    assert table._P == {}


def test_nonzero_mu_off_extremal_pairs_is_a_cover(kl237):
    # Kazhdan-Lusztig 1979, (2.3e), on both sides
    ball = kl237.ball
    far_pairs = 0
    for w, e in enumerate(ball.elements):
        if e.length > 10:
            break
        for v in kl237.lower(w):
            n = e.length - ball.elements[v].length
            if _is_extremal(ball, v, w) or n % 2 == 0:
                continue
            far_pairs += n >= 3
            if kl_mu(kl237, v, w):
                assert n == 1
    assert far_pairs > 0


@pytest.mark.parametrize("group, radius", [("g237", 12), ("g2224", 7), *GENERATED])
def test_mu_only_w_graph_matches_full_scan(request, group, radius):
    g = _group(request, group)
    ball = g.ball(radius)
    scan = request.getfixturevalue("kl237") if group == "g237" else KLTable(g, ball)
    graph = w_graph(KLTable(g, ball))
    assert graph.edges == _full_scan_w_graph(ball, "right", scan)


@pytest.mark.parametrize("group, radius", [("g237", 12), ("g2224", 7)])
def test_side_filter_drops_only_far_pairs_with_equal_descents(request, group, radius):
    """mu_lists(w), asked in the W-graph's order for the earlier member w
    of each inverse pair, gives the mu lists of w and of w^-1."""
    g = request.getfixturevalue(group)
    ball = g.ball(radius)
    table, scan = KLTable(g, ball), KLTable(g, ball)
    right = [e.right for e in ball.elements]

    def want(w):
        return [x for x in scan.lower(w) if kl_mu(scan, x, w)
                and (ball.lengths[w] - ball.lengths[x] == 1
                     or right[x] != right[w])]

    inv = table._inv
    assert any(w < inv[w] for w in range(len(ball)))
    for w in range(len(ball)):
        if w <= inv[w]:
            assert table.mu_lists(w) == (want(w), want(inv[w]))


def test_w_graph_singleton(g237):
    ball = g237.ball(0)
    table = KLTable(g237, ball)
    graph = w_graph(table)
    assert graph.edges == {0: []}


def test_w_graph_dihedral_edge_directions(g237, kl237):
    ball = kl237.ball
    s = ball.index[(1,)]
    st = ball.index[(1, 2)]
    gr = w_graph(kl237)
    # mu = 1 on the covering pair; an edge runs one way only where the
    # descent sets are not nested
    assert (st in gr.edges[s]) == (not ball.elements[s].right <= ball.elements[st].right)
    # the left W-graph's edge s -> st is the right one's s^-1 -> (st)^-1
    inv = kl237._inv
    assert (inv[st] in gr.edges[inv[s]]) == (
        not ball.elements[s].left <= ball.elements[st].left)


@pytest.mark.parametrize("group, radius", [("g237", 12), ("g2224", 8)])
def test_left_cells_mirror_the_right_w_graph(request, group, radius):
    """The left cells, read off the right W-graph through the inversion
    map, are the SCCs of a left W-graph scanned from mu on every pair; the
    map is an involution that swaps left and right descent sets."""
    g = request.getfixturevalue(group)
    ball = g.ball(radius)
    scan = request.getfixturevalue("kl237") if group == "g237" else KLTable(g, ball)
    table = KLTable(g, ball)
    left, _, _ = empirical_cells(table)
    reference = _full_scan_w_graph(ball, "left", scan)
    assert left == strongly_connected_components(len(ball), reference)
    inv = table._inv
    for w, e in enumerate(ball.elements):
        assert inv[inv[w]] == w
        assert (ball.elements[inv[w]].left, ball.elements[inv[w]].right) == (e.right, e.left)


@pytest.mark.parametrize("group, radius, smaller",
                         [("g237", 12, (8, 10)), ("g2224", 8, (6, 7))])
def test_right_w_graph_of_a_smaller_ball_is_the_index_prefix(request, group,
                                                            radius, smaller):
    """ball(r) is the index prefix of ball(R), and every edge depends only
    on its Bruhat interval, so the W-graph of ball(r) is that of ball(R)
    restricted to the first |ball(r)| indices, edge order included."""
    g = request.getfixturevalue(group)
    ball = g.ball(radius)
    whole = w_graph(KLTable(g, ball)).edges
    for r in smaller:
        small = g.ball(r)
        n = len(small)
        assert small.elements == ball.elements[:n]
        assert w_graph(KLTable(g, small)).edges == {
            a: [b for b in whole[a] if b < n] for a in range(n)}


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


def _join(left, right):
    """The join of two partitions by union-find: the classes of the
    equivalence generated by lying in one left or one right cell, which can
    be finer than the cells under <=_LR."""
    n = sum(len(c) for c in left)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (left, right):
        for comp in part:
            for x in comp[1:]:
                ra, rb = find(comp[0]), find(x)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda c: c[0])


def _refines(fine, coarse):
    return all(any(set(comp) <= set(c) for c in coarse) for comp in fine)


@pytest.mark.parametrize("group, radius", [("g237", 12), ("g2224", 8)])
def test_two_sided_cells_equal_the_join_where_it_is_closed(request, group, radius):
    g = request.getfixturevalue(group)
    left, right, two_sided = empirical_cells(KLTable(g, g.ball(radius)))
    assert two_sided == _join(left, right)
    # every left cell and every right cell lies inside one two-sided cell
    assert _refines(left, two_sided) and _refines(right, two_sided)


def test_two_sided_cells_are_sccs_under_lr(g237):
    """At w237 ball(16), <=_LR puts a c2 fragment starting at length 15 in
    the cell of rsr, which the join of left and right cells keeps apart."""
    ball = g237.ball(16)
    left, right, two_sided = empirical_cells(KLTable(g237, ball))
    joined = _join(left, right)
    assert (len(two_sided), len(joined)) == (10, 11)
    assert _refines(left, two_sided) and _refines(right, two_sided)
    assert _refines(joined, two_sided)
    parse = g237.presentation.parse_word
    fragment = {ball.index[parse(w)] for w in (
        "rtstsrtsrtstsrt", "rtstsrtsrtstsrts", "srtstsrtsrtstsrt")}
    rsr = ball.index[parse("rsr")]
    cell = next(set(c) for c in two_sided if rsr in c)
    assert fragment < cell and len(cell) == 277 + 3
    assert fragment in [set(c) for c in joined]
    assert len(next(c for c in joined if rsr in c)) == 277
