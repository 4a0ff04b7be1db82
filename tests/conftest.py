import math

import pytest

from polycell import PolygonGroup, presentation_from_angles
from polycell.cells import build_partition, u_t_fsa
from polycell.fsa import FSA, empty_language, minimal_dfa
from polycell.kl import poly_coeff
from polycell.render import _angle_at, _is_null

# fellow-traveler constants; test_automata re-validates both exhaustively
K_W237 = 6
K_W2224 = 4


def assert_translates_match_balls(part, specs, r):
    # language membership for w * U^T against ball arithmetic on ball(r)
    group = part.group
    for sp in specs:
        w = group.element(sp.translator)
        U = u_t_fsa(part, sp.pair)
        members = set()
        for u in group.ball(r + w.length).elements:
            if U.accepts(u.word):
                prod = group.multiply(w, u)
                if prod.length <= r:
                    members.add(prod.word)
        for e in group.ball(r).elements:
            assert sp.language.accepts(e.word) == (e.word in members)


def bruhat_leq(table, v, w):
    """v <= w in Bruhat order: one bit of the lower ideal of w."""
    return bool(table._leq[w] >> v & 1)


def kl_mu(table, column, v, w):
    """mu(v, w) from `column`, the column P(., w) of `table.column(w)`: the
    coefficient of q^((n - 1) / 2) in P_{v,w} for an odd length difference
    n, 0 otherwise."""
    n = table.ball.lengths[w] - table.ball.lengths[v]
    if n <= 0 or n % 2 == 0:
        return 0
    return poly_coeff(column.get(v, ()), (n - 1) // 2)


def realized_area(real):
    """The hyperbolic area of a realized polygon by Gauss-Bonnet: (n - 2) pi
    less its interior angles, an ideal vertex's being 0."""
    n = len(real.vertices)
    total = (n - 2) * math.pi
    for k, v in enumerate(real.vertices):
        if not _is_null(v):
            total -= _angle_at(v, real.vertices[(k - 1) % n],
                               real.vertices[(k + 1) % n])
    return total


def set_trim_reference(a: FSA) -> FSA:
    """The trim by sets: the states reachable from the initial one and
    co-reachable from an accepting one, renumbered in order."""
    succ = {(q, t) for (q, _), t in a.transitions.items()}

    def closure(seeds, pairs):
        step: dict = {}
        for q, t in pairs:
            step.setdefault(q, set()).add(t)
        out = frontier = set(seeds)
        while frontier:
            frontier = set().union(*(step.get(q, ()) for q in frontier)) - out
            out = out | frontier
        return out

    live = closure({a.initial}, succ) & closure(a.accepting,
                                               {(t, q) for q, t in succ})
    if a.initial not in live:
        return empty_language(a.alphabet)
    remap = {q: i for i, q in enumerate(sorted(live))}
    return FSA(
        alphabet=a.alphabet,
        n_states=len(live),
        initial=remap[a.initial],
        accepting=frozenset(remap[q] for q in a.accepting & live),
        transitions={(remap[q], s): remap[t]
                     for (q, s), t in a.transitions.items()
                     if q in live and t in live},
    )


# Nondeterministic machines exist only in the tests, as references: dicts
# whose "moves" map (state, symbol) to a set of targets and whose "eps" map
# a state to the targets of its epsilon moves.
def nfa(alphabet, n_states, initial, accepting, moves, eps=None) -> dict:
    return {"alphabet": tuple(alphabet), "n_states": n_states,
            "initial": initial, "accepting": frozenset(accepting),
            "moves": moves, "eps": eps or {}}


def nfa_closure(a: dict, states) -> frozenset:
    """The states reached from `states` by epsilon moves."""
    out = set(states)
    stack = list(out)
    while stack:
        for t in a["eps"].get(stack.pop(), ()):
            if t not in out:
                out.add(t)
                stack.append(t)
    return frozenset(out)


def nfa_step(a: dict, states, sym: int) -> frozenset:
    return nfa_closure(a, frozenset().union(
        *(a["moves"].get((q, sym), ()) for q in states)))


def nfa_accepts(a: dict, word) -> bool:
    """Set simulation of the epsilon closures."""
    cur = nfa_closure(a, {a["initial"]})
    for s in word:
        cur = nfa_step(a, cur, s)
    return not cur.isdisjoint(a["accepting"])


def nfa_minimal_dfa(a: dict) -> FSA:
    """`fsa.minimal_dfa` of the search over a's states, each with the moves
    and acceptance of its epsilon closure."""
    syms = range(len(a["alphabet"]))

    def expand(q):
        near = nfa_closure(a, {q})
        return not near.isdisjoint(a["accepting"]), [
            (s, t) for p in near for s in syms for t in a["moves"].get((p, s), ())]

    return minimal_dfa(a["alphabet"], [a["initial"]], expand)


@pytest.fixture(scope="session")
def w237():
    return presentation_from_angles([2, 3, 7], names=["r", "s", "t"], label="w237")


@pytest.fixture(scope="session")
def g237(w237):
    return PolygonGroup(w237)


@pytest.fixture(scope="session")
def w2224():
    return presentation_from_angles([2, 2, 2, 4], label="w2224")


@pytest.fixture(scope="session")
def g2224(w2224):
    return PolygonGroup(w2224)


@pytest.fixture(scope="session")
def part237(g237):
    return build_partition(g237, K_W237)


@pytest.fixture(scope="session")
def part2224(g2224):
    return build_partition(g2224, K_W2224)


@pytest.fixture(scope="session")
def kl237(g237):
    from polycell.kl import KLTable

    table = KLTable(g237, g237.ball(12))
    table.fill()
    return table

