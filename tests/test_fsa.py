import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycell.automata import nf_transition_fsa, red_x_mu
from polycell.cells import u_t_fsa
from polycell.errors import AlphabetMismatch, StateBlowup
from polycell.fsa import (
    FSA,
    are_equivalent,
    count_words,
    difference,
    empty_language,
    enumerate_words,
    explore,
    from_text,
    intersect,
    is_subset,
    make_dfa,
    minimize,
    reverse,
    shortest_word,
    to_text,
    union,
)
from tests.conftest import (
    nfa,
    nfa_accepts,
    nfa_closure,
    nfa_minimal_dfa,
    nfa_step,
    set_trim_reference,
)

AB = ("a", "b")


# Boolean-algebra and summary wrappers over the fsa primitives; only these
# tests use them.
def complement_within(universe: FSA, a: FSA) -> FSA:
    return difference(universe, a)


def boolean(op: str, a: FSA, b: FSA | None = None, universe: FSA | None = None) -> FSA:
    if op == "union":
        return union(a, b)
    if op == "intersection":
        return intersect(a, b)
    if op == "difference":
        return difference(a, b)
    if op == "complement":
        if universe is None:
            raise ValueError("complement needs the universe automaton")
        return complement_within(universe, a)
    raise ValueError(f"unknown boolean op {op!r}")


def analyze(fsa: FSA, max_len: int) -> dict:
    return {"is_empty": shortest_word(fsa) is None,
            "word_counts": count_words(fsa, max_len)}


def _dfa_even_as():
    # even number of a's
    return make_dfa(AB, 2, 0, {0}, {(0, 0): 1, (1, 0): 0, (0, 1): 0, (1, 1): 1})


def _dfa_contains_ab():
    return make_dfa(AB, 3, 0, {2},
                    {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 2,
                     (2, 0): 2, (2, 1): 2})


def _words(n):
    for length in range(n + 1):
        yield from itertools.product(range(2), repeat=length)


def test_boolean_against_membership():
    a, b = _dfa_even_as(), _dfa_contains_ab()
    for w in _words(6):
        assert union(a, b).accepts(w) == (a.accepts(w) or b.accepts(w))
        assert intersect(a, b).accepts(w) == (a.accepts(w) and b.accepts(w))
        assert difference(a, b).accepts(w) == (a.accepts(w) and not b.accepts(w))


def test_intersection_with_complement_empty():
    a = _dfa_contains_ab()
    universe = make_dfa(AB, 1, 0, {0}, {(0, 0): 0, (0, 1): 0})
    assert shortest_word(intersect(a, complement_within(universe, a))) is None
    assert are_equivalent(union(a, empty_language(AB)), a)


def test_boolean_dispatch():
    a, b = _dfa_even_as(), _dfa_contains_ab()
    universe = make_dfa(AB, 1, 0, {0}, {(0, 0): 0, (0, 1): 0})
    assert are_equivalent(boolean("union", a, b), union(a, b))
    assert are_equivalent(boolean("intersection", a, b), intersect(a, b))
    assert are_equivalent(boolean("difference", a, b), difference(a, b))
    assert are_equivalent(boolean("complement", a, universe=universe),
                          complement_within(universe, a))
    with pytest.raises(ValueError):
        boolean("xor", a, b)


def test_alphabet_mismatch():
    a = _dfa_even_as()
    c = make_dfa(("x", "y"), 1, 0, {0}, {})
    with pytest.raises(AlphabetMismatch):
        intersect(a, c)


def _language_pool(part) -> list[FSA]:
    names = part.group.presentation.names
    pool = list(part.languages.values()) + [
        red_x_mu(part.group, entry.longest_word, part.k)
        for entry in part.data.entries]
    pool += [u_t_fsa(part, entry.pair) for entry in part.data.entries]
    pool += [empty_language(names), make_dfa(names, 1, 0, {0}, {})]
    # a reversal, and the reversed ShortLex forms: a machine not minimized
    return pool + [reverse(part.languages["c0"]), nf_transition_fsa(part.group)]


def test_equivalence_and_containment_match_minimal_dfas(part237, part2224):
    # the minimal DFA is unique and minimize numbers it canonically, so two
    # languages are equal exactly when their minimal DFAs are, and a is in b
    # exactly when a union b equals b
    pools = [_language_pool(part237), _language_pool(part2224)]
    for pool in pools:
        minimal = [minimize(a) for a in pool]
        for (a, ma), (b, mb) in itertools.product(zip(pool, minimal), repeat=2):
            assert are_equivalent(a, b) == (ma == mb)
            assert is_subset(a, b) == (minimize(union(a, b)) == mb)
    a, b = pools[0][0], pools[1][0]
    with pytest.raises(AlphabetMismatch):
        is_subset(a, b)
    with pytest.raises(AlphabetMismatch):
        are_equivalent(a, b)


def test_minimize_idempotent_and_canonical():
    a = _dfa_contains_ab()
    m1 = minimize(a)
    m2 = minimize(m1)
    assert m1.n_states == m2.n_states
    assert m1.transitions == m2.transitions
    assert m1.accepting == m2.accepting
    assert are_equivalent(a, m1)


def test_minimize_drops_unreachable():
    delta = {(0, 0): 1, (1, 0): 1, (2, 0): 1}  # state 2 unreachable
    a = make_dfa(AB, 3, 0, {1}, delta)
    m = minimize(a)
    assert m.n_states == 2


def test_minimize_needs_no_trim():
    # state 2 is unreachable and state 3 dead: no accepting state lies ahead
    delta = {(0, 0): 1, (0, 1): 3, (1, 1): 0, (2, 0): 1, (3, 0): 3}
    a = make_dfa(AB, 4, 0, {1}, delta)
    assert to_text(minimize(a)) == to_text(minimize(set_trim_reference(a)))
    assert minimize(a).n_states == 2
    # the accepting state is unreachable, so the initial one has no future
    b = make_dfa(AB, 3, 0, {2}, {(0, 0): 1, (1, 1): 0, (2, 0): 2})
    assert to_text(minimize(b)) == to_text(empty_language(AB))


def test_reverse_language():
    a = _dfa_contains_ab()
    rev = reverse(a)
    for w in _words(6):
        assert rev.accepts(w) == a.accepts(tuple(reversed(w)))
    assert reverse(empty_language(AB)) == empty_language(AB)


def test_counting_matches_enumeration():
    a = _dfa_contains_ab()
    counts = count_words(a, 7)
    listed = list(enumerate_words(a, 7))
    assert sum(counts) == len(listed)
    by_len = [0] * 8
    for w in listed:
        by_len[len(w)] += 1
    assert by_len == counts


def test_analyze():
    out = analyze(empty_language(AB), 4)
    assert out["is_empty"] and out["word_counts"] == [0] * 5
    eps = make_dfa(AB, 1, 0, {0}, {})
    out = analyze(eps, 3)
    assert not out["is_empty"] and out["word_counts"] == [1, 0, 0, 0]


def test_subset():
    a, b = _dfa_even_as(), _dfa_contains_ab()
    assert is_subset(intersect(a, b), a)
    assert not is_subset(a, b)


def test_shortest_word_is_shortlex_least():
    # accepts ab, ba, bb and aaa: the least is ab, though a depth-first
    # walk that tries a first reaches aaa first
    m = make_dfa(AB, 6, 0, {4, 5},
                 {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4, (2, 0): 4,
                  (2, 1): 5, (3, 0): 5})
    assert shortest_word(m) == (0, 1)
    assert [w for w in _words(3) if m.accepts(w)][0] == (0, 1)
    assert shortest_word(_dfa_contains_ab()) == (0, 1)
    assert shortest_word(_dfa_even_as()) == ()
    # a longer word on the only branch that accepts
    only_bba = make_dfa(AB, 4, 0, {3}, {(0, 1): 1, (1, 1): 2, (2, 0): 3})
    assert shortest_word(only_bba) == (1, 1, 0)
    assert shortest_word(reverse(only_bba)) == (0, 1, 1)
    assert shortest_word(empty_language(AB)) is None
    assert shortest_word(make_dfa(AB, 2, 0, set(), {(0, 0): 1})) is None


def test_text_roundtrip_bit_exact():
    a = minimize(_dfa_contains_ab())
    text = to_text(a)
    back = from_text(text)
    assert to_text(back) == text
    assert are_equivalent(a, back)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        from_text("not an automaton\n")
    with pytest.raises(ValueError):
        from_text("states 1 alphabet a initial 0\n0 a 0\n")  # no accept line
    with pytest.raises(ValueError):
        from_text("")
    with pytest.raises(ValueError):
        from_text("states 1 alphabet a initial 0\n0 b 0\naccept 0\n")
    for bad in ("states 1 alphabet a initial 0\n0 a 5\naccept 0\n",
                "states 1 alphabet a initial 3\naccept 0\n",
                "states -2 alphabet a initial 0\naccept 0\n",
                "states 1 alphabet a initial 0\naccept 7\n"):
        with pytest.raises(ValueError):
            from_text(bad)
    # `a a` would read every a as the second letter
    with pytest.raises(ValueError, match="appears twice"):
        from_text("states 1 alphabet a a initial 0\n0 a 0\naccept 0\n")
    # the last accept line would win, and the empty word be accepted
    with pytest.raises(ValueError, match="second accept line"):
        from_text("states 2 alphabet a initial 0\n0 a 1\naccept 1\naccept 0\n")


random_dfas = st.builds(
    lambda n, acc, targets: make_dfa(
        AB, n, 0,
        {i for i in range(n) if acc >> i & 1},
        {(q, s): targets[q * 2 + s] % n for q in range(n) for s in range(2)},
    ),
    n=st.integers(min_value=1, max_value=5),
    acc=st.integers(min_value=0, max_value=31),
    targets=st.lists(st.integers(min_value=0, max_value=4), min_size=10, max_size=10),
)


@settings(max_examples=60, deadline=None)
@given(a=random_dfas)
def test_minimize_preserves_language(a):
    m = minimize(a)
    for w in _words(5):
        assert m.accepts(w) == a.accepts(w)


@settings(max_examples=40, deadline=None)
@given(a=random_dfas, b=random_dfas)
def test_symmetric_difference_detects_equality(a, b):
    same_by_words = all(a.accepts(w) == b.accepts(w) for w in _words(6))
    eq = are_equivalent(a, b)
    if eq:
        assert same_by_words
    # states <= 5 over 2 symbols: words up to length 6 do not fully separate,
    # so only assert the safe direction when languages differ on a short word
    if not same_by_words:
        assert not eq


def partial_dfas_upto(max_states: int):
    """Partial DFAs: a missing move goes to the implicit dead state, and
    states may be unreachable or have an empty future."""
    return st.integers(min_value=1, max_value=max_states).flatmap(
        lambda n: st.builds(
            lambda acc, targets: make_dfa(
                AB, n, 0, acc,
                {(q, s): t for (q, s), t in zip(
                    itertools.product(range(n), range(2)), targets)
                 if t is not None},
            ),
            acc=st.sets(st.integers(min_value=0, max_value=n - 1)),
            targets=st.lists(st.none() | st.integers(min_value=0, max_value=n - 1),
                             min_size=2 * n, max_size=2 * n),
        ))


partial_dfas = partial_dfas_upto(6)


def memberships(a: FSA, b: FSA, max_len: int) -> list[tuple[bool, bool]]:
    """(in a, in b) for every word of length up to max_len, each run read
    letter by letter, leaving out the words that both runs have left:
    those, and all their extensions, are in neither language."""
    out = []
    layer = [(a.initial, b.initial)]
    for _ in range(max_len + 1):
        nxt = []
        for qa, qb in layer:
            out.append((qa in a.accepting, qb in b.accepting))
            for s in range(len(AB)):
                ta, tb = a.step(qa, s), b.step(qb, s)
                if ta is not None or tb is not None:
                    nxt.append((ta, tb))
        layer = nxt
    return out


@settings(max_examples=100, deadline=None)
@given(a=partial_dfas_upto(3), b=partial_dfas_upto(3))
def test_equivalence_and_containment_against_membership(a, b):
    # a shortest word in one language and not the other visits each pair
    # of states of the completed machines at most once, and never the pair
    # of dead states, so words that short decide both questions
    words = memberships(a, b, (a.n_states + 1) * (b.n_states + 1) - 2)
    assert is_subset(a, b) == all(y for x, y in words if x)
    assert is_subset(b, a) == all(x for x, y in words if y)
    assert are_equivalent(a, b) == all(x == y for x, y in words)

# NFAs with several targets per move and epsilon moves, any initial state,
# as the tests' dicts.
random_nfas = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.builds(
    lambda initial, acc, edges, eps: nfa(
        AB, n, initial, acc,
        {(q, s): {t for p, r, t in edges if (p, r) == (q, s)}
         for q, s, _ in edges},
        {q: {t for p, t in eps if p == q} for q, _ in eps},
    ),
    initial=st.integers(min_value=0, max_value=n - 1),
    acc=st.sets(st.integers(min_value=0, max_value=n - 1)),
    edges=st.sets(st.tuples(st.integers(min_value=0, max_value=n - 1),
                            st.integers(min_value=0, max_value=1),
                            st.integers(min_value=0, max_value=n - 1)),
                  max_size=3 * n),
    eps=st.sets(st.tuples(st.integers(min_value=0, max_value=n - 1),
                          st.integers(min_value=0, max_value=n - 1)),
                max_size=n),
))


def myhill_nerode_states(a: FSA) -> int:
    """States of the minimal DFA of the deterministic a with the dead state
    implicit, by table filling over the completed machine: the classes of
    the reachable states with a nonempty future, and one state for the empty
    language."""
    dead = a.n_states

    def step(q, s):
        t = a.transitions.get((q, s)) if q != dead else None
        return dead if t is None else t

    reach = {a.initial}
    stack = [a.initial]
    while stack:
        q = stack.pop()
        for s in range(len(a.alphabet)):
            t = step(q, s)
            if t not in reach:
                reach.add(t)
                stack.append(t)
    states = sorted(reach | {dead})
    marked = {(p, q) for p in states for q in states
              if (p in a.accepting) != (q in a.accepting)}
    changed = True
    while changed:
        changed = False
        for p in states:
            for q in states:
                if (p, q) not in marked and any(
                        (step(p, s), step(q, s)) in marked
                        for s in range(len(a.alphabet))):
                    marked.add((p, q))
                    changed = True
    live = [q for q in sorted(reach) if (q, dead) in marked]
    classes = [q for i, q in enumerate(live)
               if all((p, q) in marked for p in live[:i])]
    return max(1, len(classes))


@settings(max_examples=150, deadline=None)
@given(a=partial_dfas)
def test_minimize_partial_dfas_against_table_filling(a):
    m = minimize(a)
    assert m.n_states == myhill_nerode_states(a)
    assert to_text(m) == to_text(minimize(set_trim_reference(a)))
    assert are_equivalent(m, a)
    for w in _words(5):
        assert m.accepts(w) == a.accepts(w)


def subset_reference(a: dict) -> FSA:
    """The complete subset DFA of the NFA a, by frozensets of epsilon
    closures: every set reached from the initial one, the empty set
    included, numbered in order of discovery."""
    start = nfa_closure(a, {a["initial"]})
    ids = {start: 0}
    order = [start]
    delta = {}
    for i, cur in enumerate(order):  # grows as new sets are met
        for s in range(len(a["alphabet"])):
            nxt = nfa_step(a, cur, s)
            delta[(i, s)] = ids.setdefault(nxt, len(order))
            if delta[(i, s)] == len(order):
                order.append(nxt)
    return make_dfa(a["alphabet"], len(order), 0,
                    {i for i, cur in enumerate(order)
                     if not cur.isdisjoint(a["accepting"])}, delta)


def nfa_text(a: dict) -> str:
    """The epsilon-free NFA a in the text format, its moves in any order."""
    return "".join([
        f"states {a['n_states']} alphabet {' '.join(a['alphabet'])} "
        f"initial {a['initial']}\n",
        *(f"{q} {a['alphabet'][s]} {t}\n" for (q, s), ts in a["moves"].items()
          for t in ts),
        "accept " + " ".join(map(str, a["accepting"])) + "\n"])


def reversal_nfa(a: FSA) -> dict:
    """The reversed moves of the DFA a, from a fresh initial state with an
    epsilon move to each accepting one."""
    moves: dict = {}
    for (q, s), t in a.transitions.items():
        moves.setdefault((t, s), set()).add(q)
    return nfa(a.alphabet, a.n_states + 1, a.n_states, {a.initial}, moves,
               {a.n_states: a.accepting})


@settings(max_examples=150, deadline=None)
@given(a=random_nfas)
def test_trim_and_emptiness_against_set_reference(a):
    d = nfa_minimal_dfa(a)
    empty = shortest_word(d) is None
    assert empty == (not any(nfa_accepts(a, w) for w in _words(a["n_states"])))
    ref = subset_reference(a)
    assert (shortest_word(ref) is None) == (not set_trim_reference(ref).accepting) \
        == empty
    assert d.n_states == myhill_nerode_states(ref)


@settings(max_examples=150, deadline=None)
@given(a=random_nfas)
def test_shortest_word_against_enumeration(a):
    # a shortest accepting run visits no state twice: n - 1 letters suffice
    want = next((w for w in _words(a["n_states"]) if nfa_accepts(a, w)), None)
    assert shortest_word(nfa_minimal_dfa(a)) == shortest_word(
        subset_reference(a)) == want


def _own_moves(a: FSA):
    """expand for explore that reads a's own letter moves."""
    def expand(q):
        return q in a.accepting, [(s, t) for s in range(len(a.alphabet))
                                  if (t := a.transitions.get((q, s))) is not None]
    return expand


@settings(max_examples=150, deadline=None)
@given(a=partial_dfas)
def test_explore_keeps_the_live_states(a):
    # explore trims a DFA to its live states
    e = explore(a.alphabet, a.initial, _own_moves(a))
    assert e.n_states == set_trim_reference(a).n_states
    for w in _words(a.n_states):
        assert e.accepts(w) == a.accepts(w)
    # no dead state: an accepting state lies ahead of every state kept,
    # unless the language is empty and one rejecting state stands for it
    if not e.accepting:
        assert e == empty_language(AB)
        return
    back = {(t, q) for (q, _), t in e.transitions.items()}
    ahead = set(e.accepting)
    while more := {q for t, q in back if t in ahead} - ahead:
        ahead |= more
    assert ahead == set(range(e.n_states))


@settings(max_examples=150, deadline=None)
@given(a=random_nfas)
def test_subset_machines_accept_the_words_of_the_nfa(a):
    # the set simulation and the frozenset subset DFA of the tests, apart
    # from the bitset subset search behind minimal_dfa, which from_text
    # and reverse run too
    m, ref = nfa_minimal_dfa(a), subset_reference(a)
    assert m == minimize(ref)
    for w in _words(a["n_states"] + 2):
        assert m.accepts(w) == ref.accepts(w) == nfa_accepts(a, w)
    # the same machine without its epsilon moves, read from a file
    plain = dict(a, eps={})
    d = from_text(nfa_text(plain))
    assert minimize(d) == minimize(subset_reference(plain))
    for w in _words(a["n_states"] + 2):
        assert d.accepts(w) == nfa_accepts(plain, w)


@settings(max_examples=150, deadline=None)
@given(a=partial_dfas)
def test_reverse_against_the_subset_reference(a):
    rev = reverse(a)
    assert rev == minimize(subset_reference(reversal_nfa(a)))
    for w in _words(a.n_states + 1):
        assert rev.accepts(w) == a.accepts(w[::-1])


def test_subset_search_stops_at_the_state_cap(monkeypatch):
    # the n-th letter is a: n + 1 states; the n-th letter from the end is
    # a: 2^n, so a cap between the two stops reversal's subset search, not
    # its search of the states
    n = 6
    delta = {(q, s): q + 1 for q in range(n - 1) for s in (0, 1)}
    delta.update({(n - 1, 0): n, (n, 0): n, (n, 1): n})
    a = make_dfa(AB, n + 1, 0, {n}, delta)
    assert reverse(a).n_states == 2 ** n
    monkeypatch.setattr("polycell.fsa.STATE_CAP", 2 * n)
    with pytest.raises(StateBlowup, match=f"reverse exceeds {2 * n} states"):
        reverse(a)
