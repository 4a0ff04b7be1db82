import itertools

import pytest

from polycell import (
    PolygonGroup,
    automata,
    cells,
    fsa,
    presentation_from_angles,
    verify,
)
from polycell.automata import (
    canonical_fsa,
    equal_endpoint_pairs,
    factor_fsa,
    fellow_traveler_constant,
    left_translate,
    nf_transition_fsa,
    red_x_mu,
    right_descent_class_fsa,
    shortlex_fsa,
    word_difference_table,
)
from polycell.cells import (
    _spec_candidates,
    build_partition,
    dihedral_data,
    omega_minimal,
    u_t_fsa,
)
from polycell.errors import PatternNotReduced, StateBlowup
from polycell.fsa import (
    are_equivalent,
    count_words,
    enumerate_words,
    epsilon_language,
    is_empty,
    is_subset,
    make_dfa,
    minimize,
    search,
    to_text,
)
from polycell.oracle import braid_closure
from tests.conftest import K_W237, K_W2224, nfa, nfa_minimal_dfa


def test_canonical_rejects_non_reduced(g237):
    can = canonical_fsa(g237)
    assert not can.accepts((1, 1))
    assert can.accepts(())
    assert can.accepts((0, 1, 0))


def test_canonical_agrees_with_engine_exhaustively(g237, g2224):
    for g, max_len in ((g237, 7), (g2224, 6)):
        can = canonical_fsa(g)
        for n in range(max_len + 1):
            for w in itertools.product(range(g.rank), repeat=n):
                assert can.accepts(w) == g.is_reduced(w)


def test_canonical_counts_match_closure_census(g237):
    assert verify.word_counts(g237, g237.ball(8), 8).ok


def test_element_counts_match_ball(g237, g2224):
    assert verify.element_counts(g237, g237.ball(10)).ok
    assert verify.element_counts(g2224, g2224.ball(8)).ok


def test_shortlex_language_is_normal_forms(g237):
    sl = shortlex_fsa(g237)
    ball = g237.ball(6)
    accepted = set(enumerate_words(sl, 6))
    assert accepted == {e.word for e in ball.elements}


def test_factor_examples(g237, w237):
    f = factor_fsa(g237, w237.parse_word("rt"))
    assert f.accepts(w237.parse_word("srt"))
    assert not f.accepts(w237.parse_word("tr"))
    assert not f.accepts(w237.parse_word("rsr"))
    empty_pat = factor_fsa(g237, ())
    assert are_equivalent(empty_pat, canonical_fsa(g237))


def test_factor_requires_reduced_pattern(g237):
    with pytest.raises(PatternNotReduced):
        factor_fsa(g237, (1, 1))


def test_pair_machine_basics(g237, w237):
    # equal single-letter words fellow-travel at distance 0
    p = equal_endpoint_pairs(g237, _single_word_fsa(g237, (0,)), (), 1)
    assert p.accepts(w237.parse_word("r"))
    # distinct generators never have equal endpoints
    assert not p.accepts(w237.parse_word("s"))


def test_pair_machine_braid_pair(g237, w237):
    # prefix difference of (rt, tr) is the element rt of length 2, so the
    # pair appears at difference radius 2 and not at 1
    tr = _single_word_fsa(g237, w237.parse_word("tr"))
    for k, expect in ((1, False), (2, True)):
        p = equal_endpoint_pairs(g237, tr, (), k)
        assert p.accepts(w237.parse_word("rt")) == expect


def test_projection_trivialities(g237):
    can = canonical_fsa(g237)
    proj = minimize(equal_endpoint_pairs(g237, can, (), 2))
    assert not is_empty(proj)
    # projection of equal-endpoint pairs over Red(W) is Red(W)
    assert are_equivalent(proj, can)


# The padded pair machine over a pair alphabet and its projection to the
# first coordinate, kept as the reference for the direct machine.

PAD = "-"


def pair_alphabet(names) -> tuple[str, ...]:
    syms = [f"{x}|{y}" for x in names for y in names]
    syms += [f"{x}|{PAD}" for x in names]
    syms += [f"{PAD}|{y}" for y in names]
    return tuple(syms)


def padded_equal_endpoint_pairs(
    group,
    A,
    B,
    k,
    offset=None,
    diff_radius=None,
):
    """NFA over padded pair symbols accepting (alpha, beta) with alpha in
    L(A), beta in L(B), endpoint(alpha) = offset * endpoint(beta), and
    every synchronous word difference alpha_i^-1 * offset * beta_i of
    length <= diff_radius (default k).  The shorter word pads at the end;
    (pad, pad) never occurs."""
    if offset is None:
        offset = group.element(())
    radius = k if diff_radius is None else diff_radius
    # the intermediate d*y may overshoot by one before x pulls it back
    ball = group.ball(radius + 1)
    maxlen = radius
    n = group.rank
    names = group.presentation.names
    alphabet = pair_alphabet(names)
    sym = {name: i for i, name in enumerate(alphabet)}
    e_idx = ball.index[()]
    start_d = ball.index.get(offset.word) if offset.length <= maxlen else None
    if start_d is None:
        return nfa(alphabet, 1, 0, (), {})
    lengths = [e.length for e in ball.elements]

    def diff_step(d, x, y):
        # d -> x * d * y, final difference kept within the radius
        if y is not None:
            d2 = ball.right_mult[d][y]
            if d2 is None:
                return None
            d = d2
        if x is not None:
            d2 = ball.left_mult[d][x]
            if d2 is None:
                return None
            d = d2
        return d if lengths[d] <= maxlen else None

    # state = (qa, qb, diff index, mode); mode 0 = both words running,
    # 1 = right word finished (pads right), 2 = left word finished
    start = (A.initial, B.initial, start_d, 0)
    ids = {start: 0}
    order = [start]
    transitions = {}
    accepting = set()

    def intern(key):
        j = ids.get(key)
        if j is None:
            j = len(order)
            ids[key] = j
            order.append(key)
        return j

    i = 0
    while i < len(order):
        qa, qb, d, mode = order[i]
        a_acc = qa in A.accepting
        b_acc = qb in B.accepting
        if d == e_idx:
            if (mode == 0 and a_acc and b_acc) or (mode == 1 and a_acc) \
                    or (mode == 2 and b_acc):
                accepting.add(i)
        moves = []
        if mode in (0, 1):
            for x in range(n):
                ta = A.step(qa, x)
                if ta is None:
                    continue
                if mode == 0:
                    for y in range(n):
                        tb = B.step(qb, y)
                        if tb is None:
                            continue
                        nd = diff_step(d, x, y)
                        if nd is not None:
                            moves.append((sym[f"{names[x]}|{names[y]}"],
                                          (ta, tb, nd, 0)))
                if b_acc or mode == 1:
                    nd = diff_step(d, x, None)
                    if nd is not None:
                        moves.append((sym[f"{names[x]}|{PAD}"], (ta, qb, nd, 1)))
        if mode in (0, 2) and (a_acc or mode == 2):
            for y in range(n):
                tb = B.step(qb, y)
                if tb is None:
                    continue
                nd = diff_step(d, None, y)
                if nd is not None:
                    moves.append((sym[f"{PAD}|{names[y]}"], (qa, tb, nd, 2)))
        for code, key in moves:
            transitions.setdefault((i, code), set()).add(intern(key))
        i += 1

    return nfa(alphabet, len(order), 0, accepting, transitions)


def project_first(pairs, names):
    """Erase the right coordinate of every pair symbol of the NFA pairs:
    (x|y) and (x|-) read as x, (-|y) becomes an epsilon move.  Output is an
    NFA over the generator alphabet."""
    sidx = {name: i for i, name in enumerate(names)}
    transitions = {}
    eps = {}
    for (q, s), ts in pairs["moves"].items():
        left = pairs["alphabet"][s].split("|")[0]
        if left == PAD:
            eps.setdefault(q, set()).update(ts)
        else:
            transitions.setdefault((q, sidx[left]), set()).update(ts)
    return nfa(names, pairs["n_states"], pairs["initial"], pairs["accepting"],
               transitions, eps)


# (group, k, level, radius) of the one-sided paths the pair machines are
# checked on; w2224 level 2 radius 8 is the benchmark's onesided path
ONESIDED_PATHS = (("w237", K_W237, 3, 10), ("w2224", K_W2224, 1, 8),
                  ("w2224", K_W2224, 2, 8))


@pytest.fixture(scope="module")
def translation_steps(part237, part2224):
    """(group, A, s, k) of every left_translate step _spec_candidates takes
    on ONESIDED_PATHS."""
    parts = {"w237": part237, "w2224": part2224}
    steps = []

    def record(group, A, s, k):
        steps.append((group, A, s, k))
        return left_translate(group, A, s, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cells, "left_translate", record)
        for name, k, level, radius in ONESIDED_PATHS:
            _spec_candidates(parts[name], level, radius, k)
    return steps


def test_pair_machine_languages_hold_reduced_words_only(part237, part2224,
                                                        translation_steps):
    # equal_endpoint_pairs keeps only what lies on an accepting run of the
    # pair machine of Red(W) with itself, on the premise that L(B) holds
    # reduced words: the pattern languages red_x_mu hands it, and every
    # language a translation step starts from
    for part in (part237, part2224):
        group = part.group
        can = canonical_fsa(group)
        for entry in part.data.entries:
            assert is_subset(factor_fsa(group, entry.longest_word), can)
            assert is_subset(u_t_fsa(part, entry.pair), can)
    assert len(translation_steps) == 316
    for group, A, _, _ in translation_steps:
        assert is_subset(A, canonical_fsa(group))


def unfiltered_equal_endpoint_pairs(group, B, offset, k):
    """The pair machine searched without the word-difference table: every
    move the radius and pad rules allow, dead or not, as an NFA whose steps
    of beta alone are epsilon moves.  The reference for
    equal_endpoint_pairs, which must be its minimal DFA."""
    radius = k + len(offset)
    ball = group.ball(radius + 1)
    right_mult, left_mult, lengths = ball.right_mult, ball.left_mult, ball.lengths
    b_delta, b_acc = B.transitions, B.accepting
    gens = range(group.rank)
    canon = [[(x, t) for x, t in enumerate(row) if t is not None]
             for row in group.transitions]
    b_moves = [[(y, t) for y in gens if (t := b_delta.get((q, y))) is not None]
               for q in range(B.n_states)]

    def expand(state):
        qa, qb, d, mode = state
        qb_acc = qb in b_acc
        ld = lengths[d]
        dy = right_mult[d]
        moves = []
        if mode != 2:
            both = b_moves[qb] if mode == 0 else ()
            pad = left_mult[d] if qb_acc else None
            for x, ta in canon[qa]:
                for y, tb in both:
                    nd = left_mult[dy[y]][x]
                    if nd is not None and lengths[nd] <= radius:
                        moves.append((x, (ta, tb, nd, 0)))
                if pad is not None:
                    nd = pad[x]
                    if lengths[nd] < ld:
                        moves.append((x, (ta, qb, nd, 1)))
        if mode != 1:
            for y, tb in b_moves[qb]:
                nd = dy[y]
                if lengths[nd] < ld:
                    moves.append((None, (qa, tb, nd, 2)))
        return d == 0 and qb_acc, moves

    keys = [(0, B.initial, ball.index[offset], 0)]
    ids = {keys[0]: 0}
    accepting, transitions, eps = set(), {}, {}
    for i, key in enumerate(keys):  # grows as new states are met
        accepts, moves = expand(key)
        if accepts:
            accepting.add(i)
        for x, target in moves:
            j = ids.setdefault(target, len(keys))
            if j == len(keys):
                keys.append(target)
            if x is None:
                eps.setdefault(i, set()).add(j)
            else:
                transitions.setdefault((i, x), set()).add(j)
    return nfa(group.presentation.names, len(keys), 0, accepting,
               transitions, eps)


def test_pair_machines_match_the_unfiltered_search(g237, g2224,
                                                   translation_steps):
    # the table skips only dead states: every red_x_mu pattern at k and
    # k + 1, and every translation step of ONESIDED_PATHS, gives the
    # minimal DFA of the unfiltered search.  Those steps all lengthen the
    # words; each pattern language translated by each generator also has
    # words that s shortens, whose pairs end with steps of beta alone
    def same(group, B, offset, k):
        return to_text(equal_endpoint_pairs(group, B, offset, k)) == to_text(
            nfa_minimal_dfa(unfiltered_equal_endpoint_pairs(group, B, offset, k)))

    for group, k in ((g237, K_W237), (g2224, K_W2224)):
        for entry in dihedral_data(group.presentation).entries:
            B = factor_fsa(group, entry.longest_word)
            assert same(group, B, (), k) and same(group, B, (), k + 1)
            assert all(same(group, B, (s,), k) for s in range(group.rank))
    for group, A, s, k in translation_steps:
        assert same(group, A, (s,), k)


def test_pair_machine_matches_padded_projection(part237, part2224):
    # w2224 level 2 radius 8 is the benchmark's onesided path
    for part, k, level, radius in ((part237, K_W237, 3, 10),
                                   (part2224, K_W2224, 2, 8)):
        group = part.group
        names = group.presentation.names
        base = canonical_fsa(group)
        for entry in dihedral_data(group.presentation).entries:
            B = factor_fsa(group, entry.longest_word)
            want = nfa_minimal_dfa(project_first(
                padded_equal_endpoint_pairs(group, base, B, k), names))
            assert to_text(red_x_mu(group, entry.longest_word, k)) == to_text(want)
        for cand in _spec_candidates(part, level, radius, k):
            w = group.element(cand.translator)
            ut = u_t_fsa(part, cand.pair)
            want = nfa_minimal_dfa(project_first(padded_equal_endpoint_pairs(
                group, base, ut, k, offset=w, diff_radius=k + w.length), names))
            assert to_text(cand.language) == to_text(want)


def test_pair_machines_are_already_minimal(part237, part2224, monkeypatch):
    # equal_endpoint_pairs hands its subset rows to the refinement that
    # minimize runs, so minimizing again changes nothing.  The red_x_mu
    # machines and every one-generator step of _spec_candidates on the
    # bundled paths; their languages are checked against the padded
    # projection above.
    built = []

    def record(*args):
        built.append(equal_endpoint_pairs(*args))
        return built[-1]

    monkeypatch.setattr(automata, "equal_endpoint_pairs", record)
    for part, k, level, radius in ((part2224, K_W2224, 2, 8),
                                   (part237, K_W237, 3, 10)):
        group = part.group
        for entry in dihedral_data(group.presentation).entries:
            record(group, factor_fsa(group, entry.longest_word), (), k)
        n_patterns = len(built)
        _spec_candidates(part, level, radius, k)
        assert len(built) > n_patterns
    for p in built:
        assert minimize(p) == p


def test_pair_machines_stop_at_the_state_cap(w237, monkeypatch):
    # the cap counts interned pair states, live or not, and subset states
    # alike.  A fresh group, whose table is built under the full cap: the
    # rt machine itself interns more than ten pair states
    group = PolygonGroup(w237)
    B = factor_fsa(group, w237.parse_word("rt"))
    word_difference_table(group, K_W237, ())
    interned = []

    def record(starts, expand):
        out = search(starts, expand)
        interned.append(len(out[0]))
        return out

    monkeypatch.setattr("polycell.fsa.search", record)
    equal_endpoint_pairs(group, B, (), K_W237)
    assert len(interned) == 1 and interned[0] > 10
    monkeypatch.setattr("polycell.fsa.STATE_CAP", 10)
    with pytest.raises(StateBlowup, match="equal_endpoint_pairs exceeds 10 states"):
        equal_endpoint_pairs(group, B, (), K_W237)


def test_word_difference_table_stops_at_the_state_cap(w237, monkeypatch):
    # on a fresh group the table is searched first, and its search has the
    # cap too; nothing is cached from the failed build
    group = PolygonGroup(w237)
    B = factor_fsa(group, w237.parse_word("rt"))
    monkeypatch.setattr("polycell.fsa.STATE_CAP", 100)
    for _ in range(2):
        with pytest.raises(StateBlowup,
                           match="word_difference_table exceeds 100 states"):
            equal_endpoint_pairs(group, B, (), K_W237)


def test_onesided_path_interns_few_pair_states(w2224, monkeypatch):
    # the benchmark's onesided path (w2224 level 2 radius 8, k = 4) on a
    # fresh group: the 23 translation machines intern 2,749 pair states,
    # 2,347 of them on an accepting run, and meet 1,093 nonempty sets of
    # those in their subset searches.  The top level's U^T reads no label
    # language, so no pattern machine and no identity-offset table is
    # built; with the 4 pattern machines built eagerly, 27 machines
    # interned 3,282 states, and 15,393 before they read the
    # word-difference tables
    interned: dict = {}
    subsets: dict = {}

    def record(starts, expand):
        keys, rows, accepting, live = search(starts, expand)
        stage = expand.__qualname__.partition(".")[0]
        n = interned.setdefault(stage, [0, 0, 0])
        n[0] += 1
        n[1] += len(keys)
        n[2] += sum(live)
        return keys, rows, accepting, live

    def record_sets(nsym, start, expand):
        rows, accepting = subset_rows(nsym, start, expand)
        stage = expand.__qualname__.partition(".")[0]
        # the sets met, without the empty one, which is the dead state
        subsets[stage] = subsets.get(stage, 0) + len(rows) - 1
        return rows, accepting

    offsets = []
    pairs = automata.equal_endpoint_pairs

    def record_offset(group, B, offset, k):
        offsets.append(offset)
        return pairs(group, B, offset, k)

    subset_rows = fsa._subset_rows
    monkeypatch.setattr(fsa, "search", record)
    monkeypatch.setattr(fsa, "_subset_rows", record_sets)
    monkeypatch.setattr(automata, "search", record)
    monkeypatch.setattr(automata, "equal_endpoint_pairs", record_offset)
    part = build_partition(PolygonGroup(w2224), K_W2224)
    specs = omega_minimal(part, 2, 8, K_W2224)
    assert len(offsets) == 23 and () not in offsets
    # machines, interned states, live states
    assert interned["equal_endpoint_pairs"] == [23, 2_749, 2_347]
    assert interned["word_difference_table"] == [1, 1_010, 228]
    assert subsets["equal_endpoint_pairs"] == 1_093
    assert len(specs) == 22


def test_red_x_mu_examples(g237, w237):
    M = red_x_mu(g237, w237.parse_word("rt"), K_W237)
    assert M.accepts(w237.parse_word("tr"))
    assert M.accepts(w237.parse_word("rt"))
    assert not M.accepts(w237.parse_word("rsr"))
    M7 = red_x_mu(g237, w237.parse_word("stststs"), K_W237)
    assert M7.accepts(w237.parse_word("stststs"))
    assert M7.accepts(w237.parse_word("tststst"))


def test_red_x_mu_saturates_braid_classes(g237, w237):
    M = red_x_mu(g237, w237.parse_word("rsr"), K_W237)
    for e in g237.ball(8).elements:
        siblings = braid_closure(w237, e.word)
        values = {M.accepts(w) for w in siblings}
        assert len(values) == 1


def test_red_x_mu_matches_closure_oracle(g237, w237):
    pats = [w237.parse_word(x) for x in ("rt", "rsr", "stststs")]
    machines = [red_x_mu(g237, p, K_W237) for p in pats]
    for e in g237.ball(9).elements:
        closure = braid_closure(w237, e.word)
        for pat, M in zip(pats, machines):
            want = any(
                w[i:i + len(pat)] == pat
                for w in closure for i in range(len(w) - len(pat) + 1)
            )
            assert M.accepts(e.word) == want


def test_red_x_mu_stable_in_k(g237, w237):
    pat = w237.parse_word("rsr")
    a = red_x_mu(g237, pat, K_W237)
    b = red_x_mu(g237, pat, K_W237 + 1)
    assert are_equivalent(a, b)


def test_equal_tables_decide_pattern_stability(g237, g2224):
    # red_x_mu reads k only through the identity offset's table: where the
    # tables at k and k + 1 are equal, every pattern machine is equal too,
    # and patterns_stable agrees with comparing the languages at every k
    for g in (g237, g2224):
        patterns = [e.longest_word for e in dihedral_data(g.presentation).entries]
        for k in range(1, 10):
            if word_difference_table(g, k, ()) == word_difference_table(g, k + 1, ()):
                assert all(red_x_mu(g, p, k) == red_x_mu(g, p, k + 1)
                           for p in patterns)
            assert automata.patterns_stable(g, patterns, k) == all(
                are_equivalent(red_x_mu(g, p, k), red_x_mu(g, p, k + 1))
                for p in patterns)
    # w237 at k = 7: the tables differ, but every pattern language is stable,
    # so the language comparison is what answers
    patterns = [e.longest_word for e in dihedral_data(g237.presentation).entries]
    assert [len(word_difference_table(g237, k, ()).accepts) for k in (7, 8)] \
        == [159, 163]
    assert automata.patterns_stable(g237, patterns, 7)


def test_choose_k_builds_no_pattern_machine(w237, w2224, monkeypatch):
    # on a fresh group, choose_k settles k from the word-difference tables
    # alone; build_partition builds no machine, and the first read of the
    # label languages builds one pair machine per pattern
    calls: dict = {}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("equal_endpoint_pairs", "are_equivalent"):
        monkeypatch.setattr(automata, name, counted(getattr(automata, name)))
    for pres, k, machines in ((w237, K_W237, 3), (w2224, K_W2224, 4)):
        group = PolygonGroup(pres)
        calls.clear()
        assert automata.choose_k(group) == k
        assert calls == {}
        part = build_partition(group, k)
        assert calls == {}
        dict(part.languages)
        assert calls == {"equal_endpoint_pairs": machines}


def test_choose_k_reads_no_element_records(w2224, monkeypatch):
    # the cold start of a new group validates k on the balls' flat arrays:
    # no Element record is made and no word index built; read afterwards,
    # the records' descents are the first and last letters of the closures
    from polycell import words

    def refuse(*args):
        raise AssertionError("an Element record was made")

    group = PolygonGroup(w2224)
    monkeypatch.setattr(words, "Element", refuse)
    assert automata.choose_k(group) == K_W2224
    assert sorted(group._balls) == [5, 6, 10]
    assert [b._elements is None and b._index is None
            for b in group._balls.values()] == [True] * 3
    monkeypatch.undo()
    for ball in group._balls.values():
        closures = (braid_closure(w2224, w) for w in ball.words)
        assert [(e.word, e.left, e.right) for e in ball.elements] == [
            (w, {z[0] for z in c if z}, {z[-1] for z in c if z})
            for w, c in zip(ball.words, closures)]
        assert ball.index == {w: i for i, w in enumerate(ball.words)}


def test_inversion_duality(g237, w237):
    pat = w237.parse_word("rs")
    M = red_x_mu(g237, pat, K_W237)
    M_rev = red_x_mu(g237, pat[::-1], K_W237)
    for e in g237.ball(8).elements:
        inv = g237.element(e.word[::-1])
        assert M.accepts(e.word) == M_rev.accepts(inv.word)


def test_left_translate_singletons(g237, w237):
    # Red({w}) from Red({e}) by one step per letter of w, last letter first
    out = epsilon_language(g237.presentation.names)
    word = w237.parse_word("stststs")
    for s in reversed(word):
        out = left_translate(g237, out, s, K_W237)
    assert set(enumerate_words(out, 8)) == braid_closure(w237, word)
    # Red({s}) translated by s collapses to the empty word
    s_only = minimize(_single_word_fsa(g237, (1,)))
    back = left_translate(g237, s_only, 1, K_W237)
    assert set(enumerate_words(back, 4)) == {()}


def _single_word_fsa(group, word):
    return make_dfa(group.presentation.names, len(word) + 1, 0, {len(word)},
                    {(i, s): i + 1 for i, s in enumerate(word)})


def test_validate_k(g237):
    # k validates on a ball when fellow_traveler_constant(group, radius) <= k
    assert fellow_traveler_constant(g237, 6) <= 10  # k >= radius is generous
    assert fellow_traveler_constant(g237, 4) > 0    # braid relation kills k = 0
    assert fellow_traveler_constant(g237, 4) > 1    # rt vs tr needs distance 2
    assert fellow_traveler_constant(g237, 8) <= K_W237
    assert fellow_traveler_constant(g237, 8) > K_W237 - 1


def test_validated_constants(g237, g2224):
    assert fellow_traveler_constant(g237, 10) <= K_W237
    assert fellow_traveler_constant(g2224, 8) <= K_W2224


def _brute_force_constant(group, radius):
    """Fellow-traveler constant the slow way: full normal forms of every
    synchronous difference, over braid closures as reduced expressions."""

    def prefix_differences(alpha, beta):
        d = group.element(())
        worst = 0
        for i in range(max(len(alpha), len(beta))):
            left = (alpha[i],) if i < len(alpha) else ()
            right = (beta[i],) if i < len(beta) else ()
            d = group.element(left + d.word + right)
            worst = max(worst, d.length)
        return worst

    ball = group.ball(radius)
    closures = [sorted(braid_closure(group.presentation, e.word))
                for e in ball.elements]
    worst = 0
    for i, e in enumerate(ball.elements):
        for a, b in itertools.combinations(closures[i], 2):
            worst = max(worst, prefix_differences(a, b))
        for s in range(group.rank):
            j = ball.right_mult[i][s]
            if j is not None and ball.elements[j].length > e.length:
                for a in closures[i]:
                    for b in closures[j]:
                        worst = max(worst, prefix_differences(a, b))
    return worst


def test_fellow_traveler_constant_matches_brute_force(g237, g2224):
    others = [PolygonGroup(presentation_from_angles(angles))
              for angles in ([3, 3, 4], [2, 3, "inf"], [2, 4, "inf", 3])]
    pentagon = PolygonGroup(presentation_from_angles([2, 2, 2, 2, 2]))
    # (3, 4, inf) at radius 12 (3,669 elements) walks far past the others
    g34inf = PolygonGroup(presentation_from_angles([3, 4, "inf"]))
    # constant 4 at radius 5 on both: a walk that steps x only by its least
    # right descent reads 2 on the first, one that steps y so on the second
    second_descent = [PolygonGroup(presentation_from_angles(angles))
                      for angles in ([3, 2, 2, 2], [2, 2, 3, 2])]
    for group, radius in ((g237, 8), (g2224, 6), *((g, 6) for g in others),
                          (pentagon, 5), (g34inf, 12),
                          *((g, 5) for g in second_descent)):
        for r in range(radius + 1):
            assert fellow_traveler_constant(group, r) == \
                _brute_force_constant(group, r)


def test_fellow_traveler_constants_at_radius_10(g237, g2224):
    assert fellow_traveler_constant(g237, 10) == K_W237
    assert fellow_traveler_constant(g2224, 10) == K_W2224


def test_fellow_traveler_constant_grows_at_radius_21(g237, w237):
    # no ball up to radius 20 sees it, but two reduced expressions of one
    # element of length 21 fellow-travel only at distance 8
    assert fellow_traveler_constant(g237, 20) == K_W237
    assert fellow_traveler_constant(g237, 21) == 8
    alpha = w237.parse_word("ststsrtstsrstsrtststs")
    beta = w237.parse_word("tstsrtsrtstsrtsrtstst")
    assert g237.is_reduced(alpha) and g237.is_reduced(beta)
    assert g237.element(alpha) == g237.element(beta)
    differences = [g237.element(alpha[:i][::-1] + beta[:i]).length
                   for i in range(len(alpha) + 1)]
    assert max(differences) == 8


def test_right_descent_class_states(g237):
    # right-descent classes are unions of canonical states (re-selection)
    fsa = right_descent_class_fsa(g237, frozenset({1}))
    for e in g237.ball(7).elements:
        assert fsa.accepts(e.word) == (e.right == frozenset({1}))


def test_nf_transition_counts_elements(g2224):
    counts = count_words(nf_transition_fsa(g2224), 9)
    assert counts == g2224.ball(9).counts
