import pytest

from polycell import verify
from polycell.automata import canonical_fsa, red_x_mu
from polycell.cells import (
    LABEL_ID,
    LABEL_ZERO,
    ConjecturalPartition,
    _spec_candidates,
    build_partition,
    descent_class_fsa,
    dihedral_data,
    level_label,
    omega_elements,
    omega_minimal,
    partition_is_exact,
    u_t_fsa,
    valid_descent_classes,
)
from polycell.errors import InvalidDescentClass, NoFiniteVertex
from polycell.kl import KLTable, empirical_cells
from polycell.fsa import (
    FSA,
    are_equivalent,
    count_words,
    difference,
    enumerate_words,
    epsilon_language,
    intersect,
    is_empty,
    is_subset,
    minimize,
    reverse,
    union,
)
from polycell.oracle import braid_closure, oracle_classify
from polycell.presentation import presentation_from_angles
from polycell.words import PolygonGroup
from tests.conftest import K_W237, K_W2224, assert_translates_match_balls


def test_dihedral_data_w237(w237):
    data = dihedral_data(w237)
    words = [w237.word_str(e.longest_word) for e in data.entries]
    assert words == ["rt", "rsr", "stststs"]
    assert data.levels == (2, 3, 7)
    assert data.predicted_cell_count == 5


def test_dihedral_data_w2224(w2224):
    data = dihedral_data(w2224)
    assert sorted(2 * e.order for e in data.entries) == [4, 4, 4, 8]
    assert data.levels == (2, 4)
    assert data.predicted_cell_count == 4


def test_dihedral_data_needs_finite_vertex():
    with pytest.raises(NoFiniteVertex):
        dihedral_data(presentation_from_angles(["inf"] * 3))


def test_longest_words_are_shortlex_least(w2224):
    data = dihedral_data(w2224)
    for e in data.entries:
        s, t = e.pair
        assert s < t
        assert e.longest_word[0] == s
        assert len(e.longest_word) == e.order


def _classify_by_language(part, e):
    """The label whose language accepts e's normal word."""
    for label in part.labels:
        if part.languages[label].accepts(e.word):
            return label
    raise AssertionError(f"partition does not cover {e.word}")


def test_classify_examples(part237, g237, w237):
    cases = {
        "": LABEL_ID,
        "r": LABEL_ZERO,
        "rs": LABEL_ZERO,
        "rst": LABEL_ZERO,
        "rt": "c1",
        "tr": "c1",
        "rsr": "c2",
        "stststs": "c3",
        "tststst": "c3",
    }
    for txt, want in cases.items():
        e = g237.element(w237.parse_word(txt))
        assert part237.classify(e) == want
        assert _classify_by_language(part237, e) == want


def test_srt_has_two_expressions_hence_c1(part237, g237, w237):
    # srt rewrites to str through the commuting pair, so it carries the
    # rt pattern; the rigid class keeps words like rst instead
    e = g237.element(w237.parse_word("srt"))
    assert braid_closure(w237, e.word) == {(1, 0, 2), (1, 2, 0)}
    assert part237.classify(e) == "c1"
    assert oracle_classify(w237, e.word, part237.data) == "c1"


def _eager_languages(group, k):
    """Every label language built up front, the level unions left
    unminimized: the reference for the partition's on-demand build."""
    data = dihedral_data(group.presentation)
    languages = {}
    higher = None
    for i in range(data.m, 0, -1):
        level = None
        for entry in data.pairs_at_level(i):
            m = red_x_mu(group, entry.longest_word, k)
            level = m if level is None else union(level, m)
        if higher is not None:
            level = difference(level, higher)
        languages[level_label(i)] = minimize(level)
        higher = level if higher is None else union(higher, level)
    eps = epsilon_language(group.presentation.names)
    languages[LABEL_ID] = eps
    languages[LABEL_ZERO] = minimize(difference(canonical_fsa(group),
                                                union(eps, higher)))
    return languages


def test_languages_built_on_demand_match_the_eager_build(w237, w2224):
    # on fresh groups, read in label order and in reverse: the same
    # minimal DFAs, state for state, as building every language up front
    for pres, k in ((w237, K_W237), (w2224, K_W2224)):
        group = PolygonGroup(pres)
        want = _eager_languages(group, k)
        forward = build_partition(group, k)
        assert list(forward.languages) == forward.labels
        assert sorted(want) == sorted(forward.labels)
        assert all(forward.languages[label] == want[label]
                   for label in forward.labels)
        backward = build_partition(group, k)
        assert all(backward.languages[label] == want[label]
                   for label in reversed(backward.labels))
    with pytest.raises(KeyError):
        forward.languages["c9"]
    assert "c9" not in forward.languages


def test_partition_exact(part237, part2224):
    assert partition_is_exact(part237)
    assert partition_is_exact(part2224)


def test_inversion_closed_fails_on_a_dropped_accepting_state(part237, part2224):
    for part, labels in ((part237, ("c1", "c2", "c3")), (part2224, ("c1", "c2"))):
        assert verify.inversion_closed(part).ok
        for label in labels:
            fsa = part.languages[label]
            for q in fsa.accepting:
                mutant = FSA(fsa.alphabet, fsa.n_states, fsa.initial,
                             fsa.accepting - {q}, fsa.transitions)
                broken = ConjecturalPartition(
                    part.group, part.data, part.k,
                    {**part.languages, label: mutant})
                check = verify.inversion_closed(broken)
                assert not check.ok
                assert check.detail.endswith(f": {label}")


@pytest.mark.parametrize("part, radius, size",
                         [("part237", 12, 27), ("part2224", 9, 286)])
def test_c0_is_joined_by_mutual_near_edges(request, part, radius, size):
    """The c0 certificate: each element of c0 is joined to a generator by
    mutual near edges inside c0, y = xs > x with D_R(x) not in D_R(y) or
    y = sx > x with D_L(x) not in D_L(y), and non-commuting generators
    through st, so c0 lies in one two-sided cell at every length.  On the
    ball: one component under those edges, inside one empirical class."""
    part = request.getfixturevalue(part)
    ball = part.group.ball(radius)
    elements, lengths = ball.elements, ball.lengths
    c0 = {i for i, e in enumerate(elements) if part.classify(e) == LABEL_ZERO}
    assert len(c0) == size
    near: dict[int, set[int]] = {x: set() for x in c0}
    for x in c0:
        for mult, side in ((ball.right_mult, "right"), (ball.left_mult, "left")):
            for y in mult[x]:
                if (y in c0 and lengths[y] > lengths[x]
                        and not getattr(elements[x], side) <= getattr(elements[y], side)):
                    near[x].add(y)
                    near[y].add(x)
    start = min(c0)
    seen, stack = {start}, [start]
    while stack:
        for y in near[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    assert seen == c0
    two_sided = empirical_cells(KLTable(part.group, ball))[2]
    assert any(c0 <= set(cell) for cell in two_sided)


def test_partition_matches_oracle_on_ball(part2224, g2224):
    assert verify.oracle_classification(part2224, g2224.ball(7)).ok


def test_level_exclusivity(part237, g237):
    # a level-i element is accepted by some level-i pattern machine and by
    # no higher-level machine
    data = part237.data
    for e in g237.ball(9).elements:
        label = part237.classify(e)
        if not label.startswith("c") or label in (LABEL_ZERO, LABEL_ID):
            continue
        i = int(label[1:])
        hits = [
            lvl
            for lvl in range(1, data.m + 1)
            for entry in data.pairs_at_level(lvl)
            if red_x_mu(g237, entry.longest_word, part237.k).accepts(e.word)
        ]
        assert max(hits) == i


def test_zero_class_is_unique_expression(part237, g237, w237):
    for e in g237.ball(9).elements:
        label = part237.classify(e)
        size = len(braid_closure(w237, e.word))
        if label == LABEL_ZERO:
            assert size == 1
        elif label not in (LABEL_ID,):
            assert size >= 2


def test_descent_classes(g237, w237):
    empty = descent_class_fsa(g237, frozenset())
    assert list(enumerate_words(empty, 4)) == [()]
    for T in valid_descent_classes(w237):
        fsa = descent_class_fsa(g237, T)
        for e in g237.ball(8).elements:
            assert fsa.accepts(e.word) == (e.left == T)


def test_descent_classes_partition_reduced_words(g237):
    from polycell.automata import canonical_fsa

    total = None
    for T in valid_descent_classes(g237.presentation):
        fsa = descent_class_fsa(g237, T)
        total = fsa if total is None else union(total, fsa)
    assert are_equivalent(total, canonical_fsa(g237))


def test_invalid_descent_class(g237, g2224):
    with pytest.raises(InvalidDescentClass):
        descent_class_fsa(g237, frozenset({0, 1, 2}))
    with pytest.raises(InvalidDescentClass):
        # opposite quadrilateral sides never bound a common vertex
        descent_class_fsa(g2224, frozenset({0, 2}))


def test_u_t_top_level_equals_descent_class(part237, g237):
    U = u_t_fsa(part237, (1, 2))
    W_T = descent_class_fsa(g237, frozenset({1, 2}))
    assert are_equivalent(U, W_T)
    assert U.accepts(g237.presentation.parse_word("stststs"))


def test_u_t_lower_level_subtracts_higher_cells(part237, g237):
    U = u_t_fsa(part237, (0, 2))  # the rt vertex, level 1
    for e in g237.ball(8).elements:
        in_ut = U.accepts(e.word)
        if in_ut:
            assert e.left == frozenset({0, 2})
            assert part237.classify(e) == "c1"
        else:
            assert e.left != frozenset({0, 2}) or part237.classify(e) != "c1"


def test_omega_contains_identity(part237):
    oms = omega_elements(part237, (1, 2), u_t_fsa(part237, (1, 2)), radius=10)
    assert oms[0] == ()
    assert len(oms) >= 2


def _ball_scan_translators(part, pair, ut, radius):
    """The translators the slow way: w^-1 w_T through normal forms for every
    w of U^T in ball(radius), deduplicated and sorted by (length, word)."""
    group = part.group
    w_t = group.element(next(e.longest_word for e in part.data.entries
                             if e.pair == pair))
    found = {group.element(e.word[::-1] + w_t.word).word
             for e in group.ball(radius).elements if ut.accepts(e.word)}
    return sorted(found, key=lambda w: (len(w), w))


def test_translators_match_ball_scan(part237, part2224):
    # every pair of every level, at two radii and at one radius below |w_T|
    for part, radii in ((part237, (10, 12)), (part2224, (6, 8))):
        for entry in part.data.entries:
            ut = u_t_fsa(part, entry.pair)
            for radius in (len(entry.longest_word) - 1, *radii):
                got = omega_elements(part, entry.pair, ut, radius)
                assert got == _ball_scan_translators(part, entry.pair, ut, radius)
                assert (got == []) == (radius < len(entry.longest_word))
                # suffix-closed: _spec_candidates translates each from its suffix
                assert all(w[1:] in got for w in got if w)


def test_omega_minimal_top_level(part237, g237, w237):
    specs = omega_minimal(part237, 3, radius=12, k=K_W237)
    translators = [w237.word_str(sp.translator) for sp in specs]
    assert translators[0] == ""  # identity translator survives
    # pairwise disjoint languages after minimal filtering
    for i, a in enumerate(specs):
        for b in specs[i + 1:]:
            assert is_empty(intersect(a.language, b.language))
    # non-minimal candidates are swallowed: every omega translate lands
    # inside the union of the kept ones, up to the discovery horizon
    u = None
    for sp in specs:
        u = sp.language if u is None else union(u, sp.language)
    assert is_subset(u, part237.languages["c3"])
    missing = difference(part237.languages["c3"], u)
    counts = count_words(missing, 10)
    assert counts == [0] * 11


def test_identity_spec_language_is_ut(part237):
    specs = omega_minimal(part237, 3, radius=10, k=K_W237)
    first = specs[0]
    assert first.translator == ()
    assert are_equivalent(first.language, u_t_fsa(part237, first.pair))


def test_specs_subset_of_their_cell(part2224, g2224):
    specs = omega_minimal(part2224, 2, radius=8, k=K_W2224)
    for sp in specs:
        assert is_subset(sp.language, part2224.languages["c2"])


def test_left_cells_by_reversal(part237, g237, w237):
    specs = omega_minimal(part237, 3, radius=10, k=K_W237)
    # right cells reflect to left cells by word reversal (inverse elements)
    lang = minimize(reverse(specs[0].language))
    # reversed language consists of inverses: closed under braid moves
    for w in enumerate_words(lang, 9):
        for sibling in braid_closure(w237, w):
            assert lang.accepts(sibling)


def test_brute_force_translate_membership(part237):
    specs = omega_minimal(part237, 3, radius=12, k=K_W237)
    assert_translates_match_balls(part237, specs[:4], 10)


def test_brute_force_translate_membership_w2224(part2224):
    # every spec of the benchmark's onesided path: a translate built by
    # one-generator steps is w * U^T itself
    specs = omega_minimal(part2224, 2, radius=8, k=K_W2224)
    assert_translates_match_balls(part2224, specs, 6)


# the one-sided levels of both groups: (partition, level, radius, specs kept)
ONESIDED_LEVELS = [("part237", 1, 12, 8), ("part237", 2, 12, 11),
                   ("part237", 3, 12, 7), ("part2224", 1, 8, 43),
                   ("part2224", 2, 8, 22)]


def _minimal_by_containment(part, i, radius, k):
    """omega_minimal with a containment walk against every kept spec: the
    reference for the witness-word rule."""
    cands = _spec_candidates(part, i, radius, k)
    cands.sort(key=lambda c: (len(c.translator), c.translator, c.pair))
    kept = []
    for cand in cands:
        if not any(is_subset(cand.language, other.language) for other in kept):
            kept.append(cand)
    return kept


@pytest.mark.parametrize("part, level, radius, size", ONESIDED_LEVELS)
def test_witness_word_keeps_what_containment_keeps(request, part, level,
                                                   radius, size):
    part = request.getfixturevalue(part)
    got = omega_minimal(part, level, radius, part.k)
    want = _minimal_by_containment(part, level, radius, part.k)
    assert len(got) == size
    assert [(s.translator, s.pair) for s in got] \
        == [(s.translator, s.pair) for s in want]
    assert all(a.language == b.language for a, b in zip(got, want))


def test_each_spec_meets_one_left_descent_class(part237, part2224):
    """Each right cell has one left-descent set (Kazhdan-Lusztig 1979,
    Prop. 2.4), so each spec language must meet exactly one descent class,
    at every length."""
    parts = {"part237": part237, "part2224": part2224}
    classes = {name: [descent_class_fsa(part.group, T) for T in
                      valid_descent_classes(part.group.presentation)]
               for name, part in parts.items()}
    for name, level, radius, size in ONESIDED_LEVELS:
        part = parts[name]
        specs = omega_minimal(part, level, radius, part.k)
        assert len(specs) == size
        for spec in specs:
            met = [not is_empty(intersect(spec.language, fsa))
                   for fsa in classes[name]]
            assert sum(met) == 1, (name, level, spec.translator)
