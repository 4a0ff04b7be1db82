"""Reduced-word automata for polygon groups.

The canonical machine accepts exactly the reduced words, reading left to
right; its state determines the right descent set of the prefix element.
Left-descent information is genuinely not a function of that state (in the
infinite dihedral group, t and st, stst, ... share a state but have
different left descents), so machinery that needs left data - normal-form
counting, descent classes - goes through language reversal, which swaps
the two sides and keeps everything regular.

Pair machines read padded word pairs while tracking the group element
alpha_i^-1 * offset * beta_i inside a fixed ball; with a validated
fellow-traveler bound they recognize equal-endpoint pairs, from which
pattern saturation (red_x_mu) and left translation follow by projection.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import BallTooSmall, KNotValidated, PatternNotReduced, ResourceLimit
from .fsa import (
    FSA,
    are_equivalent,
    intersect,
    make_dfa,
    minimize,
    reverse_fsa,
    trim_fsa,
)
from .words import Element, ElementBall, PolygonGroup, Word

PAD = "-"


def canonical_fsa(group: PolygonGroup) -> FSA:
    """DFA for all reduced words; every state accepting."""
    delta = {}
    for q, row in enumerate(group.transitions):
        for s, t in enumerate(row):
            if t is not None:
                delta[(q, s)] = t
    out = make_dfa(group.presentation.names, len(group.transitions), 0,
                   range(len(group.transitions)), delta)
    out.trim = True
    return out


def right_descent_class_fsa(group: PolygonGroup, T: frozenset[int]) -> FSA:
    """Reduced words of elements with right descent set exactly T, by
    re-selecting accepting states of the canonical machine."""
    base = canonical_fsa(group)
    accepting = frozenset(
        q for q in range(base.n_states) if group.state_rdesc[q] == T
    )
    out = make_dfa(base.alphabet, base.n_states, base.initial, accepting,
                   {k: v[0] for k, v in base.transitions.items()})
    return minimize(out)


def nf_transition_fsa(group: PolygonGroup) -> FSA:
    """DFA whose accepted words are the reversed ShortLex normal forms: keep
    a canonical edge only when its letter is the least right descent of the
    target state.  Path counts by length equal element counts by length."""
    base = canonical_fsa(group)
    delta = {}
    for (q, s), (t,) in base.transitions.items():
        if s == min(group.state_rdesc[t]):
            delta[(q, s)] = t
    out = make_dfa(base.alphabet, base.n_states, base.initial,
                   range(base.n_states), delta)
    return trim_fsa(out)


def shortlex_fsa(group: PolygonGroup) -> FSA:
    """Minimal DFA for the ShortLex normal-form language itself."""
    return minimize(reverse_fsa(nf_transition_fsa(group)))


def element_counts(group: PolygonGroup, max_len: int) -> list[int]:
    from .fsa import count_words

    return count_words(nf_transition_fsa(group), max_len)


def factor_fsa(group: PolygonGroup, pattern: Word) -> FSA:
    """Reduced words containing the pattern as a consecutive factor
    (canonical machine intersected with a failure-function matcher)."""
    pattern = tuple(pattern)
    if not group.is_reduced(pattern):
        raise PatternNotReduced(group.word_str(pattern))
    base = canonical_fsa(group)
    if not pattern:
        return base
    m = len(pattern)
    fail = [0] * (m + 1)
    fail[0] = -1
    for i in range(1, m + 1):
        f = fail[i - 1]
        while f != -1 and pattern[f] != pattern[i - 1]:
            f = fail[f]
        fail[i] = f + 1
    delta = {}
    for q in range(m):
        for s in range(group.rank):
            f = q
            while f != -1 and pattern[f] != s:
                f = fail[f]
            delta[(q, s)] = f + 1
    for s in range(group.rank):
        delta[(m, s)] = m  # absorbing once matched
    matcher = make_dfa(base.alphabet, m + 1, 0, {m}, delta)
    return intersect(base, matcher)


def pair_alphabet(names) -> tuple[str, ...]:
    syms = [f"{x}|{y}" for x in names for y in names]
    syms += [f"{x}|{PAD}" for x in names]
    syms += [f"{PAD}|{y}" for y in names]
    return tuple(syms)


def equal_endpoint_pairs(
    group: PolygonGroup,
    A: FSA,
    B: FSA,
    k: int,
    offset: Element | None = None,
    diff_radius: int | None = None,
) -> FSA:
    """Automaton over padded pair symbols accepting (alpha, beta) with
    alpha in L(A), beta in L(B), endpoint(alpha) = offset * endpoint(beta),
    and every synchronous word difference alpha_i^-1 * offset * beta_i of
    length <= diff_radius (default k).  The shorter word pads at the end;
    (pad, pad) never occurs."""
    if offset is None:
        offset = group.identity
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
        return FSA(alphabet, 1, 0, frozenset(), {}, deterministic=True)
    lengths = [e.length for e in ball.elements]

    def diff_step(d: int, x: int | None, y: int | None) -> int | None:
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
    transitions: dict[tuple[int, int], tuple[int, ...]] = {}
    accepting: set[int] = set()

    def intern(key) -> int:
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
        moves: list[tuple[int, tuple]] = []
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
            j = intern(key)
            prev = transitions.get((i, code), ())
            transitions[(i, code)] = prev + (j,)
        i += 1

    det = all(len(v) == 1 for v in transitions.values())
    out = FSA(alphabet, len(order), 0, frozenset(accepting), transitions,
              deterministic=det)
    return trim_fsa(out)


def project_first(pairs: FSA, names) -> FSA:
    """Erase the right coordinate of every pair symbol: (x|y) and (x|-)
    read as x, (-|y) becomes an epsilon move.  Output is an NFA over the
    generator alphabet."""
    names = tuple(names)
    sidx = {name: i for i, name in enumerate(names)}
    transitions: dict[tuple[int, int], list[int]] = {}
    eps: dict[int, list[int]] = {}
    for q, s, t in pairs.edges():
        left = pairs.alphabet[s].split("|")[0]
        if left == PAD:
            eps.setdefault(q, []).append(t)
        else:
            transitions.setdefault((q, sidx[left]), []).append(t)
    return FSA(
        alphabet=names,
        n_states=pairs.n_states,
        initial=pairs.initial,
        accepting=pairs.accepting,
        transitions={k: tuple(sorted(set(v))) for k, v in transitions.items()},
        eps={k: tuple(sorted(set(v))) for k, v in eps.items()},
        deterministic=False,
    )


def red_x_mu(group: PolygonGroup, pattern: Word, k: int) -> FSA:
    """Minimal DFA for all reduced expressions of elements having some
    reduced expression that contains the pattern as a factor."""
    pattern = tuple(pattern)
    base = canonical_fsa(group)
    with_factor = factor_fsa(group, pattern)
    pairs = equal_endpoint_pairs(group, base, with_factor, k)
    return minimize(project_first(pairs, group.presentation.names))


def left_translate(group: PolygonGroup, A: FSA, w: Element, k: int) -> FSA:
    """Minimal DFA for Red(w * X) where X is the element set of A; word
    differences for the offset pair machine live in a ball of radius
    k + length(w)."""
    base = canonical_fsa(group)
    pairs = equal_endpoint_pairs(group, base, A, k, offset=w,
                                 diff_radius=k + w.length)
    return minimize(project_first(pairs, group.presentation.names))


# --- fellow-traveler constant ----------------------------------------------


def reduced_expressions(ball: ElementBall, cap: int = 1_000_000) -> list[list[Word]]:
    """Reduced expressions of every ball element, by index, from the Cayley
    edges: Red(w) is the union of Red(ws).s over right descents s."""
    red: list[list[Word]] = [[()]]
    for i in range(1, len(ball)):
        red.append([r + (s,) for s in sorted(ball.elements[i].right)
                    for r in red[ball.right_mult[i][s]]])
        if len(red[i]) > cap:
            raise ResourceLimit(f"fellow-traveler validation: an element has "
                                f"more than {cap} reduced expressions")
    return red


def fellow_traveler_constant(group: PolygonGroup, radius: int) -> int:
    """Largest synchronous difference |alpha_i^-1 beta_i|, the shorter word
    padded at the end, over (a) two reduced expressions of one element and
    (b) reduced expressions of w and a longer ws, all in the ball.

    A pair alpha.t, beta.t of one element has the differences of (alpha,
    beta), then e.  A pair (alpha, beta.t) of family (b) has the differences
    of (alpha, beta), then s, and alpha.s, beta.t reduce z = ws.  So only
    (alpha, beta) with alpha.s, beta.t in Red(z) and s != t are walked, from
    the floor 1.  Through e or through z, each difference and each
    intermediate alpha_i^-1 beta_(i+1) has length at most |z| <= radius, so
    the walk over ball indices never leaves the ball."""
    ball = group.ball(radius)
    red = reduced_expressions(ball)
    right_mult, left_mult = ball.right_mult, ball.left_mult
    lengths = [e.length for e in ball.elements]
    worst = min(radius, 1)
    try:
        for z, e in enumerate(ball.elements):
            for s, t in combinations(sorted(e.right), 2):
                for alpha, beta in product(red[right_mult[z][s]], red[right_mult[z][t]]):
                    d = 0
                    for x, y in zip(alpha, beta):
                        d = left_mult[right_mult[d][y]][x]
                        if lengths[d] > worst:
                            worst = lengths[d]
    except TypeError as exc:  # a None step: the length bound above broke
        raise BallTooSmall(f"fellow-traveler validation: a word difference "
                           f"left ball({radius})") from exc
    return worst


def validate_k(group: PolygonGroup, k: int, radius: int) -> bool:
    """Exhaustive fellow-traveler check of k on the ball of the radius."""
    return fellow_traveler_constant(group, radius) <= k


def choose_k(group: PolygonGroup, radius: int = 10, max_k: int = 64) -> int:
    """Smallest k at least the fellow-traveler constant of the ball for which
    every dihedral pattern language is stable against k+1."""
    from .cells import dihedral_data

    data = dihedral_data(group.presentation)
    patterns = [entry.longest_word for entry in data.entries]
    constant = fellow_traveler_constant(group, radius)
    for k in range(max(1, constant), max_k + 1):
        if all(are_equivalent(red_x_mu(group, p, k), red_x_mu(group, p, k + 1))
               for p in patterns):
            return k
    raise KNotValidated(
        f"no k <= {max_k} leaves the pattern languages stable; "
        f"fellow-traveler constant at radius {radius} is {constant}")
