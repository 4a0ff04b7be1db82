"""Reduced-word automata for polygon groups.

The canonical machine accepts exactly the reduced words, reading left to
right; its state determines the right descent set of the prefix element.
Left-descent information is genuinely not a function of that state (in the
infinite dihedral group, t and st, stst, ... share a state but have
different left descents), so machinery that needs left data - normal-form
counting, descent classes - goes through language reversal, which swaps
the two sides and keeps everything regular.

The pair machine runs a reduced word alpha beside a word beta of a given
language while tracking the group element alpha_i^-1 * offset * beta_i
inside a fixed ball; with a validated fellow-traveler bound its runs are the
equal-endpoint pairs.  It reads only alpha's letters: where beta runs past
the end of alpha, beta's step is an epsilon move, so no pair alphabet is
built and the machine is already the projection to alpha from which
pattern saturation (red_x_mu) and left translation follow.  Once one word
has finished, the difference is the element the other word still has to
spell; both words are reduced, so the machine takes only pad moves that
shorten the difference.  Like every machine of the toolkit it is one
`expand` function handed to `fsa.explore`, which keeps only the states on
an accepting run and raises StateBlowup past `fsa.STATE_CAP` states.

The offset is only ever the identity (saturation) or a generator (one step
of left translation); a longer translator is a chain of one-generator
steps, w * X = s1 * (s2 * (... * X)), as the composite multipliers of an
automatic structure are built (Epstein et al., Word Processing in Groups,
1992, 2.3), so each step's differences stay in a ball of radius k + 1,
whatever the length of w.  `cells._spec_candidates` composes those steps;
nothing here rewrites a word through normal forms.
"""

from __future__ import annotations

from itertools import combinations
from weakref import WeakKeyDictionary

from .errors import BallTooSmall, KNotValidated, PatternNotReduced
from .fsa import (
    FSA,
    are_equivalent,
    explore,
    intersect,
    make_dfa,
    minimize,
    reverse_fsa,
)
from .words import PolygonGroup, Word

MAX_K = 64  # the largest k choose_k tries


def canonical_fsa(group: PolygonGroup) -> FSA:
    """DFA for all reduced words; every state accepting."""
    delta = {}
    for q, row in enumerate(group.transitions):
        for s, t in enumerate(row):
            if t is not None:
                delta[(q, s)] = t
    return make_dfa(group.presentation.names, len(group.transitions), 0,
                    range(len(group.transitions)), delta)


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
    rdesc = group.state_rdesc
    least_edges = [[(s, t) for s, t in enumerate(row)
                    if t is not None and s == min(rdesc[t])]
                   for row in group.transitions]
    return explore(group.presentation.names, 0,
                   lambda q: (True, least_edges[q]), deterministic=True)


def shortlex_fsa(group: PolygonGroup) -> FSA:
    """Minimal DFA for the ShortLex normal-form language itself."""
    return minimize(reverse_fsa(nf_transition_fsa(group)))


def factor_fsa(group: PolygonGroup, pattern: Word) -> FSA:
    """Reduced words containing the pattern as a consecutive factor
    (canonical machine intersected with a failure-function matcher)."""
    pattern = tuple(pattern)
    if not group.is_reduced(pattern):
        raise PatternNotReduced(group.presentation.word_str(pattern))
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


def equal_endpoint_pairs(group: PolygonGroup, B: FSA, offset: Word,
                         k: int) -> FSA:
    """Trimmed NFA over the generators accepting every reduced alpha that
    pairs with some beta in L(B) with endpoint(alpha) = offset *
    endpoint(beta) and every synchronous word difference alpha_i^-1 *
    offset * beta_i of length <= k + |offset|, where the offset is the
    identity () or one generator (s,).  The shorter word pads at
    the end: a step of alpha alone reads its letter, a step of beta alone
    is an epsilon move.  B must be deterministic, and L(B) must hold
    reduced words only.

    Once beta has finished, the difference is the element the rest of alpha
    spells; alpha is reduced, so each pad step of alpha shortens it by one.
    Once alpha has finished, the difference is the inverse of the element
    the rest of beta spells, which shortens on each step because beta is
    reduced.  Pad moves that do not shorten the difference are therefore
    never on an accepting run and are not taken; only moves of both words
    need the radius test.  A B accepting a non-reduced word would lose the
    pairs that pad through it.

    `fsa.explore` builds the machine: it keeps the states on an accepting
    run, in their order of discovery, and raises StateBlowup past
    `fsa.STATE_CAP` interned states."""
    radius = k + len(offset)
    # the intermediate d*y may overshoot by one before x pulls it back
    ball = group.ball(radius + 1)
    right_mult, left_mult, lengths = ball.right_mult, ball.left_mult, ball.lengths
    b_delta, b_acc = B.transitions, B.accepting
    gens = range(group.rank)
    # each side's (letter, target) moves, listed once per state
    canon = [[(x, t) for x, t in enumerate(row) if t is not None]
             for row in group.transitions]
    b_moves = [[(y, t[0]) for y in gens if (t := b_delta.get((q, y)))]
               for q in range(B.n_states)]
    # state = (canonical state, B state, difference index, mode); mode 0 =
    # both words running, 1 = beta finished (so its B state accepts), 2 =
    # alpha finished.  Every canonical state accepts, and ball index 0 is
    # the identity.  The step that enters mode 1 or 2 is a pad move too.

    def expand(state):
        qa, qb, d, mode = state
        qb_acc = qb in b_acc
        ld = lengths[d]
        dy = right_mult[d]  # d * y, by y
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
                    moves.append((-1, (qa, tb, nd, 2)))
        return d == 0 and qb_acc, moves

    return explore(group.presentation.names,
                   (0, B.initial, ball.index[offset], 0), expand)


# pattern machines by group, then by (pattern, k): choose_k and
# build_partition ask for the same ones, and the entries die with the group.
# Callers never mutate an FSA, so the machines are shared as they are.
_pattern_machines: WeakKeyDictionary = WeakKeyDictionary()


def red_x_mu(group: PolygonGroup, pattern: Word, k: int) -> FSA:
    """Minimal DFA for all reduced expressions of elements having some
    reduced expression that contains the pattern as a factor."""
    memo = _pattern_machines.setdefault(group, {})
    key = (tuple(pattern), k)
    if key not in memo:
        memo[key] = minimize(equal_endpoint_pairs(
            group, factor_fsa(group, pattern), (), k))
    return memo[key]


def left_translate(group: PolygonGroup, A: FSA, s: int, k: int) -> FSA:
    """Minimal DFA for Red(s * X), X the element set of A, which must accept
    reduced words only: one pair machine whose offset is the generator s,
    so every word difference lives in a ball of radius k + 1."""
    return minimize(equal_endpoint_pairs(group, A, (s,), k))


# --- fellow-traveler constant ----------------------------------------------


def fellow_traveler_constant(group: PolygonGroup, radius: int) -> int:
    """Largest synchronous difference |alpha_i^-1 beta_i|, the shorter word
    padded at the end, over (a) two reduced expressions of one element and
    (b) reduced expressions of w and a longer ws, all in the ball.

    A pair alpha.t, beta.t of one element has the differences of (alpha,
    beta), then e.  A pair (alpha, beta.t) of family (b) has the differences
    of (alpha, beta), then s, and alpha.s, beta.t reduce z = ws.  So only
    (alpha, beta) with alpha.s, beta.t in Red(z) and s != t are needed, from
    the floor 1.  alpha and beta range over Red(zs) and Red(zt)
    independently, so their length-i prefixes are exactly the pairs of
    length-i elements below zs and zt in the right weak order, and the
    difference depends only on the pair of prefix elements (Epstein et al.,
    Word Processing in Groups, 1992, ch. 2).  The walk therefore visits
    pairs of elements, not of words: from (zs, zt), with difference st, it
    steps down to (xa, yb) for right descents a of x and b of y, with
    difference a.d.b, and visits each pair once.  Through e or through z,
    each difference and each intermediate product has length at most |z| <=
    radius, so the walk over ball indices never leaves the ball."""
    ball = group.ball(radius)
    elements, right_mult, left_mult = ball.elements, ball.right_mult, ball.left_mult
    lengths = ball.lengths
    worst = min(radius, 1)
    seen: set[tuple[int, int]] = set()
    stack: list[tuple[int, int, int]] = []
    try:
        for z, e in enumerate(elements):
            for s, t in combinations(sorted(e.right), 2):
                pair = (right_mult[z][s], right_mult[z][t])
                seen.add(pair)
                stack.append((*pair, right_mult[right_mult[0][s]][t]))
        while stack:
            x, y, d = stack.pop()
            if lengths[d] > worst:
                worst = lengths[d]
            for a in elements[x].right:
                xa = right_mult[x][a]
                for b in elements[y].right:
                    pair = (xa, right_mult[y][b])
                    if pair not in seen:
                        seen.add(pair)
                        stack.append((*pair, left_mult[right_mult[d][b]][a]))
    except TypeError as exc:  # a None step: the length bound above broke
        raise BallTooSmall(f"fellow-traveler validation: a word difference "
                           f"left ball({radius})") from exc
    return worst


def choose_k(group: PolygonGroup, radius: int = 10) -> int:
    """Smallest k at least the fellow-traveler constant of the ball for which
    every dihedral pattern language is stable against k+1."""
    from .cells import dihedral_data

    data = dihedral_data(group.presentation)
    patterns = [entry.longest_word for entry in data.entries]
    constant = fellow_traveler_constant(group, radius)
    for k in range(max(1, constant), MAX_K + 1):
        if all(are_equivalent(red_x_mu(group, p, k), red_x_mu(group, p, k + 1))
               for p in patterns):
            return k
    raise KNotValidated(
        f"no k <= {MAX_K} leaves the pattern languages stable; "
        f"fellow-traveler constant at radius {radius} is {constant}")
