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
the end of alpha, beta's steps read no letter and are folded into
acceptance, so no pair alphabet is built and the machine is already the
projection to alpha from which pattern saturation (red_x_mu) and left
translation follow.  Once one word has finished, the difference is the element the
other word still has to spell; both words are reduced, so the machine
takes only pad moves that shorten the difference.

What does not depend on beta's language is computed once: the
word-difference table (the word-difference machine of Epstein et al.,
Word Processing in Groups, 1992, ch. 2) holds the states (alpha's
canonical state, difference, mode) on an accepting run of the pair machine
of Red(W) with itself, and the moves (x, y) between them.  It is cached per
group, k and offset length, and `fsa.search` builds it.  A pair machine is
the product of that table with beta's machine, handed to
`fsa.minimal_dfa`: one subset search over its pair states, then the one
partition refinement, so the minimal DFA comes straight from the table.
Both raise StateBlowup past `fsa.STATE_CAP` states.  A pattern machine
reads k only through the identity offset's table, so `choose_k` compares
the tables at k and k + 1 first, and builds and compares the pattern
languages only where the tables differ.

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
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .errors import BallTooSmall, KNotValidated, PatternNotReduced
from .fsa import (
    FSA,
    are_equivalent,
    empty_language,
    explore,
    intersect,
    make_dfa,
    minimal_dfa,
    minimize,
    reverse,
    search,
)
from .words import PolygonGroup, Word

MAX_K = 64  # the largest k choose_k tries
VALIDATION_RADIUS = 10  # the ball a k is validated on


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
    return minimize(make_dfa(base.alphabet, base.n_states, base.initial,
                             accepting, base.transitions))


def nf_transition_fsa(group: PolygonGroup) -> FSA:
    """DFA whose accepted words are the reversed ShortLex normal forms: keep
    a canonical edge only when its letter is the least right descent of the
    target state.  Path counts by length equal element counts by length."""
    rdesc = group.state_rdesc
    least_edges = [[(s, t) for s, t in enumerate(row)
                    if t is not None and s == min(rdesc[t])]
                   for row in group.transitions]
    return explore(group.presentation.names, 0, lambda q: (True, least_edges[q]))


def shortlex_fsa(group: PolygonGroup) -> FSA:
    """Minimal DFA for the ShortLex normal-form language itself."""
    return reverse(nf_transition_fsa(group))


def factor_fsa(group: PolygonGroup, pattern: Word) -> FSA:
    """Reduced words containing the pattern as a consecutive factor
    (canonical machine intersected with a failure-function matcher)."""
    pattern = tuple(pattern)
    base = canonical_fsa(group)
    if not base.accepts(pattern):
        raise PatternNotReduced(group.presentation.word_str(pattern))
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


class WordDifferenceTable(NamedTuple):
    """A word-difference machine: the states (alpha's canonical state,
    difference, mode) on an accepting run of the pair machine of Red(W)
    with itself, numbered from 0, and the moves between them."""

    starts: dict[Word, int]  # offset -> its state, if a run from it accepts
    accepts: list[bool]  # the difference is the identity
    # by state: (x, ((y, target) of the moves of both words), target of the
    # pad move of alpha alone or None), by x
    alpha_moves: list[list[tuple[int, tuple[tuple[int, int], ...], int | None]]]
    beta_moves: list[tuple[tuple[int, int], ...]]  # (y, target) of beta alone


# word-difference tables by group, then by (k, offset length): the identity
# offset has one table at radius k, and the generators share one at radius
# k + 1, since the runs from different generators soon meet the same states.
_difference_tables: WeakKeyDictionary = WeakKeyDictionary()


def word_difference_table(group: PolygonGroup, k: int,
                          offset: Word) -> WordDifferenceTable:
    """The pair machine of Red(W) with itself, as equal_endpoint_pairs
    describes it, searched from the offset (and from every other offset of
    its length) and projected to (alpha's canonical state, difference,
    mode) after its trim: a move (x, y) joins two such states when some
    move between two live pair states does, y None for a pad move of
    alpha, x None for a step of beta alone.  Beta's canonical state is not
    kept, and once beta has finished it is not searched either.  Cached
    per (group, k, offset length); `fsa.search` builds it, so it stops at
    `fsa.STATE_CAP` states too."""
    memo = _difference_tables.setdefault(group, {})
    key = (k, len(offset))
    if key in memo:
        return memo[key]
    radius = k + len(offset)
    # the intermediate d*y may overshoot by one before x pulls it back
    ball = group.ball(radius + 1)
    right_mult, left_mult, lengths = ball.right_mult, ball.left_mult, ball.lengths
    canon = [[(x, t) for x, t in enumerate(row) if t is not None]
             for row in group.transitions]
    offsets = [(s,) for s in range(group.rank)] if offset else [()]

    # state = (alpha's canonical state, beta's, difference index, mode);
    # mode 0 = both words running, 1 = beta finished (its state is then
    # None), 2 = alpha finished.  Ball index 0 is the identity, and
    # right_mult[0][s] the generator s.
    def expand(state):
        qa, qb, d, mode = state
        ld = lengths[d]
        dy = right_mult[d]  # d * y, by y
        moves = []
        if mode != 2:
            both = canon[qb] if mode == 0 else ()
            pad = left_mult[d]
            for x, ta in canon[qa]:
                for y, tb in both:
                    nd = left_mult[dy[y]][x]
                    if nd is not None and lengths[nd] <= radius:
                        moves.append(((x, y), (ta, tb, nd, 0)))
                nd = pad[x]
                if lengths[nd] < ld:
                    moves.append(((x, None), (ta, None, nd, 1)))
        if mode != 1:
            for y, tb in canon[qb]:
                nd = dy[y]
                if lengths[nd] < ld:
                    moves.append(((None, y), (qa, tb, nd, 2)))
        return d == 0, moves

    keys, rows, _, live = search(
        [(0, 0, right_mult[0][o[0]] if o else 0, 0) for o in offsets], expand)
    number: dict[tuple[int, int, int], int] = {}  # (qa, d, mode) -> state
    of = []  # live pair state -> its state
    for i, (qa, _, d, mode) in enumerate(keys):
        of.append(number.setdefault((qa, d, mode), len(number))
                  if live[i] else None)
    both: list[dict] = [{} for _ in number]
    pads: list[dict] = [{} for _ in number]
    betas: list[dict] = [{} for _ in number]
    for i, row in enumerate(rows):
        if live[i]:
            t = of[i]
            for (x, y), j in row:
                if live[j]:
                    if y is None:
                        pads[t][x] = of[j]
                    elif x is None:
                        betas[t][y] = of[j]
                    else:
                        both[t].setdefault(x, {})[y] = of[j]
    memo[key] = table = WordDifferenceTable(
        starts={o: of[i] for i, o in enumerate(offsets) if live[i]},
        accepts=[d == 0 for _, d, _ in number],
        alpha_moves=[[(x, tuple(sorted(both[t].get(x, {}).items())),
                       pads[t].get(x)) for x in sorted({*both[t], *pads[t]})]
                     for t in range(len(number))],
        beta_moves=[tuple(sorted(b.items())) for b in betas],
    )
    return table


def equal_endpoint_pairs(group: PolygonGroup, B: FSA, offset: Word,
                         k: int) -> FSA:
    """Minimal DFA over the generators accepting every reduced alpha that
    pairs with some beta in L(B) with endpoint(alpha) = offset *
    endpoint(beta) and every synchronous word difference alpha_i^-1 *
    offset * beta_i of length <= k + |offset|, where the offset is the
    identity () or one generator (s,).  The shorter word pads at the end.
    L(B) must hold reduced words only.

    The full pair machine's states are (alpha's canonical state, B's
    state, difference, mode), mode 0 while both words run, 1 once beta has
    finished (B's state then accepts), 2 once alpha has.  Once either word
    has finished, the difference is what the rest of the other spells, so
    each pad step shortens it, and only moves of both words need the
    radius test.  The states searched are the (table state, B state) of
    its product with word_difference_table(group, k, offset), as ints.
    Every accepting run for (alpha, beta) projects onto the table's runs,
    beta being reduced, so only dead states are skipped; a B accepting a
    non-reduced word would lose the pairs that run through it.  Steps of
    beta alone read no letter of alpha, so each state is closed under
    them once: it accepts if they lead to an accepting state.
    `fsa.minimal_dfa` turns the product into its minimal DFA."""
    starts, accepts, alpha_moves, beta_moves = \
        word_difference_table(group, k, offset)
    if offset not in starts:
        return empty_language(group.presentation.names)
    b_delta, b_acc, n = B.transitions, B.accepting, B.n_states
    b_next = [[b_delta.get((q, y)) for y in range(group.rank)]
              for q in range(n)]
    ends: dict[int, bool] = {}

    def beta_ends(t, qb):
        # whether steps of beta alone lead from (t, qb) to an accepting pair
        done = ends.get(t * n + qb)
        if done is None:
            nb = b_next[qb]
            done = ends[t * n + qb] = (accepts[t] and qb in b_acc) or any(
                nb[y] is not None and beta_ends(u, nb[y])
                for y, u in beta_moves[t])
        return done

    # state = table state * n + B state
    def expand(state):
        t, qb = divmod(state, n)
        nb = b_next[qb]
        qb_acc = qb in b_acc
        moves = []
        for x, both, pad in alpha_moves[t]:
            for y, u in both:
                tb = nb[y]
                if tb is not None:
                    moves.append((x, u * n + tb))
            if pad is not None and qb_acc:
                moves.append((x, pad * n + qb))
        if beta_moves[t]:  # most table states have no step of beta alone
            return beta_ends(t, qb), moves
        return accepts[t] and qb_acc, moves

    return minimal_dfa(group.presentation.names,
                       [starts[offset] * n + B.initial], expand)


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
        memo[key] = equal_endpoint_pairs(group, factor_fsa(group, pattern), (), k)
    return memo[key]


def left_translate(group: PolygonGroup, A: FSA, s: int, k: int) -> FSA:
    """Minimal DFA for Red(s * X), X the element set of A, which must accept
    reduced words only: one pair machine whose offset is the generator s,
    so every word difference lives in a ball of radius k + 1."""
    return equal_endpoint_pairs(group, A, (s,), k)


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
    radius, so the walk over ball indices never leaves the ball.  It reads
    the ball's canonical states and Cayley edges, never its Element records,
    and keeps each visited pair as one integer."""
    ball = group.ball(radius)
    right_mult, left_mult, lengths = ball.right_mult, ball.left_mult, ball.lengths
    rstate, n = ball.rstate, len(ball)
    # right descents, and their pairs s < t, by canonical state
    desc = [sorted(d) for d in ball.descents]
    pairs = [list(combinations(d, 2)) for d in desc]
    worst = min(radius, 1)
    seen: set[int] = set()  # pairs (x, y) as x * n + y
    stack: list[tuple[int, int, int]] = []
    try:
        for z, q in enumerate(rstate):
            row = right_mult[z]
            for s, t in pairs[q]:
                x, y = row[s], row[t]
                seen.add(x * n + y)
                stack.append((x, y, right_mult[right_mult[0][s]][t]))
        while stack:
            x, y, d = stack.pop()
            if lengths[d] > worst:
                worst = lengths[d]
            xs, ys, ds = right_mult[x], right_mult[y], right_mult[d]
            for b in desc[rstate[y]]:
                yb, db = ys[b], left_mult[ds[b]]
                for a in desc[rstate[x]]:
                    xa = xs[a]
                    code = xa * n + yb
                    if code not in seen:
                        seen.add(code)
                        stack.append((xa, yb, db[a]))
    except TypeError as exc:  # a None step: the length bound above broke
        raise BallTooSmall(f"fellow-traveler validation: a word difference "
                           f"left ball({radius})") from exc
    return worst


def patterns_stable(group: PolygonGroup, patterns: list[Word], k: int) -> bool:
    """Whether every pattern language at k equals the one at k + 1.

    red_x_mu reads k only through the identity offset's word-difference
    table, so where the tables at k and k + 1 are equal every pattern
    machine at k + 1 is the one at k, state for state, and no machine is
    built.  Only where the tables differ are the pattern languages built
    and compared."""
    return (word_difference_table(group, k, ())
            == word_difference_table(group, k + 1, ())
            or all(are_equivalent(red_x_mu(group, p, k), red_x_mu(group, p, k + 1))
                   for p in patterns))


def choose_k(group: PolygonGroup) -> int:
    """Smallest k at least the fellow-traveler constant of the ball of
    radius VALIDATION_RADIUS for which every dihedral pattern language is
    stable against k+1 (patterns_stable)."""
    from .cells import dihedral_data

    data = dihedral_data(group.presentation)
    patterns = [entry.longest_word for entry in data.entries]
    constant = fellow_traveler_constant(group, VALIDATION_RADIUS)
    for k in range(max(1, constant), MAX_K + 1):
        if patterns_stable(group, patterns, k):
            return k
    raise KNotValidated(
        f"no k <= {MAX_K} leaves the pattern languages stable; "
        f"fellow-traveler constant at radius {VALIDATION_RADIUS} is {constant}")
