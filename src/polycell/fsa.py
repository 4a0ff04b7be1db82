"""Finite-state automata over small symbol alphabets.

Symbols are indices into an alphabet tuple of short strings; for automata
over group generators the symbol index equals the generator index, so
engine words feed straight in.  Every `FSA` is a partial DFA: transitions
map (state, symbol) to one target state, and a missing move goes to an
implicit dead state.

Every machine searched out from a start state goes through `search`, which
interns states as it meets them, marks those on an accepting run (Epstein
et al., Word Processing in Groups, 1992, ch. 2) and caps every search at
STATE_CAP states.  `explore` keeps the marked states (products), and
`automata`'s word-difference table reads the marks directly.  A search
whose states have several moves on one symbol is nondeterministic only
while it is searched: `minimal_dfa` runs one subset search over its marked
states, its sets int bitsets, and hands the successor rows straight to
`_moore`, the one partition refinement, which `minimize` also runs.  So
every such search ends in the minimal DFA, numbered canonically: the pair
machines of `automata`, `reverse`, and `from_text` on a file with several
targets for one move.

Every question about two machines is one `_product`: intersection, union
and difference are the products themselves, and equivalence and
containment ask whether a product accepts anything.  Its trim keeps only
the states on an accepting run, so a product has an accepting state
exactly when its language is nonempty.  `shortest_word` is the one walk
that stops at the first accepting state.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter, or_

from .errors import AlphabetMismatch, StateBlowup

STATE_CAP = 2_000_000


class FSA:
    """Equal by value, field by field; unhashable, as its tables are dicts."""

    __slots__ = ("alphabet", "n_states", "initial", "accepting", "transitions")

    def __init__(self, alphabet: tuple[str, ...], n_states: int, initial: int,
                 accepting: frozenset[int],
                 transitions: dict[tuple[int, int], int]):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.accepting = accepting
        self.transitions = transitions

    def _key(self):
        return (self.alphabet, self.n_states, self.initial, self.accepting,
                self.transitions)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def step(self, state: int, sym: int) -> int | None:
        return self.transitions.get((state, sym))

    def accepts(self, word) -> bool:
        delta = self.transitions
        q = self.initial
        for s in word:
            q = delta.get((q, s))
            if q is None:
                return False
        return q in self.accepting


def make_dfa(alphabet, n_states, initial, accepting, delta) -> FSA:
    """delta: dict (state, sym) -> state, kept as it is."""
    return FSA(tuple(alphabet), n_states, initial, frozenset(accepting), delta)


def empty_language(alphabet) -> FSA:
    return make_dfa(alphabet, 1, 0, frozenset(), {})


def with_initial(fsa: FSA, initial: int) -> FSA:
    """The same machine started from another state; the tables are shared."""
    return FSA(fsa.alphabet, fsa.n_states, initial, fsa.accepting,
               fsa.transitions)


def search(starts, expand):
    """Intern the states reached from the distinct keys `starts` and mark
    those on an accepting run.  expand(key) returns whether the state
    accepts and its moves (symbol, key).  States are numbered in order of
    discovery, the starts first; one backward pass over the recorded
    predecessors marks the live ones.  Returns the keys by number, each
    state's moves as (symbol, target number), the accepting numbers and
    the live flags.  Past STATE_CAP interned states it raises StateBlowup
    naming the function that made `expand`."""
    ids = {key: i for i, key in enumerate(starts)}
    keys = list(starts)
    rows = []
    preds: list[list[int]] = [[] for _ in keys]
    accepting: list[int] = []
    for i, key in enumerate(keys):  # grows as new states are met
        accepts, moves = expand(key)
        if accepts:
            accepting.append(i)
        row = []
        for s, target in moves:
            j = ids.setdefault(target, len(keys))
            if j == len(keys):
                if j >= STATE_CAP:
                    stage = expand.__qualname__.partition(".")[0]
                    raise StateBlowup(f"{stage} exceeds {STATE_CAP} states")
                keys.append(target)
                preds.append([i])
            else:
                preds[j].append(i)
            row.append((s, j))
        rows.append(row)
    live = [False] * len(keys)
    for q in accepting:
        live[q] = True
    stack = list(accepting)
    while stack:
        for p in preds[stack.pop()]:
            if not live[p]:
                live[p] = True
                stack.append(p)
    return keys, rows, accepting, live


def explore(alphabet, start, expand) -> FSA:
    """The DFA of the states `search` reaches from `start`, whose expand
    gives at most one move per symbol, trimmed to those on an accepting
    run, which keep their order of discovery."""
    _, rows, accepting, live = search([start], expand)
    if not live[0]:
        return empty_language(alphabet)
    remap = [n - 1 for n in accumulate(live)]  # for the live states
    return make_dfa(alphabet, remap[-1] + 1, 0, [remap[q] for q in accepting],
                    {(remap[q], s): remap[j] for q, row in enumerate(rows)
                     if live[q] for s, j in row if live[j]})


def minimal_dfa(alphabet, starts, expand) -> FSA:
    """The minimal DFA of the machine `search` reaches from the distinct,
    nonempty `starts`, which may have several moves on one symbol: its
    subset machine, the sets of states on an accepting run as int bitsets,
    numbered as they are met (0 the empty set, its own successor, and 1 the
    set of the starts), its successor rows handed to `_moore`.  Past
    STATE_CAP sets it raises StateBlowup, as `search` does past STATE_CAP
    states."""
    nsym = len(alphabet)
    _, moves, accepting, live = search(starts, expand)
    steps = []  # by state and symbol, the live states it moves to
    for row in moves:
        step = [0] * nsym
        for s, j in row:
            if live[j]:
                step[s] |= 1 << j
        steps.append(step)
    first = (1 << len(starts)) - 1
    ids = {0: 0, first: 1}
    sets = [first]
    rows = [[0] * nsym]
    for cur in sets:  # grows as new sets are met
        row = None
        while cur:
            low = cur & -cur
            step = steps[low.bit_length() - 1]
            row = step if row is None else list(map(or_, row, step))
            cur ^= low
        out = []
        for nxt in row:
            j = ids.setdefault(nxt, len(ids))
            if j > len(sets):
                if j >= STATE_CAP:
                    stage = expand.__qualname__.partition(".")[0]
                    raise StateBlowup(f"{stage} exceeds {STATE_CAP} states")
                sets.append(nxt)
            out.append(j)
        rows.append(out)
    acc = sum(1 << q for q in accepting)
    return _moore(alphabet, rows, {i for i, cur in enumerate(sets, 1) if cur & acc},
                  1, 0)


def minimize(fsa: FSA) -> FSA:
    """Unique minimal DFA: `_moore` on the successor rows of fsa."""
    n = fsa.n_states
    rows = [[n] * len(fsa.alphabet) for _ in range(n + 1)]
    for (q, s), t in fsa.transitions.items():
        rows[q][s] = t
    return _moore(fsa.alphabet, rows, fsa.accepting, fsa.initial, n)


def _moore(alphabet, rows, accepting, initial, dead) -> FSA:
    """The minimal DFA of the complete machine whose successor rows are
    `rows`, `dead` a rejecting state that is its own successor, by Moore
    partition refinement.  A round splits classes by (class, classes of
    the row) and never merges them, so refinement stops at the first round
    that adds no class.  No trim is needed: refinement puts every state
    with an empty future in the dead state's class, and the numbering
    reaches only states from the initial one, skipping that class."""
    # a state's signature in a class list: its class, then its row's
    signature = [itemgetter(q, *row) for q, row in enumerate(rows)]
    cls = [0] * len(rows)
    for q in accepting:
        cls[q] = 1
    count = 2  # the dead state never accepts
    while True:
        sig: dict = {}
        cls = [sig.setdefault(key(cls), len(sig)) for key in signature]
        if len(sig) == count:
            break
        count = len(sig)

    dead_cls = cls[dead]
    # canonical numbering: BFS from the initial class in symbol order
    renum = {cls[initial]: 0}
    order = [initial]
    delta: dict[tuple[int, int], int] = {}
    final = set()
    for i, rep in enumerate(order):  # grows as new classes are met
        if rep in accepting:
            final.add(i)
        for s, t in enumerate(rows[rep]):
            c = cls[t]
            if c == dead_cls:
                continue
            j = renum.setdefault(c, len(renum))
            if j == len(order):
                order.append(t)
            delta[(i, s)] = j
    return make_dfa(alphabet, len(renum), 0, final, delta)


def reverse(fsa: FSA) -> FSA:
    """The minimal DFA of the reversed language: `minimal_dfa` over the
    reversed moves, from the set of accepting states."""
    if not fsa.accepting:
        return empty_language(fsa.alphabet)
    back: list[list[tuple[int, int]]] = [[] for _ in range(fsa.n_states)]
    for (q, s), t in fsa.transitions.items():
        back[t].append((s, q))
    initial = fsa.initial

    def expand(q):
        return q == initial, back[q]

    return minimal_dfa(fsa.alphabet, sorted(fsa.accepting), expand)


def _product(a: FSA, b: FSA, keep) -> FSA:
    """Pairing on completed DFAs, searched from the start pair and trimmed;
    keep(in_a, in_b) decides acceptance.  None marks the implicit dead
    side."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {b.alphabet}")
    a_delta, a_acc = a.transitions, a.accepting
    b_delta, b_acc = b.transitions, b.accepting
    syms = range(len(a.alphabet))

    def expand(pair):
        qa, qb = pair
        moves = []
        for s in syms:
            ta = a_delta.get((qa, s))
            tb = b_delta.get((qb, s))
            if ta is not None or tb is not None:
                moves.append((s, (ta, tb)))
        return keep(qa in a_acc, qb in b_acc), moves

    return explore(a.alphabet, (a.initial, b.initial), expand)


def intersect(a: FSA, b: FSA) -> FSA:
    return _product(a, b, lambda x, y: x and y)


def union(a: FSA, b: FSA) -> FSA:
    return _product(a, b, lambda x, y: x or y)


def difference(a: FSA, b: FSA) -> FSA:
    return _product(a, b, lambda x, y: x and not y)


def shortest_word(fsa: FSA):
    """The ShortLex-least accepted word, as a tuple of symbol indices, or
    None for an empty language.  A breadth-first search that tries the
    symbols in order meets the states in ShortLex order of the least word
    reaching each, so the first accepting state it meets is reached by the
    answer."""
    delta, acc = fsa.transitions, fsa.accepting
    syms = range(len(fsa.alphabet))
    reached_by = {fsa.initial: None}  # state -> (previous state, symbol)
    queue = [fsa.initial]
    for q in queue:
        if q in acc:
            word = []
            while (step := reached_by[q]) is not None:
                q, s = step
                word.append(s)
            return tuple(reversed(word))
        for s in syms:
            t = delta.get((q, s))
            if t is not None and t not in reached_by:
                reached_by[t] = (q, s)
                queue.append(t)
    return None


def are_equivalent(a: FSA, b: FSA) -> bool:
    return not _product(a, b, lambda x, y: x != y).accepting


def is_subset(a: FSA, b: FSA) -> bool:
    return not difference(a, b).accepting


def count_words(fsa: FSA, max_len: int) -> list[int]:
    """Number of accepted words of each length 0..max_len (exact integers)."""
    vec = {fsa.initial: 1}
    counts = [sum(c for q, c in vec.items() if q in fsa.accepting)]
    nsym = len(fsa.alphabet)
    for _ in range(max_len):
        nxt: dict[int, int] = {}
        for q, c in vec.items():
            for s in range(nsym):
                t = fsa.transitions.get((q, s))
                if t is not None:
                    nxt[t] = nxt.get(t, 0) + c
        vec = nxt
        counts.append(sum(c for q, c in vec.items() if q in fsa.accepting))
    return counts


def enumerate_words(fsa: FSA, max_len: int):
    """Yield accepted words (as tuples of symbol indices) up to max_len,
    shortest first, lexicographic within a length."""
    layer = [((), fsa.initial)]
    nsym = len(fsa.alphabet)
    for _ in range(max_len + 1):
        nxt = []
        for word, q in layer:
            if q in fsa.accepting:
                yield word
            for s in range(nsym):
                t = fsa.transitions.get((q, s))
                if t is not None:
                    nxt.append((word + (s,), t))
        layer = nxt


# --- text serialization ---------------------------------------------------


def to_text(fsa: FSA) -> str:
    lines = [
        "states %d alphabet %s initial %d"
        % (fsa.n_states, " ".join(fsa.alphabet), fsa.initial)
    ]
    for (q, s), t in sorted(fsa.transitions.items()):
        lines.append(f"{q} {fsa.alphabet[s]} {t}")
    lines.append("accept " + " ".join(str(q) for q in sorted(fsa.accepting)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> FSA:
    """Parse `to_text` output; malformed text of any kind raises ValueError.
    A file that gives two targets for one move reads as its minimal DFA."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty automaton text")
    head = lines[0]
    if head[0] != "states" or "alphabet" not in head or "initial" not in head \
            or head.index("initial") != len(head) - 2:
        raise ValueError(f"bad automaton header: {' '.join(head)!r}")
    n_states = int(head[1])
    ai = head.index("alphabet")
    ii = head.index("initial")
    alphabet = tuple(head[ai + 1:ii])
    sym_idx = {sym: i for i, sym in enumerate(alphabet)}
    if len(sym_idx) != len(alphabet):
        raise ValueError(f"a letter appears twice in the alphabet {alphabet}")

    def state(field: str) -> int:
        if not 0 <= (q := int(field)) < n_states:
            raise ValueError(f"state {q} is out of range for {n_states} states")
        return q

    initial = state(head[ii + 1])
    moves: list[list[tuple[int, int]]] = [[] for _ in range(n_states)]
    accepting: frozenset[int] | None = None
    for parts in lines[1:]:
        if parts[0] == "accept":
            if accepting is not None:
                raise ValueError("a second accept line")
            accepting = frozenset(map(state, parts[1:]))
            continue
        if len(parts) != 3:
            raise ValueError(f"bad transition line: {' '.join(parts)!r}")
        q, sym, t = state(parts[0]), parts[1], state(parts[2])
        if sym not in sym_idx:
            raise ValueError(f"letter {sym!r} is not in the alphabet {alphabet}")
        moves[q].append((sym_idx[sym], t))
    if accepting is None:
        raise ValueError("missing accept line")
    delta = {(q, s): t for q, row in enumerate(moves) for s, t in row}
    if len(delta) == sum(map(len, moves)):
        return make_dfa(alphabet, n_states, initial, accepting, delta)

    def expand(q):
        return q in accepting, moves[q]

    return minimal_dfa(alphabet, [initial], expand)
