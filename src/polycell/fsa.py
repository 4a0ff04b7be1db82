"""Finite-state automata over small symbol alphabets.

Symbols are indices into an alphabet tuple of short strings; for automata
over group generators the symbol index equals the generator index, so
engine words feed straight in.  Transitions map (state, symbol) to a tuple
of targets; deterministic machines keep singleton tuples and no epsilon
moves, which only reversal makes; stored machines are epsilon-free.

Every machine searched out from a start state goes through `search`, which
interns states as it meets them, marks those on an accepting run (Epstein
et al., Word Processing in Groups, 1992, ch. 2) and caps every search at
STATE_CAP states.  `explore` keeps the marked states (products), and
`automata`'s word-difference table reads the marks directly.  One subset
search over the marked states, its sets int bitsets, serves `determinize`
and `minimal_dfa` (the pair machines of `automata`), which hands its rows
straight to `_moore`, the one partition refinement, which `minimize` also
runs.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter, or_

from .errors import AlphabetMismatch, StateBlowup

STATE_CAP = 2_000_000


class FSA:
    """Equal by value, field by field; unhashable, as its tables are dicts."""

    __slots__ = ("alphabet", "n_states", "initial", "accepting", "transitions",
                 "eps", "deterministic")

    def __init__(self, alphabet: tuple[str, ...], n_states: int, initial: int,
                 accepting: frozenset[int],
                 transitions: dict[tuple[int, int], tuple[int, ...]],
                 eps: dict[int, tuple[int, ...]] | None = None,
                 deterministic: bool = False):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.accepting = accepting
        self.transitions = transitions
        self.eps = {} if eps is None else eps
        self.deterministic = deterministic

    def _key(self):
        return (self.alphabet, self.n_states, self.initial, self.accepting,
                self.transitions, self.eps, self.deterministic)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def step(self, state: int, sym: int) -> int | None:
        t = self.transitions.get((state, sym))
        return t[0] if t else None

    def accepts(self, word) -> bool:
        if self.deterministic:
            q = self.initial
            for s in word:
                t = self.transitions.get((q, s))
                if not t:
                    return False
                q = t[0]
            return q in self.accepting
        cur = _eps_closure(self, {self.initial})
        for s in word:
            nxt = set()
            for q in cur:
                nxt.update(self.transitions.get((q, s), ()))
            if not nxt:
                return False
            cur = _eps_closure(self, nxt)
        return bool(cur & self.accepting)

    def edges(self):
        for (q, s), targets in self.transitions.items():
            for t in targets:
                yield q, s, t


def _eps_closure(fsa: FSA, states: set[int]) -> frozenset[int]:
    if not fsa.eps:
        return frozenset(states)
    out = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for t in fsa.eps.get(q, ()):
            if t not in out:
                out.add(t)
                stack.append(t)
    return frozenset(out)


def make_dfa(alphabet, n_states, initial, accepting, delta) -> FSA:
    """delta: dict (state, sym) -> state."""
    return FSA(
        alphabet=tuple(alphabet),
        n_states=n_states,
        initial=initial,
        accepting=frozenset(accepting),
        transitions={k: (v,) for k, v in delta.items()},
        deterministic=True,
    )


def empty_language(alphabet) -> FSA:
    return make_dfa(alphabet, 1, 0, frozenset(), {})


def epsilon_language(alphabet) -> FSA:
    return make_dfa(alphabet, 1, 0, {0}, {})


def with_initial(fsa: FSA, initial: int) -> FSA:
    """The same machine started from another state; the tables are shared."""
    return FSA(fsa.alphabet, fsa.n_states, initial, fsa.accepting,
               fsa.transitions, fsa.eps, fsa.deterministic)


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
    """The machine of the states `search` reaches from `start`, trimmed to
    those on an accepting run, which keep their order of discovery.  With
    one target per move the machine is deterministic."""
    _, rows, accepting, live = search([start], expand)
    if not live[0]:
        return empty_language(alphabet)
    remap = [n - 1 for n in accumulate(live)]  # for the live states
    transitions: dict[tuple[int, int], list[int]] = {}
    for q, row in enumerate(rows):
        if live[q]:
            for s, j in row:
                if live[j]:
                    transitions.setdefault((remap[q], s), []).append(remap[j])
    return FSA(tuple(alphabet), remap[-1] + 1, 0,
               frozenset(remap[q] for q in accepting),
               {k: tuple(ts) for k, ts in transitions.items()},
               deterministic=all(len(ts) == 1 for ts in transitions.values()))


def minimal_dfa(alphabet, start, expand) -> FSA:
    """The minimal DFA of the machine `search` reaches from `start`, which
    may have several moves on one symbol: `_moore` on its subset rows."""
    rows, accepting = _subset_rows(len(alphabet), start, expand)
    return _moore(alphabet, rows, accepting, 1, 0)


def _subset_rows(nsym, start, expand):
    """The subset machine of the states `search` reaches from `start`, its
    sets of states on an accepting run as int bitsets, numbered as they
    are met: 0 is the empty set, its own successor, and 1 the start.
    Returns the successor rows by number and the accepting numbers.  Past
    STATE_CAP sets it raises StateBlowup, as `search` does past STATE_CAP
    states."""
    _, moves, accepting, live = search([start], expand)
    steps = []  # by state and symbol, the live states it moves to
    for row in moves:
        step = [0] * nsym
        for s, j in row:
            if live[j]:
                step[s] |= 1 << j
        steps.append(step)
    ids = {0: 0, 1: 1}
    sets = [1]
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
    return rows, {i for i, cur in enumerate(sets, 1) if cur & acc}


def determinize(fsa: FSA) -> FSA:
    """`_subset_rows` of fsa from its initial state, numbered from 0, with
    epsilon moves folded into the moves and acceptance of the states
    before them."""
    delta, acc = fsa.transitions, fsa.accepting
    syms = range(len(fsa.alphabet))

    def expand(q):
        near = _eps_closure(fsa, {q})
        return not acc.isdisjoint(near), [(s, t) for p in near for s in syms
                                          for t in delta.get((p, s), ())]

    rows, accepting = _subset_rows(len(syms), fsa.initial, expand)
    return make_dfa(fsa.alphabet, len(rows) - 1, 0, {q - 1 for q in accepting},
                    {(q - 1, s): t - 1 for q, row in enumerate(rows) if q
                     for s, t in enumerate(row) if t})


def minimize(fsa: FSA) -> FSA:
    """Unique minimal DFA: `_moore` on the successor rows of fsa, or of
    its subset machine if fsa is not deterministic."""
    if not fsa.deterministic:
        fsa = determinize(fsa)
    n = fsa.n_states
    rows = [[n] * len(fsa.alphabet) for _ in range(n + 1)]
    for (q, s), ts in fsa.transitions.items():
        if ts:
            rows[q][s] = ts[0]
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


def reverse_fsa(fsa: FSA) -> FSA:
    """NFA for the reversed language (fresh initial state, eps to old finals)."""
    transitions: dict[tuple[int, int], list[int]] = {}
    for q, s, t in fsa.edges():
        transitions.setdefault((t, s), []).append(q)
    eps: dict[int, list[int]] = {}
    for q, targets in fsa.eps.items():
        for t in targets:
            eps.setdefault(t, []).append(q)
    new_init = fsa.n_states
    eps[new_init] = sorted(fsa.accepting)
    return FSA(
        alphabet=fsa.alphabet,
        n_states=fsa.n_states + 1,
        initial=new_init,
        accepting=frozenset({fsa.initial}),
        transitions={k: tuple(sorted(v)) for k, v in transitions.items()},
        eps={k: tuple(sorted(v)) for k, v in eps.items()},
        deterministic=False,
    )


def _dfa_operands(a: FSA, b: FSA) -> tuple[FSA, FSA, tuple]:
    """Both operands as DFAs over one alphabet, and their start pair; None
    marks the implicit dead side."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {b.alphabet}")
    if not a.deterministic:
        a = determinize(a)
    if not b.deterministic:
        b = determinize(b)
    return a, b, (a.initial if a.n_states else None,
                  b.initial if b.n_states else None)


def _product(a: FSA, b: FSA, keep) -> FSA:
    """Pairing on completed DFAs, trimmed; keep(in_a, in_b) decides
    acceptance.  None marks the implicit dead side."""
    a, b, start = _dfa_operands(a, b)
    a_delta, a_acc = a.transitions, a.accepting
    b_delta, b_acc = b.transitions, b.accepting
    syms = range(len(a.alphabet))

    def expand(pair):
        qa, qb = pair
        moves = []
        for s in syms:
            ta = a_delta.get((qa, s))
            tb = b_delta.get((qb, s))
            if ta or tb:
                moves.append((s, (ta[0] if ta else None, tb[0] if tb else None)))
        return keep(qa in a_acc, qb in b_acc), moves

    return explore(a.alphabet, start, expand)


def intersect(a: FSA, b: FSA) -> FSA:
    return _product(a, b, lambda x, y: x and y)


def union(a: FSA, b: FSA) -> FSA:
    return _product(a, b, lambda x, y: x or y)


def difference(a: FSA, b: FSA) -> FSA:
    return _product(a, b, lambda x, y: x and not y)


def is_empty(fsa: FSA) -> bool:
    """Whether no word is accepted: a walk from the initial state that stops
    at the first accepting state it reaches."""
    delta, eps, acc = fsa.transitions, fsa.eps, fsa.accepting
    syms = range(len(fsa.alphabet))
    seen = {fsa.initial}
    stack = [fsa.initial]
    while stack:
        q = stack.pop()
        if q in acc:
            return False
        for s in syms:
            for t in delta.get((q, s), ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        for t in eps.get(q, ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return True


def shortest_word(fsa: FSA):
    """The ShortLex-least accepted word, as a tuple of symbol indices, or
    None for an empty language.  A breadth-first search that tries the
    symbols in order meets the states in ShortLex order of the least word
    reaching each, so the first accepting state it meets is reached by the
    answer."""
    if not fsa.deterministic:
        fsa = determinize(fsa)
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
            if t and t[0] not in reached_by:
                reached_by[t[0]] = (q, s)
                queue.append(t[0])
    return None


def _no_pair(a: FSA, b: FSA, bad) -> bool:
    """Walk the reachable state pairs of the completed DFAs of a and b and
    tell whether none has bad(in_a, in_b); stops at the first that does,
    and builds no product machine."""
    a, b, start = _dfa_operands(a, b)
    a_delta, a_acc = a.transitions, a.accepting
    b_delta, b_acc = b.transitions, b.accepting
    syms = range(len(a.alphabet))
    seen = {start}
    stack = [start]
    while stack:
        qa, qb = stack.pop()
        if bad(qa in a_acc, qb in b_acc):
            return False
        for s in syms:
            ta = a_delta.get((qa, s))
            tb = b_delta.get((qb, s))
            if ta is None and tb is None:
                continue
            key = (ta[0] if ta else None, tb[0] if tb else None)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return True


def are_equivalent(a: FSA, b: FSA) -> bool:
    return _no_pair(a, b, lambda x, y: x != y)


def is_subset(a: FSA, b: FSA) -> bool:
    return _no_pair(a, b, lambda x, y: x and not y)


def count_words(fsa: FSA, max_len: int) -> list[int]:
    """Number of accepted words of each length 0..max_len (exact integers)."""
    if not fsa.deterministic:
        raise ValueError("counting requires a deterministic automaton")
    vec = {fsa.initial: 1}
    counts = [sum(c for q, c in vec.items() if q in fsa.accepting)]
    nsym = len(fsa.alphabet)
    for _ in range(max_len):
        nxt: dict[int, int] = {}
        for q, c in vec.items():
            for s in range(nsym):
                t = fsa.transitions.get((q, s))
                if t:
                    nxt[t[0]] = nxt.get(t[0], 0) + c
        vec = nxt
        counts.append(sum(c for q, c in vec.items() if q in fsa.accepting))
    return counts


def enumerate_words(fsa: FSA, max_len: int):
    """Yield accepted words (as tuples of symbol indices) up to max_len,
    shortest first, lexicographic within a length."""
    if not fsa.deterministic:
        fsa = determinize(fsa)
    layer = [((), fsa.initial)]
    nsym = len(fsa.alphabet)
    for _ in range(max_len + 1):
        nxt = []
        for word, q in layer:
            if q in fsa.accepting:
                yield word
            for s in range(nsym):
                t = fsa.transitions.get((q, s))
                if t:
                    nxt.append((word + (s,), t[0]))
        layer = nxt


# --- text serialization ---------------------------------------------------


def to_text(fsa: FSA) -> str:
    if fsa.eps:
        raise ValueError("serialization requires an epsilon-free automaton")
    lines = [
        "states %d alphabet %s initial %d"
        % (fsa.n_states, " ".join(fsa.alphabet), fsa.initial)
    ]
    for q, s, t in sorted(fsa.edges()):
        lines.append(f"{q} {fsa.alphabet[s]} {t}")
    lines.append("accept " + " ".join(str(q) for q in sorted(fsa.accepting)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> FSA:
    """Parse `to_text` output; malformed text of any kind raises ValueError."""
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

    def state(field: str) -> int:
        if not 0 <= (q := int(field)) < n_states:
            raise ValueError(f"state {q} is out of range for {n_states} states")
        return q

    initial = state(head[ii + 1])
    sym_idx = {sym: i for i, sym in enumerate(alphabet)}
    transitions: dict[tuple[int, int], list[int]] = {}
    accepting: frozenset[int] | None = None
    for parts in lines[1:]:
        if parts[0] == "accept":
            accepting = frozenset(map(state, parts[1:]))
            continue
        if len(parts) != 3:
            raise ValueError(f"bad transition line: {' '.join(parts)!r}")
        q, sym, t = state(parts[0]), parts[1], state(parts[2])
        if sym not in sym_idx:
            raise ValueError(f"letter {sym!r} is not in the alphabet {alphabet}")
        transitions.setdefault((q, sym_idx[sym]), []).append(t)
    if accepting is None:
        raise ValueError("missing accept line")
    det = all(len(v) == 1 for v in transitions.values())
    return FSA(
        alphabet=alphabet,
        n_states=n_states,
        initial=initial,
        accepting=accepting,
        transitions={k: tuple(v) for k, v in transitions.items()},
        deterministic=det,
    )
