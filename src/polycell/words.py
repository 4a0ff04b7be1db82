"""Word problem for polygon Coxeter groups.

Reading a word left to right while tracking which small roots are inversions
of the prefix gives a deterministic automaton whose live runs are exactly
the reduced words (states double as right-descent detectors).  On top of
that single primitive we build reduction, ShortLex normal forms (repeated
extraction of the least left descent, with the deletion position located by
running the word until the automaton dies), multiplication, and metric balls
with full left/right Cayley edges.

A ball is built layer by layer from the Cayley graph alone, as in
Brink-Howlett's automatic structure for Coxeter groups (Math. Ann. 296,
1993), with no `nf` or `shortlex` call.  Layer L+1 comes from the up-moves
(w, s) of layer L, and the canonical state of w.s gives its right descents.
There are at most two, since the angle sum leaves no finite parabolic
subgroup of rank 3: z with descents {s, t} is met once more, from z.t, which
is found from z.s by 2(m(s, t) - 1) steps round its coset z<s, t> through
the layers already built.  Prefixes of ShortLex words are ShortLex, so z's
ShortLex word is the least of word(z.r) + (r,), and in a sorted layer the
first up-move to meet z gives it.  Left edges follow from the lifting
property: with x the last letter of z and y = z.x, a left descent s of z has
s.z = (s.y).x when s is a left descent of y, and s.z = y otherwise; left
descents come from one reversed canonical run per element, and the up edges
are the reversed down edges.
"""

from __future__ import annotations

from .errors import ResourceLimit
from .presentation import CoxeterPresentation
from .smallroots import SmallRootTable, compute_small_roots

Word = tuple[int, ...]

BALL_CAP = 2_000_000  # most elements of a ball


class Element:
    """Group element as its ShortLex-least reduced word, with descent sets;
    equal and hashed by value."""

    __slots__ = ("word", "left", "right")

    def __init__(self, word: Word, left: frozenset[int], right: frozenset[int]):
        self.word = word
        self.left = left
        self.right = right

    @property
    def length(self) -> int:
        return len(self.word)

    def _key(self):
        return self.word, self.left, self.right

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Element({self.word})"


class ElementBall:
    """All elements of length <= radius, sorted by (length, word)."""

    __slots__ = ("radius", "elements", "index", "right_mult", "left_mult",
                 "counts", "lengths")

    def __init__(self, radius: int, elements: list[Element], index: dict[Word, int],
                 right_mult: list[list[int | None]], left_mult: list[list[int | None]],
                 counts: list[int], lengths: list[int]):
        self.radius = radius
        self.elements = elements
        self.index = index
        self.right_mult = right_mult  # None = product leaves the ball
        self.left_mult = left_mult
        self.counts = counts  # elements per length
        self.lengths = lengths  # element lengths, by index

    def __len__(self):
        return len(self.elements)


class PolygonGroup:
    """Word-problem engine for one polygon presentation."""

    def __init__(self, presentation: CoxeterPresentation):
        self.presentation = presentation
        self.rank = presentation.rank
        self.table: SmallRootTable = compute_small_roots(presentation)
        self._build_transitions()
        self._balls: dict[int, ElementBall] = {}

    # canonical automaton: states are the reachable sets of small inversions
    def _build_transitions(self) -> None:
        table = self.table
        n = self.rank
        start = frozenset()
        ids = {start: 0}
        sets = [start]
        trans: list[list[int | None]] = []
        i = 0
        while i < len(sets):
            cur = sets[i]
            row: list[int | None] = []
            for s in range(n):
                if table.simple[s] in cur:
                    row.append(None)
                    continue
                nxt = {table.simple[s]}
                for r in cur:
                    img = table.action[r][s]
                    if img >= 0:
                        nxt.add(img)
                key = frozenset(nxt)
                j = ids.get(key)
                if j is None:
                    j = len(sets)
                    ids[key] = j
                    sets.append(key)
                row.append(j)
            trans.append(row)
            i += 1
        self.transitions = trans
        simple_of = {r: s for s, r in enumerate(table.simple)}
        self.state_rdesc = [
            frozenset(simple_of[r] for r in st if r in simple_of) for st in sets
        ]

    # --- word primitives -------------------------------------------------

    def run(self, word, state: int = 0) -> int | None:
        trans = self.transitions
        for s in word:
            nxt = trans[state][s]
            if nxt is None:
                return None
            state = nxt
        return state

    def is_reduced(self, word) -> bool:
        return self.run(word) is not None

    def left_descents(self, reduced: Word) -> frozenset[int]:
        state = self.run(reduced[::-1])
        assert state is not None
        return self.state_rdesc[state]

    def _death_index(self, s: int, word) -> int:
        """Feed s then word; return the word position whose letter kills the
        run.  Requires s to be a left descent of the word's element."""
        state = self.transitions[0][s]
        for i, x in enumerate(word):
            nxt = self.transitions[state][x]
            if nxt is None:
                return i
            state = nxt
        raise AssertionError("word survived: not a left descent")

    def reduce_word(self, word) -> Word:
        """Some reduced word for the same element (deletion condition)."""
        out: list[int] = []
        states = [0]
        for s in word:
            nxt = self.transitions[states[-1]][s]
            if nxt is not None:
                out.append(s)
                states.append(nxt)
                continue
            # exchange on the inverse: s + reversed(out) dies at position p,
            # so dropping the mirrored letter shortens out . s to out minus one
            p = self._death_index(s, out[::-1])
            drop = len(out) - 1 - p
            del out[drop:drop + 1]
            del states[drop + 1:]
            for x in out[drop:]:
                states.append(self.transitions[states[-1]][x])
        return tuple(out)

    def shortlex(self, reduced) -> Word:
        """ShortLex-least reduced word, by least-left-descent extraction."""
        u = list(reduced)
        out: list[int] = []
        while u:
            t = min(self.left_descents(tuple(u)))
            if t == u[0]:
                out.append(u.pop(0))
                continue
            j = self._death_index(t, u)
            del u[j:j + 1]
            out.append(t)
        return tuple(out)

    def nf(self, word) -> Word:
        return self.shortlex(self.reduce_word(word))

    # --- elements ---------------------------------------------------------

    def element(self, word) -> Element:
        w = self.nf(word)
        return Element(w, self.left_descents(w), self.state_rdesc[self.run(w)])

    def multiply(self, a: Element, b: Element) -> Element:
        return self.element(a.word + b.word)

    # --- balls --------------------------------------------------------------

    def ball(self, radius: int) -> ElementBall:
        """Every element of length <= radius, with its Cayley edges, built
        layer by layer from the up-moves of the layer below (see the module
        docstring); no `nf` or `shortlex` call.  Past BALL_CAP elements it
        raises ResourceLimit."""
        if radius in self._balls:
            return self._balls[radius]
        trans, rdesc, rank = self.transitions, self.state_rdesc, self.rank
        words: list[Word] = [()]
        states = [0]  # canonical state of each element
        right_mult: list[list[int | None]] = [[None] * rank]
        counts = [1]
        lo = 0
        for _ in range(radius):
            hi = len(words)
            # (z.t, t) -> z for each new z with descents {s, t}, found from z.s
            second: dict[tuple[int, int], int] = {}
            for i in range(lo, hi):
                row = trans[states[i]]
                for s in range(rank):
                    q = row[s]
                    if q is None:
                        continue
                    z = second.pop((i, s), None)
                    if z is None:
                        # the layer below is sorted, so the first candidate
                        # word(z.s) + (s,) met is z's ShortLex word
                        z = len(words)
                        words.append(words[i] + (s,))
                        states.append(q)
                        right_mult.append([None] * rank)
                        for t in rdesc[q] - {s}:
                            second[self._other_down_edge(right_mult, i, s, t), t] = z
                    right_mult[i][s] = z
                    right_mult[z][s] = i
            lo = hi
            counts.append(len(words) - hi)
            if len(words) > BALL_CAP:
                raise ResourceLimit(f"ball exceeds cap {BALL_CAP}")

        ldesc = [rdesc[self.run(w[::-1])] for w in words]
        left_mult: list[list[int | None]] = [[None] * rank for _ in words]
        for z in range(1, len(words)):
            x = words[z][-1]
            y = right_mult[z][x]
            for s in ldesc[z]:
                # lifting property: s.z = (s.y).x if s.y < y, else s.z = y
                d = right_mult[left_mult[y][s]][x] if s in ldesc[y] else y
                left_mult[z][s] = d
                left_mult[d][s] = z
        elements = [Element(w, ldesc[i], rdesc[states[i]])
                    for i, w in enumerate(words)]
        ball = ElementBall(
            radius=radius,
            elements=elements,
            index={w: i for i, w in enumerate(words)},
            right_mult=right_mult,
            left_mult=left_mult,
            counts=counts,
            lengths=[len(w) for w in words],
        )
        self._balls[radius] = ball
        return ball

    def _other_down_edge(self, right_mult, i: int, s: int, t: int) -> int:
        """z.t for z = i.s with right descents {s, t}: z.t = z.s.(t.s)^(m-1)
        the other way round the 2m-cycle of the coset z<s, t>, whose first
        m - 1 steps go down to its minimum and the rest up, all in the
        layers already built."""
        for _ in range(2 * int(self.presentation.m(s, t)) - 2):
            i = right_mult[i][t]
            s, t = t, s
        return i
