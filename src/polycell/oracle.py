"""Brute-force oracles, independent of the table-driven engines.

Everything here works by rewriting words with the defining relations:
braid closures enumerate complete sets of reduced expressions, cell labels
come from scanning closures for dihedral patterns, Bruhat ideals as the
products of the subwords of a reduced word (the subword property), and
Kazhdan-Lusztig polynomials from the classical one-step recursion.  None
of it shares memo tables with the main engines; agreement between the two
routes is the evidence the test suite runs on.
"""

from __future__ import annotations

from functools import cache

from .errors import ResourceLimit
from .presentation import CoxeterPresentation

Word = tuple[int, ...]

CLOSURE_CAP = 1_000_000  # most words of a braid closure


# a presentation hashes by value; the KL recursion asks for the rules
# on every closure it takes
@cache
def _braid_rules(pres: CoxeterPresentation) -> tuple[tuple[Word, Word], ...]:
    rules = []
    for (s, t), m in pres.adjacent_pairs():
        a = tuple(s if i % 2 == 0 else t for i in range(m))
        b = tuple(t if i % 2 == 0 else s for i in range(m))
        rules.append((a, b))
        rules.append((b, a))
    return tuple(rules)


def braid_closure(pres: CoxeterPresentation, word) -> frozenset[Word]:
    """All words reachable from a reduced word by braid substitutions; for a
    reduced input this is its complete set of reduced expressions.  Past
    CLOSURE_CAP words it raises ResourceLimit."""
    word = tuple(word)
    rules = _braid_rules(pres)
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for old, new in rules:
            m = len(old)
            for i in range(len(w) - m + 1):
                if w[i:i + m] == old:
                    z = w[:i] + new + w[i + m:]
                    if z not in seen:
                        if len(seen) >= CLOSURE_CAP:
                            raise ResourceLimit(f"braid closure exceeds {CLOSURE_CAP} words")
                        seen.add(z)
                        stack.append(z)
    return frozenset(seen)


def closure_is_reduced(pres: CoxeterPresentation, closure) -> bool:
    """No closure word has a letter twice in a row; kept in the package
    because perfbench/record.py re-records the references with it."""
    return not any(w[i] == w[i + 1] for w in closure for i in range(len(w) - 1))


def reduce_by_rewriting(pres: CoxeterPresentation, word) -> frozenset[Word]:
    """Closure of a possibly unreduced word under braid moves and ss-deletion,
    iterated until no shorter word appears: the reduced closure."""
    current = {tuple(word)}
    while True:
        closed: set[Word] = set()
        for w in current:
            closed |= braid_closure(pres, w)
        shorter: set[Word] = set()
        for w in closed:
            for i in range(len(w) - 1):
                if w[i] == w[i + 1]:
                    shorter.add(w[:i] + w[i + 2:])
        if not shorter:
            return frozenset(closed)
        current = shorter


# --- cell labels ------------------------------------------------------------


def oracle_classify(pres: CoxeterPresentation, word, data) -> str:
    """Cell label of a reduced word's element by scanning its full braid
    closure for dihedral longest-word factors; data is a DihedralData."""
    word = tuple(word)
    if not word:
        return "cid"
    closure = braid_closure(pres, word)
    best = 0
    for level_idx, patterns in enumerate(data.patterns_by_level, start=1):
        # both alternating forms of each dihedral longest word count
        variants = set()
        for p in patterns:
            s, t = p[0], p[1]
            variants.add(p)
            variants.add(tuple(t if i % 2 == 0 else s for i in range(len(p))))
        for w in closure:
            if any(_has_factor(w, p) for p in variants):
                best = level_idx
                break
    if best:
        return f"c{best}"
    assert len(closure) == 1
    return "c0"


def _has_factor(w: Word, p: Word) -> bool:
    m = len(p)
    return any(w[i:i + m] == p for i in range(len(w) - m + 1))


def unique_reduced_census(pres: CoxeterPresentation, ball) -> tuple[int, list[Word]]:
    """Non-identity elements with exactly one reduced expression."""
    found = []
    for e in ball.elements:
        if e.word and len(braid_closure(pres, e.word)) == 1:
            found.append(e.word)
    return len(found), found


# --- independent Kazhdan-Lusztig route --------------------------------------


class ClassicalKL:
    """P polynomials by the textbook one-step recursion over Bruhat ideals
    grown as subword products; word-based, every product by rewriting."""

    def __init__(self, pres: CoxeterPresentation):
        self.pres = pres
        self._red: dict[Word, frozenset[Word]] = {}
        self._below: dict[Word, frozenset[Word]] = {(): frozenset({()})}
        self._P: dict[tuple[Word, Word], tuple[int, ...]] = {}
        self._canon: dict[Word, Word] = {}

    def reduced_words(self, w: Word) -> frozenset[Word]:
        if w not in self._red:
            self._red[w] = braid_closure(self.pres, w)
        return self._red[w]

    def canon(self, word) -> Word:
        """Least reduced word of the element, independent of the engine
        (the reduced words of one element all have its length)."""
        word = tuple(word)
        if word not in self._canon:
            self._canon[word] = min(reduce_by_rewriting(self.pres, word))
        return self._canon[word]

    def right_descents(self, w: Word) -> set[int]:
        return {u[-1] for u in self.reduced_words(w) if u}

    def mult_gen(self, w: Word, s: int) -> Word:
        return self.canon(w + (s,))

    def below(self, w: Word) -> frozenset[Word]:
        """Canonical words x <= w for a canonical w, the subword products:
        Below(u s) = Below(u) | {x s : x in Below(u)}."""
        if w not in self._below:
            prefix = self.below(self.canon(w[:-1]))
            self._below[w] = prefix | {self.mult_gen(x, w[-1]) for x in prefix}
        return self._below[w]

    def bruhat_leq(self, v: Word, w: Word) -> bool:
        return self.canon(v) in self.below(self.canon(w))

    def kl_poly(self, v: Word, w: Word) -> tuple[int, ...]:
        """P_{v,w} via the classical recursion on a right descent of w."""
        v, w = self.canon(v), self.canon(w)
        key = (v, w)
        if key in self._P:
            return self._P[key]
        if not self.bruhat_leq(v, w):
            out: tuple[int, ...] = ()
        elif v == w:
            out = (1,)
        else:
            s = min(self.right_descents(w))
            ws = self.mult_gen(w, s)
            vs = self.mult_gen(v, s)
            c = 1 if len(vs) < len(v) else 0
            first = _poly_shift(self.kl_poly(vs, ws), 1 - c)
            second = _poly_shift(self.kl_poly(v, ws), c)
            total = _poly_add(first, second)
            for z in self._interval_below(v, ws):
                if len(self.mult_gen(z, s)) >= len(z):
                    continue
                mu = self._mu(z, ws)
                if mu:
                    shift = (len(w) - len(z)) // 2
                    term = _poly_shift(_poly_scale(self.kl_poly(v, z), mu), shift)
                    total = _poly_sub(total, term)
            out = total
        self._P[key] = out
        return out

    def _interval_below(self, v: Word, w: Word) -> list[Word]:
        """Canonical words z with v <= z <= w."""
        return [z for z in self.below(w) if v in self.below(z)]

    def _mu(self, v: Word, w: Word) -> int:
        n = len(w) - len(v)
        if n <= 0 or n % 2 == 0:
            return 0
        p = self.kl_poly(v, w)
        deg = (n - 1) // 2
        return p[deg] if len(p) > deg else 0


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_sub(a, b):
    return _poly_add(a, tuple(-c for c in b))


def _poly_scale(a, k):
    return tuple(c * k for c in a)


def _poly_shift(a, n):
    if not a:
        return ()
    return (0,) * n + tuple(a)
