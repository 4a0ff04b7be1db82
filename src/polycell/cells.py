"""Conjectural cell partition for polygon groups and its automata.

Every non-ideal vertex spans a finite dihedral subgroup; grouping vertices
by the order of that subgroup gives levels e_1 < ... < e_m.  An element is
labeled by the highest level whose longest dihedral word appears as a
factor in some reduced expression; elements with a unique reduced
expression form the pattern-free class c0 and the identity stands alone.
A word's label is fixed by which pattern languages Red(x.mu) accept it,
so one product of the canonical machine with every pattern machine, each
state labeled by the highest level accepting there, recognizes every
label at once (Epstein et al., Word Processing in Groups, 1992, ch. 1-2).
`classify` walks it, and each label language is that machine with the
label's states accepting, minimized, so disjointness and the cover of
Red(W) are exact automaton computations.  Reading one label builds the
whole machine, and so every pattern machine; `classify` builds no label
language.

One-sided data: the descent class W^T (left descents exactly T) is regular
by reversing a right-descent re-selection of the canonical machine; U^T
subtracts the higher levels' pattern machines, so the top level's builds
none; the translators w^-1 w_T are read off its automaton, each is one
left-translation step from its one-letter suffix, and the
containment-maximal ones tile the two-sided cell.  A candidate's
ShortLex-least word is a witness: a kept language that rejects it cannot
contain the candidate, so containment is walked only against the kept
languages that accept it.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem

from .automata import (
    canonical_fsa,
    left_translate,
    red_x_mu,
    right_descent_class_fsa,
    shortlex_fsa,
)
from .errors import BadArgument, InvalidDescentClass, NoFiniteVertex
from .fsa import (
    FSA,
    are_equivalent,
    difference,
    enumerate_words,
    intersect,
    is_subset,
    make_dfa,
    minimize,
    reverse,
    search,
    shortest_word,
    union,
    with_initial,
)
from .presentation import CoxeterPresentation
from .words import Element, PolygonGroup, Word

LABEL_ID = "cid"
LABEL_ZERO = "c0"


def level_label(i: int) -> str:
    return f"c{i}"


class DihedralEntry:
    __slots__ = ("pair", "order", "longest_word")

    def __init__(self, pair: tuple[int, int], order: int, longest_word: Word):
        self.pair = pair                    # generator indices, s < t
        self.order = order                  # m(s, t)
        self.longest_word = longest_word    # ShortLex-least alternating word of length m


class DihedralData:
    __slots__ = ("entries", "levels")

    def __init__(self, entries: tuple[DihedralEntry, ...], levels: tuple[int, ...]):
        self.entries = entries
        self.levels = levels    # distinct finite orders, increasing

    @property
    def m(self) -> int:
        return len(self.levels)

    def pairs_at_level(self, i: int) -> list[DihedralEntry]:
        if not 1 <= i <= self.m:
            raise BadArgument(f"level {i} does not exist; levels are 1..{self.m}")
        return [e for e in self.entries if e.order == self.levels[i - 1]]

    @property
    def patterns_by_level(self) -> list[list[Word]]:
        return [[e.longest_word for e in self.pairs_at_level(i)]
                for i in range(1, self.m + 1)]

    @property
    def predicted_cell_count(self) -> int:
        return self.m + 2


def dihedral_data(pres: CoxeterPresentation) -> DihedralData:
    entries = []
    for (s, t), m in pres.adjacent_pairs():
        word = tuple(s if i % 2 == 0 else t for i in range(m))
        entries.append(DihedralEntry(pair=(s, t), order=m, longest_word=word))
    if not entries:
        raise NoFiniteVertex("all vertices are ideal")
    entries.sort(key=lambda e: (e.order, e.pair))
    levels = tuple(sorted({e.order for e in entries}))
    return DihedralData(entries=tuple(entries), levels=levels)


class ConjecturalPartition:
    """The conjectured two-sided cells of a group at a validated k.

    `classify` walks the labelling machine (`labelling_machine`), and
    `languages` maps each label, in the order of `labels`, to the minimal
    DFA of that machine with the label's states accepting.  Each is built
    on first need and kept; a blown resource cap raises at the read that
    starts the build.  Languages passed to the constructor are read as
    they are."""

    __slots__ = ("group", "data", "k", "labels", "_machine", "_languages")

    def __init__(self, group: PolygonGroup, data: DihedralData, k: int,
                 languages: dict[str, FSA] | None = None):
        self.group = group
        self.data = data
        self.k = k
        self.labels = [LABEL_ID, LABEL_ZERO] + [
            level_label(i) for i in range(1, data.m + 1)
        ]
        self._machine = None
        self._languages = languages

    def _labelling(self) -> tuple[dict[tuple[int, int], int], list[str]]:
        if self._machine is None:
            self._machine = labelling_machine(self)
        return self._machine

    @property
    def languages(self) -> dict[str, FSA]:
        if self._languages is None:
            delta, labels = self._labelling()
            names = self.group.presentation.names
            self._languages = {
                label: minimize(make_dfa(
                    names, len(labels), 0,
                    [q for q, at in enumerate(labels) if at == label], delta))
                for label in self.labels}
        return self._languages

    def classify(self, e: Element) -> str:
        delta, labels = self._labelling()
        q = 0
        for s in e.word:
            q = delta[q, s]
        return labels[q]


def labelling_machine(part: ConjecturalPartition
                      ) -> tuple[dict[tuple[int, int], int], list[str]]:
    """The product of the canonical machine with every pattern machine,
    searched from the identity with every state accepting: its moves and
    the label of each state, that of the highest level one of whose
    pattern machines accepts there.  The start state is reached by the
    empty word alone."""
    group, data = part.group, part.data
    # by symbol, each pattern machine's successors; by pattern machine, the
    # level of each accepting state, 0 elsewhere; the dead state comes last
    cols: list[list[list[int]]] = [[] for _ in range(group.rank)]
    marks = []
    for entry in data.entries:
        m = red_x_mu(group, entry.longest_word, part.k)
        dead = m.n_states
        for s, col in enumerate(cols):
            col.append([m.transitions.get((q, s), dead) for q in range(dead + 1)])
        level = data.levels.index(entry.order) + 1
        marks.append([level if q in m.accepting else 0 for q in range(dead + 1)])
    canon = [[(s, t, cols[s]) for s, t in enumerate(row) if t is not None]
             for row in group.transitions]

    # state = (canonical state, the pattern machines' states)
    def expand(key):
        qc, qs = key
        return True, [(s, (t, tuple(map(getitem, col, qs))))
                      for s, t, col in canon[qc]]

    keys, moves, _, _ = search([(0, (0,) * len(marks))], expand)
    labels = [LABEL_ID]
    for _, qs in keys[1:]:
        level = max(map(getitem, marks, qs))
        labels.append(level_label(level) if level else LABEL_ZERO)
    return {(q, s): t for q, row in enumerate(moves) for s, t in row}, labels


def build_partition(group: PolygonGroup, k: int) -> ConjecturalPartition:
    """The partition at k; its languages are built as they are read."""
    return ConjecturalPartition(group, dihedral_data(group.presentation), k)


def partition_is_exact(part: ConjecturalPartition) -> bool:
    """Pairwise disjoint and union equal to Red(W), by automata algebra."""
    labels = part.labels
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if intersect(part.languages[a], part.languages[b]).accepting:
                return False
    total = None
    for label in labels:
        fsa = part.languages[label]
        total = fsa if total is None else union(total, fsa)
    return are_equivalent(total, canonical_fsa(part.group))


# --- descent classes and one-sided machinery ---------------------------------


def valid_descent_classes(pres: CoxeterPresentation) -> list[frozenset[int]]:
    out = [frozenset()]
    out += [frozenset({s}) for s in range(pres.rank)]
    out += [frozenset(e.pair) for e in dihedral_data(pres).entries]
    return out


def descent_class_fsa(group: PolygonGroup, T) -> FSA:
    """Red(W^T): reduced expressions of elements with left descent set
    exactly T.  Right-descent classes are unions of canonical states; the
    left-handed language is their reversal."""
    T = frozenset(T)
    if T not in set(valid_descent_classes(group.presentation)):
        raise InvalidDescentClass(f"{sorted(T)} is not a realizable descent class")
    return reverse(right_descent_class_fsa(group, T))


def _dihedral_entry(part: ConjecturalPartition, pair) -> DihedralEntry:
    by_pair = {e.pair: e for e in part.data.entries}
    if tuple(sorted(pair)) not in by_pair:
        name = part.group.presentation.word_str
        raise BadArgument(f"{name(pair)!r} is not a pair of generators at a finite "
                          f"vertex; the pairs are {', '.join(map(name, by_pair))}")
    return by_pair[tuple(sorted(pair))]


def u_t_fsa(part: ConjecturalPartition, pair: tuple[int, int]) -> FSA:
    """Red(U^T): the descent class minus the higher-level cells, that is,
    minus every pattern machine of a higher level."""
    entry = _dihedral_entry(part, pair)
    out = descent_class_fsa(part.group, frozenset(entry.pair))
    for other in part.data.entries:
        if other.order > entry.order:
            out = difference(out, red_x_mu(part.group, other.longest_word, part.k))
    return minimize(out)


def omega_elements(part: ConjecturalPartition, pair: tuple[int, int], ut: FSA,
                   radius: int) -> list[Word]:
    """ShortLex words of the translators w^-1 w_T, w in U^T (the language
    `ut`) and |w| <= radius, by (length, word).  Each such w is w_T . v
    with lengths adding (T is a set of left descents of w), so the
    translators v^-1 are the reversals of the words `ut` accepts after
    w_T's word."""
    w_t = _dihedral_entry(part, pair).longest_word
    after_w_t = with_initial(ut, reduce(ut.step, w_t, ut.initial))
    translators = intersect(reverse(after_w_t), shortlex_fsa(part.group))
    return list(enumerate_words(translators, radius - len(w_t)))


class OneSidedCellSpec:
    __slots__ = ("level", "pair", "translator", "language")

    def __init__(self, level: int, pair: tuple[int, int], translator: Word,
                 language: FSA):
        self.level = level
        self.pair = pair
        self.translator = translator    # ShortLex word
        self.language = language


def _spec_candidates(part: ConjecturalPartition, i: int,
                     radius: int) -> list[OneSidedCellSpec]:
    """One spec per translator omega of each pair at the level, with the
    language Red(omega * U^T); the one place translation is composed.
    Translators are suffix-closed: for w = w_T . v in U^T, a prefix
    w_T . v' has left descents T (no element has three) and no higher
    pattern (w would share it), so it is in U^T with translator v'^-1, a
    suffix of v^-1.  Suffixes of ShortLex words are ShortLex, so omega =
    s.v comes after v, and its language is one left_translate step by s
    from v's; the identity's language is U^T."""
    group = part.group
    out = []
    for entry in part.data.pairs_at_level(i):
        translated = {(): u_t_fsa(part, entry.pair)}
        for omega in omega_elements(part, entry.pair, translated[()], radius):
            if omega:
                translated[omega] = left_translate(
                    group, translated[omega[1:]], omega[0], part.k)
            out.append(OneSidedCellSpec(
                level=i, pair=entry.pair, translator=omega,
                language=translated[omega],
            ))
    return out


def omega_minimal(part: ConjecturalPartition, i: int,
                  radius: int) -> list[OneSidedCellSpec]:
    """Keep the translators whose translated languages are containment-
    maximal, shortest translator first; ties broken by ShortLex, duplicate
    languages collapsed.  A candidate's ShortLex-least word rules out every
    kept language that rejects it, so containment is walked only against
    the kept languages that accept that word; an empty candidate is
    contained in any kept language."""
    cands = _spec_candidates(part, i, radius)
    cands.sort(key=lambda c: (len(c.translator), c.translator, c.pair))
    kept: list[OneSidedCellSpec] = []
    for cand in cands:
        word = shortest_word(cand.language)
        if not any((word is None or other.language.accepts(word))
                   and is_subset(cand.language, other.language)
                   for other in kept):
            kept.append(cand)
    return kept


def spec_index(specs: list[OneSidedCellSpec], word: Word) -> int | None:
    """Index of the first spec whose language accepts the word, if any."""
    return next((si for si, spec in enumerate(specs)
                 if spec.language.accepts(word)), None)
