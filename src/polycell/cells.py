"""Conjectural cell partition for polygon groups and its automata.

Every non-ideal vertex spans a finite dihedral subgroup; grouping vertices
by the order of that subgroup gives levels e_1 < ... < e_m.  An element is
labeled by the highest level whose longest dihedral word appears as a
factor in some reduced expression; elements with a unique reduced
expression form the pattern-free class c0 and the identity stands alone.
Each label's reduced-expression language is assembled from the pattern
machines by boolean algebra, so membership tests, disjointness and the
cover of Red(W) are all exact automaton computations.  A partition builds
each label language the first time it is read, from the labels above it,
so a command pays only for the languages it reads: the top level's U^T
reads none, and `classify` reads only the pattern machines, which
`automata.red_x_mu` keeps.

One-sided data: the descent class W^T (left descents exactly T) is regular
by reversing a right-descent re-selection of the canonical machine; U^T
subtracts the higher cells; the translators w^-1 w_T are read off its
automaton, each is one left-translation step from its one-letter suffix,
and the containment-maximal ones tile the two-sided cell.  A candidate's
ShortLex-least word is a witness: a kept language that rejects it cannot
contain the candidate, so containment is walked only against the kept
languages that accept it.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce

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
    epsilon_language,
    intersect,
    is_empty,
    is_subset,
    minimize,
    reverse,
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

    def level_of(self, order: int) -> int:
        return self.levels.index(order) + 1

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

    `languages` maps each label, in the order of `labels`, to its minimal
    DFA.  A label language is built the first time it is read and kept:
    c_i is the union of the level's pattern machines minus the union of the
    labels above it, c0 is Red(W) minus every other label, and each union
    of higher labels is made once and shared by the levels below.  Reading
    every label builds each product exactly once; reading none builds no
    machine.  Pattern machines come from `automata.red_x_mu`, whose memo is
    their only cache.  A build that blows a resource cap raises at the read
    that starts it.  Languages passed to the constructor are read as they
    are, and the others are built from them."""

    __slots__ = ("group", "data", "k", "labels", "languages")

    def __init__(self, group: PolygonGroup, data: DihedralData, k: int,
                 languages: dict[str, FSA] | None = None):
        self.group = group
        self.data = data
        self.k = k
        self.labels = [LABEL_ID, LABEL_ZERO] + [
            level_label(i) for i in range(1, data.m + 1)
        ]
        self.languages = _LabelLanguages(self, languages or {})

    def classify(self, e: Element) -> str:
        if not e.word:
            return LABEL_ID
        for i in range(self.data.m, 0, -1):
            for entry in self.data.pairs_at_level(i):
                if red_x_mu(self.group, entry.longest_word, self.k).accepts(e.word):
                    return level_label(i)
        return LABEL_ZERO


class _LabelLanguages(Mapping):
    """label -> minimal DFA of a partition, each built on first read."""

    __slots__ = ("_part", "_built", "_above")

    def __init__(self, part: ConjecturalPartition, given: dict[str, FSA]):
        self._part = part
        self._built = dict(given)
        self._above: dict[int, FSA] = {}  # level i -> union of labels above i

    def __getitem__(self, label: str) -> FSA:
        fsa = self._built.get(label)
        if fsa is None:
            if label not in self:
                raise KeyError(label)
            fsa = self._built[label] = self._build(label)
        return fsa

    def __contains__(self, label) -> bool:
        return label in self._part.labels

    def __iter__(self):
        return iter(self._part.labels)

    def __len__(self) -> int:
        return len(self._part.labels)

    def _higher(self, i: int) -> FSA | None:
        """The union of the labels of the levels above i, None above the
        top level."""
        if i == self._part.data.m:
            return None
        if i not in self._above:
            above, label = self._higher(i + 1), self[level_label(i + 1)]
            self._above[i] = label if above is None else union(above, label)
        return self._above[i]

    def _build(self, label: str) -> FSA:
        part = self._part
        if label == LABEL_ID:
            return epsilon_language(part.group.presentation.names)
        if label == LABEL_ZERO:
            rest = union(self[LABEL_ID], self._higher(0))
            return minimize(difference(canonical_fsa(part.group), rest))
        i = part.labels.index(label) - 1
        level = reduce(union, (red_x_mu(part.group, e.longest_word, part.k)
                               for e in part.data.pairs_at_level(i)))
        higher = self._higher(i)
        return minimize(level if higher is None else difference(level, higher))


def build_partition(group: PolygonGroup, k: int) -> ConjecturalPartition:
    """The partition at k; its languages are built as they are read."""
    return ConjecturalPartition(group, dihedral_data(group.presentation), k)


def partition_is_exact(part: ConjecturalPartition) -> bool:
    """Pairwise disjoint and union equal to Red(W), by automata algebra."""
    labels = part.labels
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if not is_empty(intersect(part.languages[a], part.languages[b])):
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
    right = right_descent_class_fsa(group, T)
    return minimize(reverse(right))


def _dihedral_entry(part: ConjecturalPartition, pair) -> DihedralEntry:
    by_pair = {e.pair: e for e in part.data.entries}
    if tuple(sorted(pair)) not in by_pair:
        name = part.group.presentation.word_str
        raise BadArgument(f"{name(pair)!r} is not a pair of generators at a finite "
                          f"vertex; the pairs are {', '.join(map(name, by_pair))}")
    return by_pair[tuple(sorted(pair))]


def u_t_fsa(part: ConjecturalPartition, pair: tuple[int, int]) -> FSA:
    """Red(U^T): the descent class minus all higher-level cells."""
    data = part.data
    entry = _dihedral_entry(part, pair)
    i = data.level_of(entry.order)
    out = descent_class_fsa(part.group, frozenset(entry.pair))
    for j in range(i + 1, data.m + 1):
        out = difference(out, part.languages[level_label(j)])
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


def _spec_candidates(part: ConjecturalPartition, i: int, radius: int,
                     k: int) -> list[OneSidedCellSpec]:
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
                    group, translated[omega[1:]], omega[0], k)
            out.append(OneSidedCellSpec(
                level=i, pair=entry.pair, translator=omega,
                language=translated[omega],
            ))
    return out


def omega_minimal(part: ConjecturalPartition, i: int, radius: int,
                  k: int) -> list[OneSidedCellSpec]:
    """Keep the translators whose translated languages are containment-
    maximal, shortest translator first; ties broken by ShortLex, duplicate
    languages collapsed.  A candidate's ShortLex-least word rules out every
    kept language that rejects it, so containment is walked only against
    the kept languages that accept that word; an empty candidate is
    contained in any kept language."""
    cands = _spec_candidates(part, i, radius, k)
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
