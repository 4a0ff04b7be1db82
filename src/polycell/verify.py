"""Verification checks: each holds an engine result against an independent
route, or re-derives it from a defining identity.

`polycell verify` and the acceptance suite call these same functions, so
every check is written once.  Only this module imports `oracle.py`; the
engines never do.
"""

from __future__ import annotations

from . import automata
from .cells import ConjecturalPartition, level_label, partition_is_exact
from .errors import VerificationDisagreement
from .fsa import are_equivalent, count_words, intersect, reverse
from .hecke import a_lower_bounds
from .kl import KLTable
from .oracle import ClassicalKL, braid_closure, oracle_classify, unique_reduced_census
from .words import ElementBall, PolygonGroup


class Check:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


def oracle_classification(part: ConjecturalPartition, ball: ElementBall) -> Check:
    """Automaton labels against labels read off full braid closures."""
    pres = part.group.presentation
    bad = sum(part.classify(e) != oracle_classify(pres, e.word, part.data)
              for e in ball.elements)
    return Check("oracle_classification", not bad,
                 f"{bad} disagreements in {len(ball)} elements")


def census_routes(part: ConjecturalPartition, ball: ElementBall) -> Check:
    """Elements whose braid closure is a single word, by length, against
    the element counts of the c0 language."""
    group = part.group
    census, words = unique_reduced_census(group.presentation, ball)
    by_len = [0] * (ball.radius + 1)
    for w in words:
        by_len[len(w)] += 1
    c0_counts = count_words(
        intersect(automata.shortlex_fsa(group), part.languages["c0"]), ball.radius)
    return Check("census_routes", by_len == c0_counts,
                 f"{census} unique-expression elements within radius {ball.radius}")


def partition_exact(part: ConjecturalPartition) -> Check:
    """The label languages are disjoint, and their union is Red(W)."""
    return Check("partition_exact", partition_is_exact(part))


def inversion_closed(part: ConjecturalPartition) -> Check:
    """Two-sided cells are closed under w -> w^-1, and a reduced word of
    w^-1 is a reversed reduced word of w, so each label language must equal
    its reversal, at every length."""
    bad = [label for label, fsa in part.languages.items()
           if not are_equivalent(fsa, reverse(fsa))]
    return Check("inversion_closed", not bad,
                 f"{len(bad)} of {len(part.languages)} label languages differ "
                 f"from their reversals" + (f": {', '.join(bad)}" if bad else ""))


def word_counts(group: PolygonGroup, ball: ElementBall, length: int) -> Check:
    """Words of the canonical machine by length against braid-closure sizes
    of the elements up to `length`."""
    brute = [0] * (length + 1)
    for e in ball.elements:
        if e.length <= length:
            brute[e.length] += len(braid_closure(group.presentation, e.word))
    return Check("word_counts",
                 count_words(automata.canonical_fsa(group), length) == brute)


def element_counts(group: PolygonGroup, ball: ElementBall) -> Check:
    """Element counts from the ShortLex machine against the ball's layers."""
    return Check("element_counts",
                 count_words(automata.nf_transition_fsa(group), ball.radius)
                 == ball.counts)


def kl_identity(table: KLTable) -> Check:
    """The fill re-checks the defining identity on every extremal pair and
    raises VerificationDisagreement at the first that fails."""
    try:
        table.fill()
    except VerificationDisagreement as exc:
        return Check("kl_identity", False, str(exc))
    return Check("kl_identity", True, f"every extremal pair in ball({table.ball.radius})")


def kl_oracle(table: KLTable, length: int) -> Check:
    """The lower Bruhat ideal of every element up to `length` against the
    oracle's subword products, and P on each of its pairs against the
    classical one-step recursion."""
    ball = table.ball
    length = min(length, ball.radius)
    oracle = ClassicalKL(table.group.presentation)
    bad = 0
    for wi, w in enumerate(ball.elements):
        if w.length > length:
            break
        column = table.column(wi)
        ideal = {ball.index.get(x) for x in oracle.below(oracle.canon(w.word))}
        bad += len(ideal ^ set(column))
        for vi, p in column.items():
            if p != oracle.kl_poly(ball.elements[vi].word, w.word):
                bad += 1
    return Check("kl_oracle", not bad, f"{bad} mismatches up to length {length}")


def a_function(part: ConjecturalPartition, table: KLTable, sample_length: int) -> Check:
    """Lusztig's a-function is constant on two-sided cells and a(w_T) =
    l(w_T) = m(s, t), so no lower bound from structure constants may exceed
    the level value of an element's conjectured label."""
    data = part.data
    level_of_label = {level_label(i): order for i, order in enumerate(data.levels, start=1)}
    bounds = a_lower_bounds(table, sample_length)
    bad = 0
    for z, bound in bounds.items():
        cap = level_of_label.get(part.classify(table.ball.elements[z]))
        if cap is not None and bound > cap:
            bad += 1
    return Check("a_function", not bad,
                 f"{bad} violations in {len(bounds)} elements, sample length {sample_length}")


def kl_cache(table: KLTable, records: list[tuple]) -> Check:
    """A stored KL table holds exactly one record per Bruhat pair of the
    ball, each with the R, P and mu the engine computes."""
    index = table.ball.index
    want = {(v, w): rest for v, w, *rest in table.records()}
    seen: set[tuple[int, int]] = set()
    stale = extra = 0
    for v_word, w_word, *rest in records:
        pair = index.get(v_word), index.get(w_word)
        if pair not in want or pair in seen:
            extra += 1
            continue
        seen.add(pair)
        if rest != want[pair]:
            stale += 1
    missing = len(want) - len(seen)
    return Check("kl_cache", not (stale or extra or missing),
                 f"{stale} stale, {missing} missing, {extra} extra records")
