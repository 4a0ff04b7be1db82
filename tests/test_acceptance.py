"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them).  Tolerances are exact unless a numeric bound is stated inline.
Shared heavy artifacts (groups, partitions, the radius-12 table for the
triangle group) come from session fixtures.
"""

import math
import re
import time
from contextlib import contextmanager

from polycell import hecke, verify
from polycell.automata import fellow_traveler_constant
from polycell.cells import dihedral_data, omega_minimal, partition_is_exact
from polycell.compare import empirical_vs_conjectural
from polycell.fsa import count_words, difference, enumerate_words, is_subset, union
from polycell.kl import KLTable
from polycell.oracle import unique_reduced_census
from polycell.render import realize_polygon, render_svg, scene_for_partition
from tests.conftest import K_W237, K_W2224, assert_translates_match_balls, realized_area


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS {description} ({elapsed:.1f}s)")


def test_criterion_01_unique_expression_census(g237, w237, part237):
    with criterion(1, "27 unique-reduced-expression elements, under 10 s"):
        start = time.perf_counter()
        count, words = unique_reduced_census(w237, g237.ball(12))
        elapsed = time.perf_counter() - start
        assert count == 27
        listed = {w237.word_str(w) for w in words}
        assert {"r", "s", "t", "rs"} <= listed
        assert elapsed < 10.0
        # the same census by length equals the c0 language's element counts
        assert verify.census_routes(part237, g237.ball(12)).ok


def test_criterion_02_dihedral_data(w237, w2224, part2224):
    with criterion(2, "dihedral data and cell counts for both groups"):
        data237 = dihedral_data(w237)
        assert [w237.word_str(e.longest_word) for e in data237.entries] == \
            ["rt", "rsr", "stststs"]
        assert data237.levels == (2, 3, 7)
        data2224 = dihedral_data(w2224)
        assert sorted(2 * e.order for e in data2224.entries) == [4, 4, 4, 8]
        assert data2224.levels == (2, 4)
        assert data2224.predicted_cell_count == 4
        assert len(part2224.labels) == 4
        for label in part2224.labels:
            witness = next(enumerate_words(part2224.languages[label], 12), None)
            assert witness is not None and len(witness) <= 12


def test_criterion_03_partition_algebra(part237, part2224):
    with criterion(3, "per-label languages disjoint and covering, both groups"):
        for part in (part237, part2224):
            start = time.perf_counter()
            assert partition_is_exact(part)
            assert time.perf_counter() - start < 120.0


def test_criterion_04_oracle_equivalence(g237, part237, g2224, part2224):
    with criterion(4, "automata labels match braid-closure oracle to length 10"):
        start = time.perf_counter()
        for g, part in ((g237, part237), (g2224, part2224)):
            assert verify.oracle_classification(part, g.ball(10)).ok
        assert time.perf_counter() - start < 300.0


def test_criterion_05_kl_self_consistency(g237, classical237):
    with criterion(5, "defining identity on ball(10); classical recursion to length 8"):
        start = time.perf_counter()
        table = KLTable(g237, g237.ball(10))
        assert verify.kl_identity(table).ok
        assert verify.kl_oracle(table, 8, classical237).ok
        assert time.perf_counter() - start < 600.0


def test_criterion_06_empirical_agreement(g237, part237, kl237):
    with criterion(6, "empirical cells equal conjectural labels to length 8"):
        start = time.perf_counter()
        specs = omega_minimal(part237, 3, radius=12, k=K_W237)
        report = empirical_vs_conjectural(part237, kl237, trust_margin=4,
                                          specs=specs)
        assert report.partition_equal
        assert report.agreement_ratio == 1.0
        assert report.purity_ratio == 1.0
        assert report.right_cell_agreement["checked"]
        assert report.right_cell_agreement["disagreements"] == []
        assert time.perf_counter() - start < 1800.0


def test_criterion_06_empirical_agreement_w2224(g2224, part2224):
    with criterion(6, "w2224 empirical cells equal conjectural labels to length 6"):
        start = time.perf_counter()
        report = empirical_vs_conjectural(part2224, KLTable(g2224, g2224.ball(10)),
                                          trust_margin=4)
        assert (report.element_count, report.trusted_count) == (3325, 257)
        assert report.partition_equal
        assert report.agreement_ratio == 1.0
        assert report.purity_ratio == 1.0
        assert time.perf_counter() - start < 60.0


def test_criterion_07_counting(g237, g2224):
    with criterion(7, "automaton counts equal brute-force censuses"):
        for g in (g237, g2224):
            assert verify.word_counts(g, g.ball(10), 10).ok
            assert verify.element_counts(g, g.ball(12)).ok


def test_criterion_08_translation(part237):
    with criterion(8, "translated one-sided specs: membership and coverage"):
        specs = omega_minimal(part237, 3, radius=12, k=K_W237)
        assert_translates_match_balls(part237, specs, 10)
        combined = None
        for spec in specs:
            combined = spec.language if combined is None else union(combined, spec.language)
        # translates stay inside the top cell as full languages, and cover
        # it exactly through the verified range
        assert is_subset(combined, part237.languages["c3"])
        missing = difference(part237.languages["c3"], combined)
        assert count_words(missing, 10) == [0] * 11


def test_criterion_09_hecke_roundtrip(g237, kl237, part237):
    with criterion(9, "c-basis structure constants and a-function bounds"):
        lengths = kl237.ball.lengths
        ball4 = [x for x, n in enumerate(lengths) if n <= 4]
        cb = {w: hecke.c_basis(kl237, w) for w, n in enumerate(lengths) if n <= 8}
        for x in ball4:
            for y in ball4:
                recombined: dict = {}
                for z, h in hecke.h_constants(kl237, x, y).items():
                    for t, c in cb[z].items():
                        recombined[t] = recombined.get(t, 0) + h * c
                assert {t: c for t, c in recombined.items() if c} == \
                    hecke.multiply(kl237, cb[x], cb[y])
        # a-function lower bounds never exceed the conjectured level value
        assert verify.a_function(part237, kl237, 3).ok


def test_criterion_10_renderer(g237, w237, part237):
    with criterion(10, "five-color scene, exact area, stable bytes"):
        real = realize_polygon(w237)
        assert abs(realized_area(real) - math.pi / 42) < 1e-8
        ball = g237.ball(8)
        labels = [part237.classify(e) for e in ball.elements]
        svg1 = render_svg(scene_for_partition(ball, real, labels))
        svg2 = render_svg(scene_for_partition(ball, real, labels))
        assert svg1 == svg2
        fills = {}
        for label, fill in zip(
            labels,
            re.findall(rb'<path d="[^"]*" fill="([^"]+)"', svg1),
        ):
            fills.setdefault(label, set()).add(fill)
        assert set(fills) == {"cid", "c0", "c1", "c2", "c3"}
        assert all(len(v) == 1 for v in fills.values())
        palette = {k: v.pop().decode() for k, v in fills.items()}
        assert palette["cid"] == "#ffffff"
        assert len(set(palette.values())) == 5


def test_fellow_traveler_constants_are_validated(g237, g2224):
    with criterion(0, "pinned fellow-traveler constants validate at radius 10"):
        assert fellow_traveler_constant(g237, 10) <= K_W237
        assert fellow_traveler_constant(g2224, 10) <= K_W2224
