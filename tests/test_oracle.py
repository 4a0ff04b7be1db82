import json

import pytest

from polycell.cells import OneSidedCellSpec, omega_minimal
from polycell.compare import ComparisonReport, empirical_vs_conjectural
from polycell.errors import ResourceLimit
from polycell.kl import KLTable
from polycell.oracle import (
    ClassicalKL,
    _braid_rules,
    braid_closure,
    closure_is_reduced,
    oracle_classify,
    reduce_by_rewriting,
    unique_reduced_census,
)
from polycell.presentation import presentation_from_angles
from tests.conftest import K_W237


def test_braid_closure_examples(w237):
    pw = w237.parse_word
    assert braid_closure(w237, pw("rsr")) == {pw("rsr"), pw("srs")}
    assert braid_closure(w237, pw("r")) == {pw("r")}
    assert braid_closure(w237, pw("rt")) == {pw("rt"), pw("tr")}
    assert braid_closure(w237, ()) == {()}


def test_braid_closure_cap(w2224, monkeypatch):
    monkeypatch.setattr("polycell.oracle.CLOSURE_CAP", 2)
    with pytest.raises(ResourceLimit):
        word = w2224.parse_word("abad" * 3)
        braid_closure(w2224, word)


def test_closure_members_share_normal_form(g237, w237):
    for e in g237.ball(8).elements:
        closure = braid_closure(w237, e.word)
        assert closure_is_reduced(w237, closure)
        assert {g237.element(w).word for w in closure} == {e.word}


def test_reduce_by_rewriting(w237):
    pw = w237.parse_word
    out = reduce_by_rewriting(w237, pw("rr"))
    assert out == {()}
    out = reduce_by_rewriting(w237, pw("srust".replace("u", "r")))  # s r r s t
    assert out == {pw("t")}
    assert reduce_by_rewriting(w237, pw("rt")) & reduce_by_rewriting(w237, pw("tr"))
    assert not reduce_by_rewriting(w237, pw("rt")) & reduce_by_rewriting(w237, pw("rs"))


def test_oracle_classify_examples(w237, part237):
    data = part237.data
    pw = w237.parse_word
    assert oracle_classify(w237, (), data) == "cid"
    assert oracle_classify(w237, pw("rs"), data) == "c0"
    assert oracle_classify(w237, pw("stststs"), data) == "c3"
    assert oracle_classify(w237, pw("rt"), data) == "c1"


def test_unique_reduced_census_w237(g237, w237):
    count, words = unique_reduced_census(w237, g237.ball(12))
    assert count == 27
    listed = {w237.word_str(w) for w in words}
    for expected in ("r", "s", "t", "rs", "rst"):
        assert expected in listed
    # stabilization: the census does not grow with the ball
    count14, _ = unique_reduced_census(w237, g237.ball(14))
    assert count14 == count


def test_classical_kl_agrees(g237, w237, kl237):
    oracle = ClassicalKL(w237)
    ball = g237.ball(6)
    for v in ball.elements:
        for w in ball.elements:
            assert oracle.kl_poly(v.word, w.word) == \
                kl237.p_idx(kl237.ball.index[v.word], kl237.ball.index[w.word])


def test_classical_kl_trivial_cases(w237, g237, kl237):
    oracle = ClassicalKL(w237)
    w = g237.element(w237.parse_word("rsr"))
    assert oracle.kl_poly(w.word, w.word) == (1,)
    st = w237.parse_word("st")
    rt = w237.parse_word("rt")
    assert oracle.kl_poly(st, rt) == ()
    index = kl237.ball.index
    assert kl237.p_idx(index[g237.element(st).word], index[g237.element(rt).word]) == ()


def test_comparison_report_shape(g237, part237, kl237):
    report = empirical_vs_conjectural(part237, KLTable(g237, g237.ball(8)),
                                      trust_margin=4)
    assert report.group == "w237"
    assert report.trusted_count == sum(g237.ball(4).counts)
    assert 0.0 <= report.agreement_ratio <= 1.0
    payload = json.loads(report.to_json())
    assert list(payload)[:4] == ["group", "radius", "trust_margin", "k"]
    # identity forms its own empirical and conjectural cell
    assert payload["disagreements"] == [] or payload["disagreements"][0]["element"] != ""


def test_right_cell_disagreements_per_element(g237, part237):
    table = KLTable(g237, g237.ball(10))
    specs = omega_minimal(part237, 1, radius=10, k=K_W237)
    right = empirical_vs_conjectural(part237, table, trust_margin=4,
                                     specs=specs).right_cell_agreement
    assert right == {"checked": True, "covered_elements": 17, "disagreements": []}
    # one spec for the whole level merges the right cells: every covered
    # element then disagrees, and names its own empirical right cell
    spec = specs[0]
    merged = [OneSidedCellSpec(spec.level, spec.pair, spec.translator,
                               part237.languages["c1"])]
    right = empirical_vs_conjectural(part237, table, trust_margin=4,
                                     specs=merged).right_cell_agreement
    assert len(right["disagreements"]) == right["covered_elements"] == 17
    first = right["disagreements"][0]
    assert first["element"] == "rt" and first["translator"] == ""
    assert first["empirical_cell"] == ["rt", "rts", "rtst", "rtsts", "rtstsr", "rtstst"]


def test_comparison_report_deterministic(g237, part237):
    a = empirical_vs_conjectural(part237, KLTable(g237, g237.ball(6)), trust_margin=3)
    b = empirical_vs_conjectural(part237, KLTable(g237, g237.ball(6)), trust_margin=3)
    assert a.to_json() == b.to_json()


def test_comparison_report_json_bytes():
    # keys in field order, nested values as given, two-space indent
    report = ComparisonReport(
        group="w237", radius=6, trust_margin=3, k=4, element_count=35,
        trusted_count=11, agreement_ratio=0.5, partition_equal=False,
        purity_ratio=0.75,
        disagreements=[{"element": "rt", "empirical_cell": ["rt", "rts"],
                        "conjectural_label": "c1"}],
        boundary_flagged=["rstrs"], right_cell_agreement={"checked": False})
    assert report.to_json() == """\
{
  "group": "w237",
  "radius": 6,
  "trust_margin": 3,
  "k": 4,
  "element_count": 35,
  "trusted_count": 11,
  "agreement_ratio": 0.5,
  "partition_equal": false,
  "purity_ratio": 0.75,
  "disagreements": [
    {
      "element": "rt",
      "empirical_cell": [
        "rt",
        "rts"
      ],
      "conjectural_label": "c1"
    }
  ],
  "boundary_flagged": [
    "rstrs"
  ],
  "right_cell_agreement": {
    "checked": false
  }
}
"""


def test_equal_presentations_share_braid_rules():
    a = presentation_from_angles([2, 3, 7], label="w237")
    b = presentation_from_angles([2, 3, 7], label="w237")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != presentation_from_angles([2, 3, 8], label="w237")
    assert a != presentation_from_angles([2, 3, 7], label="other")
    _braid_rules.cache_clear()
    assert _braid_rules(a) is _braid_rules(b)
    assert _braid_rules.cache_info().currsize == 1
