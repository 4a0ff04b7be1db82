"""Alignment of truncated empirical cells with the conjectural partition.

Empirical cells are `kl.empirical_cells` of a table over a finite ball:
two-sided cells are the strongly connected components under <=_LR, of the
left and right W-graphs' edges together.  Elements near the boundary may
sit in fragments of their true cell, so the comparison fixes a trust
margin: only elements of length <= radius - margin are judged, and for
those the restricted empirical two-sided partition is required to coincide
with the restriction of the conjectural label partition.  Right cells are
compared against the one-sided specs the same way.
"""

from __future__ import annotations

import json
from collections.abc import Hashable

from .cells import ConjecturalPartition, OneSidedCellSpec, level_label, spec_index
from .kl import KLTable, empirical_cells


class ComparisonReport:
    __slots__ = ("group", "radius", "trust_margin", "k", "element_count",
                 "trusted_count", "agreement_ratio", "partition_equal",
                 "purity_ratio", "disagreements", "boundary_flagged",
                 "right_cell_agreement")

    def __init__(self, group: str, radius: int, trust_margin: int, k: int,
                 element_count: int, trusted_count: int, agreement_ratio: float,
                 partition_equal: bool, purity_ratio: float,
                 disagreements: list[dict], boundary_flagged: list[str],
                 right_cell_agreement: dict):
        self.group = group
        self.radius = radius
        self.trust_margin = trust_margin
        self.k = k
        self.element_count = element_count
        self.trusted_count = trusted_count
        self.agreement_ratio = agreement_ratio
        self.partition_equal = partition_equal
        self.purity_ratio = purity_ratio
        self.disagreements = disagreements
        self.boundary_flagged = boundary_flagged
        self.right_cell_agreement = right_cell_agreement

    def to_json(self) -> str:
        """The report as JSON, keys in the order of `__slots__`."""
        return json.dumps({name: getattr(self, name) for name in self.__slots__},
                          indent=2) + "\n"


def _partition_map(parts: list[list[int]]) -> dict[int, int]:
    out = {}
    for ci, comp in enumerate(parts):
        for v in comp:
            out[v] = ci
    return out


def _restricted_agreement(mine: dict[int, int], theirs: dict[int, Hashable],
                          trusted: list[int]):
    """Per-element check that the two partitions restricted to the trusted
    set induce the same class."""
    mine_classes: dict[int, set[int]] = {}
    their_classes: dict[str, set[int]] = {}
    for i in trusted:
        mine_classes.setdefault(mine[i], set()).add(i)
        their_classes.setdefault(theirs[i], set()).add(i)
    agree = []
    disagree = []
    for i in trusted:
        if mine_classes[mine[i]] == their_classes[theirs[i]]:
            agree.append(i)
        else:
            disagree.append(i)
    return agree, disagree, mine_classes


def empirical_vs_conjectural(
    part: ConjecturalPartition,
    table: KLTable,
    trust_margin: int = 4,
    specs: list[OneSidedCellSpec] | None = None,
) -> ComparisonReport:
    """Compare on the ball of `table`: its radius is the report's."""
    group, ball = part.group, table.ball
    radius = ball.radius
    _, right, two_sided = empirical_cells(table)
    emp = _partition_map(two_sided)
    emp_right = _partition_map(right)

    conj = {i: part.classify(e) for i, e in enumerate(ball.elements)}
    trusted = [i for i, e in enumerate(ball.elements)
               if e.length <= radius - trust_margin]
    agree, disagree, emp_classes = _restricted_agreement(emp, conj, trusted)

    # purity: an empirical class never mixes two conjectural labels
    impure = sum(
        1 for members in emp_classes.values()
        if len({conj[i] for i in members}) > 1
    )
    purity_ratio = 1.0 - impure / max(1, len(emp_classes))

    word = group.presentation.word_str
    disagreements = [
        {
            "element": word(ball.elements[i].word),
            "conjectural": conj[i],
            "empirical_cell": sorted(
                word(ball.elements[j].word)
                for j in emp_classes[emp[i]]
            ),
        }
        for i in disagree
    ]
    boundary = [word(e.word) for e in ball.elements
                if e.length > radius - trust_margin]

    right_section: dict = {"checked": False}
    if specs is not None:
        right_section = _right_cell_comparison(
            group, ball, emp_right, specs, trusted, conj)

    return ComparisonReport(
        group=group.presentation.label,
        radius=radius,
        trust_margin=trust_margin,
        k=part.k,
        element_count=len(ball.elements),
        trusted_count=len(trusted),
        agreement_ratio=len(agree) / max(1, len(trusted)),
        partition_equal=not disagree,
        purity_ratio=purity_ratio,
        disagreements=disagreements,
        boundary_flagged=boundary,
        right_cell_agreement=right_section,
    )


def _right_cell_comparison(group, ball, emp_right, specs, trusted, conj):
    """Within the trusted region, the elements a spec language covers should
    fall into empirical right cells exactly as into specs: two partitions of
    the covered set agree on every pair when each element's classes agree."""
    word = group.presentation.word_str
    level_labels = {level_label(spec.level) for spec in specs}
    spec_of = {i: si for i in trusted if conj[i] in level_labels
               and (si := spec_index(specs, ball.elements[i].word)) is not None}
    _, disagree, emp_classes = _restricted_agreement(emp_right, spec_of,
                                                     sorted(spec_of))
    return {
        "checked": True,
        "covered_elements": len(spec_of),
        "disagreements": [
            {
                "element": word(ball.elements[i].word),
                "translator": word(specs[spec_of[i]].translator),
                "empirical_cell": sorted(
                    word(ball.elements[j].word)
                    for j in emp_classes[emp_right[i]]
                ),
            }
            for i in disagree
        ],
    }
