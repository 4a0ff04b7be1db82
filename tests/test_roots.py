import math

import pytest

from polycell import presentation_from_angles
from polycell.smallroots import ESCAPED, NEG_SIMPLE, compute_small_roots


def test_simple_roots_present(w237):
    table = compute_small_roots(w237)
    for s in range(3):
        coords = table.roots[table.simple[s]]
        assert all(
            table.field.is_zero(c) if t != s else c == table.field.one
            for t, c in enumerate(coords)
        )


def test_all_ideal_polygon_has_only_simple_roots():
    # every adjacent pair is infinite, so every reflection escapes
    p = presentation_from_angles(["inf", "inf", "inf"])
    table = compute_small_roots(p)
    assert table.size == 3
    for s in range(3):
        row = table.action[table.simple[s]]
        for t in range(3):
            assert row[t] == (NEG_SIMPLE if t == s else ESCAPED)


def test_action_is_involutive(w237, w2224):
    for pres in (w237, w2224):
        table = compute_small_roots(pres)
        for i in range(table.size):
            for s in range(pres.rank):
                j = table.action[i][s]
                if j >= 0:
                    assert table.action[j][s] == i


def _float_closure(pres):
    """Independent route: the small roots and their action table by
    numeric closure, with a wide certainty margin.  A pairing
    within 1e-9 of -2 is taken as exactly -2 (a simple root against a side
    it does not meet, or its images); none may fall between the margins."""
    n = pres.rank
    gram = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = pres.m(i, j)
            gram[i][j] = 2.0 if i == j else -2.0 * math.cos(math.pi / m)
    roots = {}
    order = []

    def intern(v):
        key = tuple(round(x, 9) for x in v)
        if key not in roots:
            roots[key] = len(order)
            order.append(v)
        return roots[key]

    simple = [intern(tuple(1.0 if t == s else 0.0 for t in range(n))) for s in range(n)]
    action = []
    i = 0
    while i < len(order):
        beta = order[i]
        row = []
        for s in range(n):
            if i == simple[s]:
                row.append(NEG_SIMPLE)
                continue
            pairing = sum(beta[t] * gram[s][t] for t in range(n))
            gap = abs(pairing + 2.0)
            assert gap < 1e-9 or gap > 1e-6  # decisions stay far from the cut
            if gap < 1e-9 or pairing < -2.0:
                row.append(ESCAPED)
                continue
            img = list(beta)
            img[s] -= pairing
            row.append(intern(tuple(img)))
        action.append(tuple(row))
        i += 1
    return len(order), tuple(action), tuple(simple)


@pytest.mark.parametrize("angles", [
    [2, 3, 7], [2, 2, 2, 4], [5, 7, 9], [3, 4, "inf"], [2, 3, 4, 5],
    ["inf", 3, 8], [6, 9, "inf"], [2, 5, "inf", 3, 9], [2, 8, 3, 2, 7],
], ids=lambda angles: ",".join(map(str, angles)))
def test_small_roots_match_float_closure(angles):
    table = compute_small_roots(presentation_from_angles(angles))
    assert (table.size, table.action, table.simple) == \
        _float_closure(table.presentation)
