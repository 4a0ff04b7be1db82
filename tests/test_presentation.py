import json

import pytest

from polycell.errors import BadDenominator, NonHyperbolic, TooFewSides
from polycell.presentation import (
    INFINITY,
    config_dict,
    load_presentation,
    presentation_from_angles,
)


def test_w237_matrix(w237):
    r, s, t = 0, 1, 2
    assert w237.m(r, s) == 3
    assert w237.m(r, t) == 2
    assert w237.m(s, t) == 7
    assert all(w237.m(i, i) == 1 for i in range(3))


def test_w2224_orders(w2224):
    orders = sorted(2 * m for _, m in w2224.adjacent_pairs())
    assert orders == [4, 4, 4, 8]
    assert w2224.m(0, 2) == INFINITY
    assert w2224.m(1, 3) == INFINITY


def test_matrix_symmetric(w2224):
    n = w2224.rank
    for i in range(n):
        for j in range(n):
            assert w2224.m(i, j) == w2224.m(j, i)


def test_euclidean_triangle_rejected():
    with pytest.raises(NonHyperbolic):
        presentation_from_angles([3, 3, 3])


def test_right_angled_square_rejected():
    with pytest.raises(NonHyperbolic):
        presentation_from_angles([2, 2, 2, 2])


@pytest.mark.parametrize("angles, message", [
    ([3, 3, 3], "angle sum 1*pi is not less than 1*pi"),
    ([2, 2, 2], "angle sum 3/2*pi is not less than 1*pi"),
    ([2, 2, 2, 2], "angle sum 2*pi is not less than 2*pi"),
    ([2, 2, "inf"], "angle sum 1*pi is not less than 1*pi"),
], ids=["333", "222", "2222", "22inf"])
def test_non_hyperbolic_message(angles, message):
    with pytest.raises(NonHyperbolic) as exc:
        presentation_from_angles(angles)
    assert str(exc.value) == message


def test_too_few_sides():
    with pytest.raises(TooFewSides):
        presentation_from_angles([2, 3])


def test_bad_denominator():
    with pytest.raises(BadDenominator):
        presentation_from_angles([1, 3, 7])
    with pytest.raises(BadDenominator):
        presentation_from_angles([2, 3, 7.5])


def test_ideal_vertices_allowed():
    p = presentation_from_angles([2, 3, "inf"])
    assert p.angles[2] == INFINITY
    assert p.m(1, 2) == INFINITY  # side pair at the ideal vertex


def test_all_ideal_allowed():
    p = presentation_from_angles(["inf"] * 3)
    assert p.adjacent_pairs() == []


def test_load_from_json_string():
    cfg = {"name": "w237", "angles": [2, 3, 7], "generators": ["r", "s", "t"]}
    p = load_presentation(json.dumps(cfg))
    assert p.names == ("r", "s", "t")
    assert p.label == "w237"
    assert config_dict(p) == cfg


def test_load_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"name": "q", "angles": [2, 2, 2, 4]}))
    p = load_presentation(path)
    assert p.rank == 4
    assert p.names == ("a", "b", "c", "d")


def test_word_parsing_roundtrip(w237):
    assert w237.parse_word("rst") == (0, 1, 2)
    assert w237.word_str((0, 1, 2)) == "rst"


def test_lcm_order(w237, w2224):
    assert w237.lcm_order() == 42
    assert w2224.lcm_order() == 4
