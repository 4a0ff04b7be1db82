import math
import re
from pathlib import Path

import numpy as np

from polycell.presentation import presentation_from_angles
from polycell.render import (
    PALETTE,
    Scene,
    color_for,
    lorentz_dot,
    realize_polygon,
    render_svg,
    scene_for_partition,
    tile,
)
from tests.conftest import realized_area


def hyperbolic_distance(p, q):
    return math.acosh(max(1.0, -lorentz_dot(p, q)))


def tile_centroid(mat, realization):
    """The Euclidean mean of a tile's vertices, pulled back to the
    hyperboloid."""
    acc = np.zeros(3)
    for v in realization.vertices:
        acc += mat @ v
    norm = -lorentz_dot(acc, acc)
    assert norm > 0
    return acc / math.sqrt(norm)


def test_triangle_area_gauss_bonnet(w237):
    real = realize_polygon(w237)
    assert abs(realized_area(real) - math.pi / 42) < 1e-8


def test_quadrilateral_area_gauss_bonnet(w2224):
    real = realize_polygon(w2224)
    assert abs(realized_area(real) - math.pi / 4) < 1e-8


def test_reflections_are_involutions(w237, w2224):
    for pres in (w237, w2224):
        real = realize_polygon(pres)
        for refl in real.reflections:
            assert np.max(np.abs(refl @ refl - np.eye(3))) < 1e-9


def test_group_relations_hold_numerically(w237):
    real = realize_polygon(w237)
    for (s, t), m in w237.adjacent_pairs():
        prod = real.reflections[s] @ real.reflections[t]
        assert np.max(np.abs(np.linalg.matrix_power(prod, m) - np.eye(3))) < 1e-6


def test_ideal_vertex_realization():
    pres = presentation_from_angles([2, 3, "inf"])
    real = realize_polygon(pres)
    expect = math.pi * (1 - 1 / 2 - 1 / 3)
    assert abs(realized_area(real) - expect) < 1e-8
    # one vertex on the light cone
    nulls = [v for v in real.vertices if abs(v[0] ** 2 + v[1] ** 2 - v[2] ** 2) < 1e-9]
    assert len(nulls) == 1


def test_all_ideal_triangle():
    pres = presentation_from_angles(["inf"] * 3)
    real = realize_polygon(pres)
    assert abs(realized_area(real) - math.pi) < 1e-8


def test_pentagon_realization():
    pres = presentation_from_angles([2, 2, 2, 2, 2])
    real = realize_polygon(pres)
    assert abs(realized_area(real) - math.pi / 2) < 1e-8


def test_tiles_identity_and_generators(g237):
    real = realize_polygon(g237.presentation)
    ball = g237.ball(2)
    mats = tile(ball, real)
    assert np.array_equal(mats[0], np.eye(3))
    for s in range(3):
        idx = ball.index[(s,)]
        assert np.allclose(mats[idx], real.reflections[s])


def test_tile_centroids_distinct(g237):
    real = realize_polygon(g237.presentation)
    ball = g237.ball(8)
    cents = [tile_centroid(m, real) for m in tile(ball, real)]
    closest = min(
        hyperbolic_distance(cents[i], cents[j])
        for i in range(len(cents))
        for j in range(i + 1, len(cents))
    )
    assert closest > 1e-6


def test_empty_scene_is_valid_svg(w237):
    real = realize_polygon(w237)
    scene = Scene(realization=real, tiles=[], coloring=[], palette=dict(PALETTE))
    data = render_svg(scene)
    text = data.decode()
    assert text.startswith("<?xml")
    assert "<circle" in text and text.rstrip().endswith("</svg>")
    assert "<path" not in text


def test_tile_count_and_determinism(g237, part237):
    real = realize_polygon(g237.presentation)
    ball = g237.ball(6)
    labels = [part237.classify(e) for e in ball.elements]
    svg1 = render_svg(scene_for_partition(ball, real, labels))
    svg2 = render_svg(scene_for_partition(ball, real, labels))
    assert svg1 == svg2
    assert svg1.count(b"<path") == len(ball)


def test_two_sided_coloring_uses_five_fills(g237, part237):
    real = realize_polygon(g237.presentation)
    ball = g237.ball(8)
    labels = [part237.classify(e) for e in ball.elements]
    svg = render_svg(scene_for_partition(ball, real, labels))
    fills = set(re.findall(rb'<path d="[^"]*" fill="([^"]+)"', svg))
    assert len(fills) == 5
    assert set(labels) == {"cid", "c0", "c1", "c2", "c3"}


def test_hash_palette_is_deterministic():
    a = color_for({}, "spec3")
    b = color_for({}, "spec3")
    assert a == b and a.startswith("hsl(")
    assert color_for(PALETTE, "c1") == PALETTE["c1"]


def test_onesided_figure_is_byte_stable(tmp_path):
    # the committed right-cell picture comes from the translation path
    from polycell.cli import main

    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "w237_onesided_level3_r10.svg"
    code = main(["render", "--group", str(root / "groups/w237.json"),
                 "--radius", "10", "--coloring", "onesided:3",
                 "--out", str(out), "--workspace", str(tmp_path / "ws")])
    assert code == 0
    assert out.read_bytes() == (root / "figures/w237_onesided_level3_r10.svg").read_bytes()
