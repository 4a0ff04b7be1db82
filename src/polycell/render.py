"""Hyperbolic tessellation rendering.

Geometry runs in the hyperboloid model (Lorentz form diag(1,1,-1)): side
reflections are Lorentz-orthogonal matrices, tiles are pushed around by
left multiplication, and projection to the Poincare disk happens only at
SVG emission.  Triangles are solved in closed form from the hyperbolic law
of cosines; larger polygons place vertices on a symmetric fan of rays and
solve the radii by a damped Newton iteration with a fixed seed, so output
is reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import SolverDiverged
from .presentation import INFINITY, CoxeterPresentation
from .words import ElementBall

J = np.diag([1.0, 1.0, -1.0])
_CUTOFF = 0.9995  # disk radius that tile vertices are clipped to

PALETTE = {
    "cid": "#ffffff",
    "c0": "#f2d43e",
    "c1": "#4f7fd9",
    "c2": "#58b368",
    "c3": "#d94f4f",
}


def lorentz_dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]


def _is_null(v) -> bool:
    return abs(lorentz_dot(v, v)) < 1e-9


def reflection_matrix(u: np.ndarray) -> np.ndarray:
    """Reflection in the geodesic with spacelike Lorentz-unit normal u."""
    return np.eye(3) - 2.0 * np.outer(u, u) @ J


def _side_normal(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = np.cross(p, q)
    u = np.array([n[0], n[1], -n[2]])
    norm2 = lorentz_dot(u, u)
    assert norm2 > 0, "side does not span a geodesic plane"
    return u / math.sqrt(norm2)


def _point_at(direction: float, dist: float) -> np.ndarray:
    return np.array(
        [math.sinh(dist) * math.cos(direction),
         math.sinh(dist) * math.sin(direction),
         math.cosh(dist)]
    )


def _ideal_point(direction: float) -> np.ndarray:
    return np.array([math.cos(direction), math.sin(direction), 1.0])


def _tangent(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Tangent at hyperboloid point p toward q (hyperboloid or null)."""
    t = q + lorentz_dot(p, q) * p
    return t / math.sqrt(lorentz_dot(t, t))


def _angle_at(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    c = lorentz_dot(_tangent(p, a), _tangent(p, b))
    return math.acos(max(-1.0, min(1.0, c)))


class PolygonRealization:
    __slots__ = ("presentation", "vertices", "reflections", "angle_residual")

    def __init__(self, presentation: CoxeterPresentation, vertices: list[np.ndarray],
                 reflections: list[np.ndarray], angle_residual: float):
        self.presentation = presentation
        self.vertices = vertices          # vertex k sits between sides k-1 and k
        self.reflections = reflections    # one per side
        self.angle_residual = angle_residual


def _triangle_vertices(angles: list[float]) -> list[np.ndarray]:
    """Closed-form hyperbolic triangle with the given interior angles
    (0 marks an ideal vertex).  Vertex k between sides k-1 and k."""
    if all(a == 0.0 for a in angles):
        dirs = [math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                math.pi / 2 + 4 * math.pi / 3]
        return [_ideal_point(d) for d in dirs]
    shift = next(i for i, a in enumerate(angles) if a > 0.0)
    a = angles[shift:] + angles[:shift]

    def cosh_side(i, j, opp):
        return (math.cos(a[i]) * math.cos(a[j]) + math.cos(a[opp])) / (
            math.sin(a[i]) * math.sin(a[j]))

    v = [np.array([0.0, 0.0, 1.0])]
    if a[1] > 0.0:
        v.append(_point_at(0.0, math.acosh(cosh_side(0, 1, 2))))
    else:
        v.append(_ideal_point(0.0))
    if a[2] > 0.0:
        v.append(_point_at(a[0], math.acosh(cosh_side(0, 2, 1))))
    else:
        v.append(_ideal_point(a[0]))
    return v[-shift:] + v[:-shift] if shift else v


def _fan_vertices(angles: list[float]) -> list[np.ndarray]:
    """n >= 4: vertices on rays at equal central angles, radii solved by a
    damped Newton iteration so interior angles hit their targets."""
    n = len(angles)
    dirs = [2 * math.pi * k / n - math.pi / 2 for k in range(n)]
    free = [k for k, a in enumerate(angles) if a > 0.0]

    def build(rho):
        vs = []
        j = 0
        for k in range(n):
            if angles[k] > 0.0:
                vs.append(_point_at(dirs[k], rho[j]))
                j += 1
            else:
                vs.append(_ideal_point(dirs[k]))
        return vs

    def residual(rho):
        vs = build(rho)
        out = []
        for j, k in enumerate(free):
            ang = _angle_at(vs[k], vs[(k - 1) % n], vs[(k + 1) % n])
            out.append(ang - angles[k])
        return np.array(out)

    rho = np.full(len(free), 1.0)
    lam = 1.0
    for _ in range(200):
        r = residual(rho)
        if np.max(np.abs(r)) < 1e-13:
            return build(rho)
        h = 1e-7
        jac = np.zeros((len(free), len(free)))
        for col in range(len(free)):
            bump = rho.copy()
            bump[col] += h
            jac[:, col] = (residual(bump) - r) / h
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SolverDiverged(str(exc)) from exc
        while lam > 1e-6:
            trial = rho - lam * step
            if np.all(trial > 1e-9) and np.max(np.abs(residual(trial))) < np.max(np.abs(r)):
                rho = trial
                lam = min(1.0, lam * 2)
                break
            lam *= 0.5
        else:
            raise SolverDiverged("step damping exhausted")
    raise SolverDiverged("Newton iteration did not converge")


def realize_polygon(pres: CoxeterPresentation) -> PolygonRealization:
    n = pres.rank
    angles = [0.0 if a == INFINITY else math.pi / a for a in pres.angles]
    if n == 3:
        vertices = _triangle_vertices(angles)
    else:
        vertices = _fan_vertices(angles)
    # side k joins vertex k and vertex k+1 (vertex k sits between sides
    # k-1 and k)
    reflections = []
    for k in range(n):
        u = _side_normal(vertices[k], vertices[(k + 1) % n])
        r = reflection_matrix(u)
        # orthogonality residual guard, then a renormalization pass
        assert np.max(np.abs(r @ J @ r.T - J)) < 1e-9
        reflections.append(r)
    residual = 0.0
    for k, v in enumerate(vertices):
        if _is_null(v):
            continue
        got = _angle_at(v, vertices[(k - 1) % n], vertices[(k + 1) % n])
        residual = max(residual, abs(got - angles[k]))
    if residual > 1e-8:
        raise SolverDiverged(f"angle residual {residual}")
    return PolygonRealization(
        presentation=pres,
        vertices=vertices,
        reflections=reflections,
        angle_residual=residual,
    )


def tile(ball: ElementBall, realization: PolygonRealization) -> list[np.ndarray]:
    """Isometry per ball element: the left action sends w to the product of
    side reflections along its reduced word, that of its ShortLex prefix
    (the element w.s, s its last letter) times the last reflection."""
    mats = [np.eye(3)]
    for word, up in zip(ball.words[1:], ball.right_mult[1:]):
        mats.append(mats[up[word[-1]]] @ realization.reflections[word[-1]])
    return mats


# --- SVG ---------------------------------------------------------------------


class Scene:
    __slots__ = ("realization", "tiles", "coloring", "palette", "size")

    def __init__(self, realization: PolygonRealization, tiles: list[np.ndarray],
                 coloring: list[str], palette: dict[str, str], size: int = 800):
        self.realization = realization
        self.tiles = tiles
        self.coloring = coloring    # color key per tile
        self.palette = palette
        self.size = size


def color_for(palette: dict[str, str], key: str) -> str:
    got = palette.get(key)
    if got is not None:
        return got
    digest = hashlib.sha256(key.encode()).digest()
    hue = digest[0] * 360 // 256
    return f"hsl({hue},70%,62%)"


def _project(v: np.ndarray) -> tuple[float, float]:
    if _is_null(v):
        return v[0] / v[2], v[1] / v[2]
    return v[0] / (1.0 + v[2]), v[1] / (1.0 + v[2])


def _clip(p: tuple[float, float]) -> tuple[float, float]:
    """p pulled inside the radius _CUTOFF."""
    r = math.hypot(*p)
    if r <= _CUTOFF:
        return p
    return p[0] * _CUTOFF / r, p[1] * _CUTOFF / r


def _arc_path(points: list[tuple[float, float]], size: int) -> str:
    """Closed SVG path through the disk points with geodesic-arc edges."""
    half = size / 2.0

    def dev(p):
        return p[0] * half + half, half - p[1] * half

    parts = [f"M {dev(points[0])[0]:.4f} {dev(points[0])[1]:.4f}"]
    for i in range(len(points)):
        p = points[i]
        q = points[(i + 1) % len(points)]
        det = 2.0 * (p[0] * q[1] - p[1] * q[0])
        qx, qy = dev(q)
        if abs(det) < 1e-9:
            parts.append(f"L {qx:.4f} {qy:.4f}")
            continue
        cx = ((p[0] ** 2 + p[1] ** 2 + 1) * q[1] - (q[0] ** 2 + q[1] ** 2 + 1) * p[1]) / det
        cy = ((q[0] ** 2 + q[1] ** 2 + 1) * p[0] - (p[0] ** 2 + p[1] ** 2 + 1) * q[0]) / det
        r2 = cx * cx + cy * cy - 1.0
        if r2 <= 0:
            parts.append(f"L {qx:.4f} {qy:.4f}")
            continue
        radius = math.sqrt(r2) * half
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        sweep = 0 if cross > 0 else 1
        parts.append(f"A {radius:.4f} {radius:.4f} 0 0 {sweep} {qx:.4f} {qy:.4f}")
    parts.append("Z")
    return " ".join(parts)


def render_svg(scene: Scene) -> bytes:
    size = scene.size
    half = size / 2.0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
        f'<circle cx="{half:.4f}" cy="{half:.4f}" r="{half:.4f}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for mat, key in zip(scene.tiles, scene.coloring):
        pts = []
        for v in scene.realization.vertices:
            pts.append(_clip(_project(mat @ v)))
        path = _arc_path(pts, size)
        fill = color_for(scene.palette, key)
        lines.append(
            f'<path d="{path}" fill="{fill}" stroke="#333333" stroke-width="0.4"/>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()


def scene_for_partition(ball: ElementBall, realization: PolygonRealization,
                        labels: list[str], size: int = 800,
                        palette: dict[str, str] | None = None) -> Scene:
    return Scene(
        realization=realization,
        tiles=tile(ball, realization),
        coloring=labels,
        palette=dict(PALETTE) if palette is None else palette,
        size=size,
    )
