"""Small roots of the standard geometric representation.

The doubled Gram matrix has entries 2 on the diagonal, -2*cos(pi/m(s,t))
for adjacent sides and -2 for non-adjacent (m = inf) pairs.  Starting from
the simple roots, reflecting a small root beta by a generator s gives

    s(beta) = beta - <alpha_s, beta> alpha_s      (doubled pairing)

which is again small unless beta = alpha_s (image negative) or the doubled
pairing is <= -2, in which case the image dominates beta and leaves the
small-root set for good.  The set is finite; its reflection table is the
transition structure of the canonical reduced-word automaton.
"""

from __future__ import annotations

from .errors import ResourceLimit
from .field import RealCyclotomicField, Scalar
from .presentation import INFINITY, CoxeterPresentation

NEG_SIMPLE = -1
ESCAPED = -2

ROOT_CAP = 100_000  # most small roots of a group; more raise ResourceLimit

Coords = tuple[Scalar, ...]


class SmallRootTable:
    __slots__ = ("presentation", "field", "roots", "depths", "action", "simple")

    def __init__(self, presentation: CoxeterPresentation, field: RealCyclotomicField,
                 roots: tuple[Coords, ...], depths: tuple[int, ...],
                 action: tuple[tuple[int, ...], ...], simple: tuple[int, ...]):
        self.presentation = presentation
        self.field = field
        self.roots = roots
        self.depths = depths
        self.action = action  # action[root][gen] -> root index / NEG_SIMPLE / ESCAPED
        self.simple = simple

    @property
    def size(self) -> int:
        return len(self.roots)


def doubled_gram(pres: CoxeterPresentation, field: RealCyclotomicField):
    n = pres.rank
    g = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = pres.m(i, j)
            if i == j:
                g[i][j] = field.two
            elif m == INFINITY:
                g[i][j] = field.from_int(-2)
            else:
                g[i][j] = field.neg(field.two_cos(field.N // int(m)))
    return g


def compute_small_roots(pres: CoxeterPresentation) -> SmallRootTable:
    field = RealCyclotomicField(pres.lcm_order())
    n = pres.rank
    gram = doubled_gram(pres, field)

    roots: list[Coords] = []
    depths: list[int] = []
    index: dict[Coords, int] = {}

    def intern(coords: Coords, depth: int) -> int:
        i = index.get(coords)
        if i is None:
            if len(roots) >= ROOT_CAP:
                raise ResourceLimit(f"more than {ROOT_CAP} small roots")
            i = len(roots)
            index[coords] = i
            roots.append(coords)
            depths.append(depth)
        return i

    simple = []
    for s in range(n):
        coords = tuple(field.one if t == s else field.zero for t in range(n))
        simple.append(intern(coords, 1))

    action: list[list[int]] = []
    i = 0
    while i < len(roots):
        beta = roots[i]
        row = []
        for s in range(n):
            if i == simple[s]:
                row.append(NEG_SIMPLE)
                continue
            pairing = field.zero
            for t in range(n):
                if not field.is_zero(beta[t]):
                    pairing = field.add(pairing, field.mul(beta[t], gram[s][t]))
            sgn = field.sign(field.add(pairing, field.two))
            if sgn <= 0:
                row.append(ESCAPED)
                continue
            # a small root other than alpha_s never pairs >= 2 against it
            assert field.sign(field.sub(pairing, field.two)) < 0
            # alpha_s has s-coordinate 1, so only that coordinate moves
            coords = list(beta)
            coords[s] = field.sub(beta[s], pairing)
            row.append(intern(tuple(coords), depths[i] + 1))
        action.append(row)
        i += 1

    return SmallRootTable(
        presentation=pres,
        field=field,
        roots=tuple(roots),
        depths=tuple(depths),
        action=tuple(tuple(r) for r in action),
        simple=tuple(simple),
    )
