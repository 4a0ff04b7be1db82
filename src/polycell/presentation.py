"""Hyperbolic polygon presentations.

A polygon with n geodesic sides and interior angles pi/a_1, ..., pi/a_n
(a_k = inf marks an ideal vertex) generates a Coxeter group: one involution
per side, with m(s,t) finite exactly for cyclically adjacent sides.  The
vertex carrying angle pi/a_k is the one shared by sides k-1 and k (0-based,
cyclic), so m(g_{k-1}, g_k) = a_k.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import BadConfig, BadDenominator, NonHyperbolic, TooFewSides, UnknownGenerator

INFINITY = math.inf

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


class CoxeterPresentation:
    """Equal and hashed by value: the oracles cache per presentation."""

    __slots__ = ("names", "angles", "matrix", "label")

    def __init__(self, names: tuple[str, ...], angles: tuple[float, ...],
                 matrix: tuple[tuple[float, ...], ...], label: str = "group"):
        self.names = names
        self.angles = angles  # integer denominators, INFINITY for ideal vertices
        self.matrix = matrix
        self.label = label

    def _key(self):
        return self.names, self.angles, self.matrix, self.label

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def rank(self) -> int:
        return len(self.names)

    def m(self, s: int, t: int) -> float:
        return self.matrix[s][t]

    def finite_orders(self) -> list[int]:
        return [int(a) for a in self.angles if a != INFINITY]

    def lcm_order(self) -> int:
        n = 1
        for a in self.finite_orders():
            n = math.lcm(n, a)
        return n

    def adjacent_pairs(self) -> list[tuple[tuple[int, int], int]]:
        """Cyclically adjacent generator pairs with finite order, one per
        non-ideal vertex: ((s, t), m) with s < t."""
        out = []
        n = self.rank
        for k, a in enumerate(self.angles):
            if a == INFINITY:
                continue
            s, t = (k - 1) % n, k
            out.append(((min(s, t), max(s, t)), int(a)))
        return out

    def word_str(self, word) -> str:
        return "".join(self.names[s] for s in word)

    def parse_word(self, text: str) -> tuple[int, ...]:
        idx = {name: i for i, name in enumerate(self.names)}
        try:
            return tuple(idx[ch] for ch in text)
        except KeyError as exc:
            raise UnknownGenerator(f"unknown generator {exc.args[0]!r} in {text!r}; "
                                   f"generators are {', '.join(self.names)}") from None


def _checked_names(angles, names, label) -> tuple[str, ...]:
    """The generator names, `a`, `b`, ... by default, after checking the
    config's shape.  The label names the group's workspace directory; words
    are parsed one character per generator, automaton files split the
    alphabet on spaces, and '-' stands for the identity in the TSVs."""
    if not isinstance(angles, (list, tuple)):
        raise BadConfig(f"angles must be a list, got {angles!r}")
    if (not isinstance(label, str) or label in ("", ".", "..")
            or "/" in label or "\\" in label):
        raise BadConfig(f"group name must be a non-empty string usable as a "
                        f"directory name, got {label!r}")
    if names is None:
        names = list(_DEFAULT_NAMES[:len(angles)])
    if not (isinstance(names, (list, tuple)) and len(names) == len(angles)
            and all(isinstance(x, str) and len(x) == 1 and not x.isspace()
                    and x != "-" for x in names)
            and len(set(names)) == len(names)):
        raise BadConfig(f"generator names must be {len(angles)} distinct single "
                        f"characters, none a space or '-', got {names!r}")
    return tuple(names)


def presentation_from_angles(angles, names=None, label="group") -> CoxeterPresentation:
    names = _checked_names(angles, names, label)
    n = len(angles)
    if n < 3:
        raise TooFewSides(f"need at least 3 sides, got {n}")
    parsed = []
    for a in angles:
        if a == INFINITY or a == "inf":
            parsed.append(INFINITY)
        elif isinstance(a, int) and a >= 2:
            parsed.append(float(a))
        else:
            raise BadDenominator(f"angle denominator must be an integer >= 2 or inf: {a!r}")
    # the angle sum over pi is num/den
    finite = [int(a) for a in parsed if a != INFINITY]
    den = math.lcm(*finite)
    num = sum(den // a for a in finite)
    if num >= (n - 2) * den:
        g = math.gcd(num, den)
        total = str(num // g) if g == den else f"{num // g}/{den // g}"
        raise NonHyperbolic(f"angle sum {total}*pi is not less than {n - 2}*pi")
    matrix = [[INFINITY] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 1.0
    for k, a in enumerate(parsed):
        if a == INFINITY:
            continue
        i, j = (k - 1) % n, k
        matrix[i][j] = matrix[j][i] = a
    return CoxeterPresentation(
        names=names,
        angles=tuple(parsed),
        matrix=tuple(tuple(row) for row in matrix),
        label=label,
    )


def load_presentation(source) -> CoxeterPresentation:
    """Build a presentation from a JSON config: {"name": ..., "angles": [...]}
    with optional "generators".  Accepts a dict, a JSON string, or a path."""
    if isinstance(source, dict):
        cfg = source
    else:
        text = str(source)
        try:
            if Path(text).exists():
                text = Path(text).read_text()
        except OSError:
            pass
        try:
            cfg = json.loads(text)
        except ValueError as exc:
            raise BadConfig(f"group config is not a readable file or JSON: {exc}") from None
    if not isinstance(cfg, dict) or "angles" not in cfg:
        raise BadConfig("group config has no 'angles' key")
    return presentation_from_angles(
        cfg["angles"], names=cfg.get("generators"), label=cfg.get("name", "group")
    )


def config_dict(pres: CoxeterPresentation) -> dict:
    angles = ["inf" if a == INFINITY else int(a) for a in pres.angles]
    return {"name": pres.label, "angles": angles, "generators": list(pres.names)}
