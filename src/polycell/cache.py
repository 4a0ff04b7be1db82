"""Persistent per-group workspace.

Layout under the workspace root, one directory per group:

    <group>/ball.r<N>.tsv     length <tab> word <tab> left <tab> right
    <group>/kl.r<N>.tsv       v <tab> w <tab> R coeffs <tab> P coeffs <tab> mu
    <group>/fsa/<name>.fsa    text automata, bit-exact round trip
    <group>/reports/*.json
    <group>/meta.json         group hash, tool version, validated k,
                              fellow-traveler constant, KL stamps

Only the fellow-traveler data and the KL tables are costly enough to reuse
across commands.  `meta.json` holds `choose_k`'s validated k, the measured
constant an explicit k is checked against (kept apart, so an explicit k
never poses as the validated one) and the KL stamps; a group-hash or
version mismatch drops it whole, a file of the wrong shape is
`CorruptCache`, and a KL table is reused only while its stamp, which
holds the table's sha256, matches the radius and the file; an artifact
path that is not a file is `CorruptCache` too.  A KL table is written
from the forward sweep's store, read in file order through the public
`KLTable.packed_rows()`: each v's packed R row, keyed in ascending w, beside
its packed P row.  `write_kl` formats the tail of a line, R, P and mu,
once per distinct pair of packed R and P, so a pair costs one lookup and
one concatenation, and `read_kl` parses each distinct word and coefficient
field once.
Balls, automata and reports are rewritten on every run.  Each write goes
through its own temp file and an atomic rename, so concurrent runs never
read a torn file, and each read-modify-write of `meta.json` holds an
exclusive `flock` on the group directory, so two runs updating it at once
keep both updates.  The module loads the automaton and KL layers only for
annotations, so a command pays for neither unless it runs them.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import CorruptCache, UnknownGenerator
from .presentation import CoxeterPresentation, config_dict

if TYPE_CHECKING:
    from .fsa import FSA
    from .kl import KLTable
    from .words import ElementBall


# meta.json records and their integer fields
_RECORDS = {"validated_k": ("k", "radius"),
            "fellow_traveler": ("constant", "radius")}


def group_hash(pres: CoxeterPresentation) -> str:
    blob = json.dumps(config_dict(pres), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _require_file(path: Path) -> None:
    """An artifact path that exists must be a regular file."""
    if path.exists() and not path.is_file():
        raise CorruptCache(f"{path}: not a file")


def _atomic_write(path: Path, data: bytes) -> None:
    _require_file(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class Workspace:
    def __init__(self, root):
        self.root = Path(root)

    def group_dir(self, pres: CoxeterPresentation) -> Path:
        return self.root / pres.label

    # --- meta / stamps ------------------------------------------------------

    def meta_path(self, pres) -> Path:
        return self.group_dir(pres) / "meta.json"

    def read_meta(self, pres) -> dict:
        path = self.meta_path(pres)
        empty = {"group_hash": group_hash(pres), "tool_version": __version__,
                 "artifacts": {}}
        if not path.exists():
            return empty
        try:
            meta = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptCache(f"{path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise CorruptCache(f"{path}: not a JSON object")
        if (meta.get("group_hash") != empty["group_hash"]
                or meta.get("tool_version") != __version__):
            return empty
        if not isinstance(meta.get("artifacts", {}), dict):
            raise CorruptCache(f"{path}: artifacts is not an object")
        for key, fields in _RECORDS.items():
            record = meta.get(key)
            if record is not None and not (
                    isinstance(record, dict)
                    and all(type(record.get(f)) is int for f in fields)):
                raise CorruptCache(f"{path}: {key} is not an object with "
                                   f"integer {' and '.join(fields)}")
        return meta

    def write_meta(self, pres, meta: dict) -> None:
        meta["group_hash"] = group_hash(pres)
        meta["tool_version"] = __version__
        _atomic_write(self.meta_path(pres), json.dumps(meta, indent=2).encode())

    @contextmanager
    def _update_meta(self, pres) -> Iterator[dict]:
        """meta.json to modify, written back on exit.  An exclusive flock
        on the group directory itself is held from the read to the write,
        so that two runs never lose each other's updates; it makes no
        file."""
        path = self.group_dir(pres)
        path.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            meta = self.read_meta(pres)
            yield meta
            self.write_meta(pres, meta)
        finally:
            os.close(fd)  # which releases the lock

    def stamp(self, pres, name: str, **params) -> None:
        with self._update_meta(pres) as meta:
            meta.setdefault("artifacts", {})[name] = params

    def is_fresh(self, pres, name: str, **params) -> bool:
        """The artifact's stamp holds these params and the sha256 of the
        file as it is now, so an edited or cut file is never fresh."""
        path = self.group_dir(pres) / name
        _require_file(path)
        have = self.read_meta(pres).get("artifacts", {}).get(name)
        if have is None or not path.exists():
            return False
        return have == {**params, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

    def validated_k(self, pres) -> dict | None:
        return self.read_meta(pres).get("validated_k")

    def store_validated_k(self, pres, k: int, radius: int) -> None:
        with self._update_meta(pres) as meta:
            meta["validated_k"] = {"k": k, "radius": radius}

    def fellow_traveler(self, pres, radius: int) -> int | None:
        """The stored fellow-traveler constant of ball(radius), if any."""
        record = self.read_meta(pres).get("fellow_traveler")
        return record["constant"] if record and record["radius"] == radius else None

    def store_fellow_traveler(self, pres, constant: int, radius: int) -> None:
        with self._update_meta(pres) as meta:
            meta["fellow_traveler"] = {"constant": constant, "radius": radius}

    # --- ball ----------------------------------------------------------------

    def write_ball(self, pres, ball: ElementBall) -> Path:
        names = pres.names
        # descent sets by canonical state, as sorted generator names
        desc = ["".join(names[s] for s in sorted(d)) or "-" for d in ball.descents]
        lines = []
        for w, lq, rq in zip(ball.words, ball.lstate, ball.rstate):
            lines.append("\t".join([
                str(len(w)), "".join(names[s] for s in w) or "-", desc[lq], desc[rq]]))
        path = self.group_dir(pres) / f"ball.r{ball.radius}.tsv"
        _atomic_write(path, ("\n".join(lines) + "\n").encode())
        return path

    # --- KL -------------------------------------------------------------------

    def kl_name(self, radius: int) -> str:
        return f"kl.r{radius}.tsv"

    def write_kl(self, pres, table: KLTable) -> Path:
        from .kl import poly_coeff, unpack

        ball = table.ball
        path = self.group_dir(pres) / self.kl_name(ball.radius)
        rows = table.packed_rows()  # the coefficient check, before any work
        names = pres.names
        codes = ["".join(names[s] for s in e.word) or "-" for e in ball.elements]

        def text(poly):
            return ",".join(map(str, poly)) or "0"

        def tail(r: int, p: int) -> str:
            # R_{v,w} is monic of degree l(w) - l(v), which fixes mu's place
            r_poly, p_poly = unpack(r), unpack(p)
            n = len(r_poly) - 1
            mu = poly_coeff(p_poly, (n - 1) // 2) if n % 2 else 0
            return f"\t{text(r_poly)}\t{text(p_poly)}\t{mu}\n"

        # tails[R][P]: the line's text after w, by packed R and P
        tails: dict[int, dict[int, str]] = {}
        lines = []
        for v, (row, p_row) in enumerate(rows):
            parts = []
            for (w, r), p in zip(row.items(), p_row):
                try:
                    end = tails[r][p]
                except KeyError:
                    end = tails.setdefault(r, {})[p] = tail(r, p)
                parts.append(codes[w] + end)
            head = codes[v] + "\t"
            lines.append(head + head.join(parts))
        data = "".join(lines).encode()
        _atomic_write(path, data)
        self.stamp(pres, self.kl_name(ball.radius), radius=ball.radius,
                   sha256=hashlib.sha256(data).hexdigest())
        return path

    def read_kl(self, pres, radius: int) -> list[tuple]:
        path = self.group_dir(pres) / self.kl_name(radius)
        word = functools.cache(lambda code: pres.parse_word("" if code == "-" else code))
        poly = functools.cache(lambda field: tuple(map(int, field.split(","))))
        out = []
        try:
            for line in path.read_text().splitlines():
                v, w, r, p, mu = line.split("\t")
                out.append((word(v), word(w), poly(r), poly(p), int(mu)))
        except (OSError, ValueError, UnknownGenerator) as exc:
            raise CorruptCache(f"{path}: {exc}") from exc
        return out

    # --- automata ---------------------------------------------------------------

    def write_fsa(self, pres, name: str, fsa: FSA) -> Path:
        from .fsa import to_text

        path = self.group_dir(pres) / "fsa" / f"{name}.fsa"
        _atomic_write(path, to_text(fsa).encode())
        return path

    # --- reports -------------------------------------------------------------

    def write_report(self, pres, name: str, text: str) -> Path:
        path = self.group_dir(pres) / "reports" / name
        _atomic_write(path, text.encode())
        return path
