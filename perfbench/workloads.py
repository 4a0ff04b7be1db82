"""The benchmark's workloads.

Each workload is one `python -m polycell` command, run in a fresh process
against a fresh workspace, so every run pays the cold caches a user pays.
A workload names the command, the validated-k stamp (if any) its
workspace starts with, how to read its outputs back, and the layer it was
chosen to stress.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(ws: Path, group: str, name: str) -> dict:
    return json.loads((ws / group / "reports" / name).read_text())


def _artifact(ws: Path, reported: str) -> dict:
    """A file the program reported, named relative to the workspace so the
    observation does not depend on where the workspace lives."""
    path = Path(reported)
    return {"file": str(path.relative_to(ws)), "sha256": _digest(path)}


def observe_compare(ws: Path) -> dict:
    return _report(ws, "w237", "compare.r12.json")


def observe_kauto(ws: Path) -> dict:
    report = _report(ws, "w2224", "partition.r12.json")
    report["fsa_files"] = {label: _artifact(ws, path)
                           for label, path in report["fsa_files"].items()}
    meta = json.loads((ws / "w2224" / "meta.json").read_text())
    report["validated_k"] = meta["validated_k"]
    return report


def observe_onesided(ws: Path) -> dict:
    report = _report(ws, "w2224", "onesided.l2.r8.json")
    for spec in report["specs"]:
        spec["fsa"] = _artifact(ws, spec["fsa"])
    return report


def observe_kl(ws: Path) -> dict:
    path = ws / "w2224" / "kl.r7.tsv"
    data = path.read_bytes()
    return {"file": str(path.relative_to(ws)),
            "sha256": hashlib.sha256(data).hexdigest(),
            "rows": data.count(b"\n"), "bytes": len(data)}


@dataclass(frozen=True)
class Workload:
    name: str
    group: str                       # group config, relative to the checkout
    argv: tuple[str, ...]            # polycell arguments, without --workspace
    observe: Callable[[Path], dict]  # outputs, read back from the workspace
    # (k, radius) stamped into the workspace before the command runs
    validated_k: tuple[int, int] | None = None
    # the layer this workload stresses: spans with one of these names, their
    # descendants, and every span of one of these modules
    focus_spans: tuple[str, ...] = ()
    focus_modules: tuple[str, ...] = ()


W237 = "groups/w237.json"
W2224 = "groups/w2224.json"

WORKLOADS = {w.name: w for w in (
    # the paper's central check; about 80% of it is the mu-only KL path
    Workload(
        name="w237-compare",
        group=W237,
        argv=("cells", "compare", "--group", W237,
              "--radius", "12", "--trust-margin", "4", "--k", "auto"),
        observe=observe_compare,
        focus_modules=("kl",),
    ),
    # the cold start every new group pays: fellow-traveler validation
    # dominates and KL is idle
    Workload(
        name="w2224-kauto",
        group=W2224,
        argv=("cells", "conjectural", "--group", W2224,
              "--radius", "12", "--k", "auto"),
        observe=observe_kauto,
        focus_spans=("automata.validate_k",),
        focus_modules=("words",),
    ),
    # the warm read path: a stored validated k skips validation, leaving
    # pair machines, translation and automaton algebra
    Workload(
        name="w2224-onesided",
        group=W2224,
        argv=("onesided", "--group", W2224, "--level", "2",
              "--radius", "8", "--k", "4"),
        observe=observe_onesided,
        validated_k=(4, 10),
        focus_spans=("automata.left_translate",),
        focus_modules=("fsa",),
    ),
    # the full KL table (P, R and Bruhat data for every pair) serialised
    # through the workspace; the other way the kl layer is used
    Workload(
        name="w2224-kl",
        group=W2224,
        argv=("kl", "--group", W2224, "--radius", "7"),
        observe=observe_kl,
        focus_spans=("kl.KLTable.fill",),
    ),
)}
