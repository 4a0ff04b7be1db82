"""Record the benchmark's reference outputs, each confirmed by an oracle.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a source checkout.  Each workload's command runs once
in a fresh workspace; its outputs are checked against the values the
benchmark was specified with and then confirmed through an independent
route from `polycell.oracle`, which works by rewriting words with the
defining relations:

- w237-compare: the element count by a braid-closure census, and the
  conjectural labels it is compared against by `oracle_classify`;
- w2224-kauto: every element of ball(10) classified by the written cell
  automata and by `oracle_classify`, and the per-label counts by length;
- w2224-onesided: each spec language against brute-force translation of
  U^T (descents and labels from braid closures) on ball(8), as in
  criterion 08;
- w2224-kl: every Bruhat pair and P polynomial of the table's prefix up to
  length 6 against `ClassicalKL`.

Only if every confirmation holds are the outputs written to
`perfbench/references.json`, which `run.py` compares each run against.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from run import HERE, child_env, fresh_workspace
from workloads import WORKLOADS

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from polycell.cells import build_partition, dihedral_data  # noqa: E402
from polycell.fsa import from_text  # noqa: E402
from polycell.oracle import (  # noqa: E402
    ClassicalKL,
    braid_closure,
    closure_is_reduced,
    oracle_classify,
)
from polycell.presentation import load_presentation  # noqa: E402
from polycell.words import PolygonGroup  # noqa: E402

REFERENCES = HERE / "references.json"


class NotConfirmed(Exception):
    pass


def check(ok: bool, *detail) -> None:
    if not ok:
        raise NotConfirmed(repr(detail))


def _load(group_file: str):
    pres = load_presentation(ROOT / group_file)
    return pres, PolygonGroup(pres)


def closure_census(pres, radius: int) -> list[int]:
    """Elements per length, each element held as its full set of reduced
    expressions; w.s is reduced iff no word of its closure repeats a letter."""
    layer = {frozenset({()})}
    counts = [1]
    for _ in range(radius):
        nxt = set()
        for closure in layer:
            w = min(closure)
            for s in range(pres.rank):
                c = braid_closure(pres, w + (s,))
                if closure_is_reduced(pres, c):
                    nxt.add(c)
        counts.append(len(nxt))
        layer = nxt
    return counts


def confirm_compare(ws: Path, obs: dict) -> dict:
    check(obs["k"] == 6 and obs["element_count"] == 246)
    check(obs["partition_equal"] and obs["agreement_ratio"] == 1.0)
    pres, group = _load("groups/w237.json")
    census = closure_census(pres, obs["radius"])
    check(sum(census) == obs["element_count"], census)
    part = build_partition(group, obs["k"])
    ball = group.ball(obs["radius"])
    for e in ball.elements:
        check(part.classify(e) == oracle_classify(pres, e.word, part.data), e)
    return {"element_count": f"braid-closure census {census}",
            "labels": f"oracle_classify agrees on all {len(ball)} elements"}


def confirm_kauto(ws: Path, obs: dict) -> dict:
    check(obs["k"] == 4 and obs["exact_partition"])
    check(obs["validated_k"] == {"k": 4, "radius": 10})
    pres, group = _load("groups/w2224.json")
    data = dihedral_data(pres)
    langs = {label: from_text((ws / art["file"]).read_text())
             for label, art in obs["fsa_files"].items()}
    radius = 10
    tally = {label: [0] * (radius + 1) for label in langs}
    ball = group.ball(radius)
    for e in ball.elements:
        want = oracle_classify(pres, e.word, data)
        got = [label for label, fsa in langs.items() if fsa.accepts(e.word)]
        check(got == [want], e, got, want)
        tally[want][e.length] += 1
    for label, counts in tally.items():
        check(obs["element_counts_by_length"][label][:radius + 1] == counts)
    return {"labels": f"cell automata and oracle_classify agree on all "
                      f"{len(ball)} elements of ball({radius}), and on the "
                      f"per-label counts by length"}


def confirm_onesided(ws: Path, obs: dict) -> dict:
    check(len(obs["specs"]) == 22)
    pres, group = _load("groups/w2224.json")
    data = dihedral_data(pres)
    higher = {f"c{j}" for j in range(obs["level"] + 1, data.m + 1)}
    radius = obs["radius"]
    words = {spec["translator"]: () if spec["translator"] == "e"
             else pres.parse_word(spec["translator"]) for spec in obs["specs"]}
    longest = max(len(w) for w in words.values())
    # U^T by brute force: left descent set exactly T, no higher-level label
    left_descents, label = {}, {}
    for u in group.ball(radius + longest).elements:
        closure = braid_closure(pres, u.word)
        left_descents[u.word] = frozenset(z[0] for z in closure if z)
        label[u.word] = oracle_classify(pres, u.word, data)
    ball = group.ball(radius)
    for spec in obs["specs"]:
        lang = from_text((ws / spec["fsa"]["file"]).read_text())
        T = frozenset(pres.parse_word("".join(spec["pair"])))
        w = group.element(words[spec["translator"]])
        members = set()
        for u in group.ball(radius + w.length).elements:
            if left_descents[u.word] == T and label[u.word] not in higher:
                prod = group.multiply(w, u)
                if prod.length <= radius:
                    members.add(prod.word)
        for e in ball.elements:
            check(lang.accepts(e.word) == (e.word in members), spec, e)
    return {"languages": f"all {len(obs['specs'])} spec languages equal "
                         f"brute-force translation on ball({radius})"}


def confirm_kl(ws: Path, obs: dict) -> dict:
    pres, group = _load("groups/w2224.json")
    rows = {}
    for line in (ws / obs["file"]).read_text().splitlines():
        v, w, _r, p, mu = line.split("\t")
        key = tuple(pres.parse_word("" if x == "-" else x) for x in (v, w))
        rows[key] = (tuple(int(c) for c in p.split(",")), int(mu))
    check(len(rows) == obs["rows"])
    length = 6
    oracle = ClassicalKL(pres)
    elements = [e.word for e in group.ball(length).elements]
    checked = 0
    for w in elements:
        for v in elements:
            if not oracle.bruhat_leq(v, w):
                check((v, w) not in rows, v, w)
                continue
            p = oracle.kl_poly(v, w)
            n = len(w) - len(v)
            mu = p[(n - 1) // 2] if n % 2 == 1 and len(p) > (n - 1) // 2 else 0
            check(rows[(v, w)] == (p, mu), v, w, rows[(v, w)], p)
            checked += 1
    return {"prefix": f"ClassicalKL agrees on all {checked} Bruhat pairs of "
                      f"the {len(elements)} elements up to length {length}"}


CONFIRM = {
    "w237-compare": confirm_compare,
    "w2224-kauto": confirm_kauto,
    "w2224-onesided": confirm_onesided,
    "w2224-kl": confirm_kl,
}


def main(names: list[str]) -> int:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        with fresh_workspace(ROOT, wl) as ws:
            subprocess.run([sys.executable, "-m", "polycell", *wl.argv,
                            "--workspace", str(ws)],
                           cwd=ROOT, env=child_env(ROOT, 0), check=True,
                           stdout=subprocess.DEVNULL)
            observed = wl.observe(ws)
            start = time.perf_counter()
            confirmed = CONFIRM[name](ws, observed)
        print(f"{name}: confirmed in {time.perf_counter() - start:.1f}s "
              f"{confirmed}")
        refs[name] = {"observed": observed, "confirmed": confirmed}
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
