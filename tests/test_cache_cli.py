import argparse
import gc
import hashlib
import re
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polycell
from polycell.cache import Workspace, group_hash
from polycell.cli import _parser, main
from polycell.errors import CorruptCache, ResourceLimit
from polycell.fsa import from_text
from polycell.kl import KLTable, empirical_cells, unpack
from tests.conftest import bruhat_leq, kl_mu


@pytest.fixture()
def w237_config(tmp_path):
    cfg = {"name": "w237", "angles": [2, 3, 7], "generators": ["r", "s", "t"]}
    path = tmp_path / "w237.json"
    path.write_text(json.dumps(cfg))
    return path


def run(tmp_path, *argv):
    return main([*argv, "--workspace", str(tmp_path / "ws")])


def test_ball_roundtrip(tmp_path, w237, g237):
    ws = Workspace(tmp_path / "ws")
    ball = g237.ball(5)
    path = ws.write_ball(w237, ball)
    rows = []
    for line in path.read_text().splitlines():
        length, word, _left, _right = line.split("\t")
        rows.append((int(length), w237.parse_word("" if word == "-" else word)))
    assert [(e.length, e.word) for e in ball.elements] == rows


def test_kl_roundtrip(tmp_path, w237, g237):
    ws = Workspace(tmp_path / "ws")
    table = KLTable(g237, g237.ball(4))
    ws.write_kl(w237, table)
    rows = ws.read_kl(w237, 4)
    assert rows
    for v_word, w_word, r, p, mu in rows:
        vi = table.ball.index[v_word]
        wi = table.ball.index[w_word]
        assert bruhat_leq(table, vi, wi)
        column = table.column(wi)
        assert (unpack(table._r(vi, wi)) or (0,)) == r
        assert (column[vi] or (0,)) == p
        assert kl_mu(table, column, vi, wi) == mu


def _per_row_kl_bytes(pres, table):
    # the per-row encoder `write_kl` replaced: every pair through R, the
    # column of P and kl_mu, each polynomial formatted where it occurs
    table.fill()
    names = pres.names
    codes = ["".join(names[s] for s in e.word) or "-" for e in table.ball.elements]
    lines = []
    n = len(table.ball.elements)
    columns = [table.column(w) for w in range(n)]
    for v in range(n):
        for w in (x for x in range(n) if bruhat_leq(table, v, x)):
            lines.append("\t".join([
                codes[v],
                codes[w],
                ",".join(str(c) for c in unpack(table._r(v, w))) or "0",
                ",".join(str(c) for c in columns[w][v]) or "0",
                str(kl_mu(table, columns[w], v, w)),
            ]))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("group, radius, warm", [
    pytest.param(g, r, warm, id="-".join([g, str(r), *filter(None, [warm])]))
    for warm in (None, "empirical_cells", "column")
    for g, r in (("w237", 8), ("w2224", 6))])
def test_kl_table_bytes_match_per_row_encoder(tmp_path, request, group, radius,
                                              warm):
    """The lazy route stores R rows out of key order before the sweep, and
    the writer walks rows in key order, so a table it warmed must write the
    bytes of a cold one."""
    pres = request.getfixturevalue(group)
    g = request.getfixturevalue("g" + group[1:])
    table = KLTable(g, g.ball(radius))
    if warm == "empirical_cells":
        empirical_cells(table)
    elif warm == "column":
        table.column(len(table.ball) - 1)  # the last element's lower ideal
    if warm:
        assert any(list(row) != sorted(row) for row in table._R)
    path = Workspace(tmp_path / "ws").write_kl(pres, table)
    assert path.read_bytes() == _per_row_kl_bytes(pres, KLTable(g, g.ball(radius)))


def test_records_hold_each_bruhat_pair_once_in_file_order(g2224):
    table = KLTable(g2224, g2224.ball(5))
    records = list(table.records())
    n = len(table.ball)
    assert [(v, w) for v, w, *_ in records] == [
        (v, w) for v in range(n) for w in range(n) if bruhat_leq(table, v, w)]
    assert len(records) == sum(len(table.lower(w)) for w in range(n))
    columns = [table.column(w) for w in range(n)]
    for v, w, r, p, mu in records:
        assert (r, p, mu) == (unpack(table._r(v, w)), columns[w][v],
                              kl_mu(table, columns[w], v, w))


def test_kl_r7_matches_the_benchmark_reference(tmp_path):
    """The `kl` command writes w2224's kl.r7.tsv with the rows, bytes and
    sha256 that the benchmark's `w2224-kl` workload checks."""
    root = Path(__file__).resolve().parents[1]
    references = json.loads((root / "perfbench" / "references.json").read_text())
    want = references["w2224-kl"]["observed"]
    assert run(tmp_path, "kl", "--group", str(root / "groups" / "w2224.json"),
               "--radius", "7") == 0
    path = tmp_path / "ws" / want["file"]
    data = path.read_bytes()
    assert (data.count(b"\n"), len(data), hashlib.sha256(data).hexdigest()) == (
        want["rows"], want["bytes"], want["sha256"])


def test_kl_table_past_the_r_bound_writes_nothing(tmp_path, w237, g237, monkeypatch):
    ws = Workspace(tmp_path / "ws")
    table = KLTable(g237, g237.ball(4))
    table.fill()  # with P stored, only the R bound can trip
    monkeypatch.setattr("polycell.kl._HALF", 3 ** 4)
    with pytest.raises(ResourceLimit, match="R on ball"):
        ws.write_kl(w237, table)
    assert not (ws.group_dir(w237) / ws.kl_name(4)).exists()
    assert ws.kl_name(4) not in ws.read_meta(w237)["artifacts"]
    # the bound is checked before any work: a cold table stores no P
    cold = KLTable(g237, g237.ball(4))
    with pytest.raises(ResourceLimit, match="R on ball"):
        ws.write_kl(w237, cold)
    assert cold._P == {}
    monkeypatch.setattr("polycell.kl._HALF", 3 ** 4 + 1)
    ws.write_kl(w237, table)  # radius 4 fits a digit of 3^4 + 1
    assert ws.is_fresh(w237, ws.kl_name(4), radius=4)


def test_cli_kl_past_the_r_bound_builds_nothing(tmp_path, w237_config, capsys,
                                                monkeypatch):
    # 3^40 >= 2^63: radius 40 fails the sweep's R bound on the radius alone,
    # so the command refuses before it builds the ball or a table
    def refuse(*args):
        raise AssertionError("built before the R bound was checked")

    monkeypatch.setattr("polycell.kl.KLTable", refuse)
    monkeypatch.setattr("polycell.words.PolygonGroup.ball", refuse)
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "40") == 2
    assert capsys.readouterr().err == (
        "error: ResourceLimit: KL polynomials: R on ball(40) may carry a "
        "coefficient past the packed digit's 2^63\n")


def test_cli_kl_cap_is_exit_2(tmp_path, w237_config, capsys, monkeypatch):
    # w237's ball(4) has 25 elements: a cap of 24 stops the table before
    # its Bruhat ideals are built, and no kl file is written; 25 lets it be
    monkeypatch.setattr("polycell.kl.KL_CAP", 24)
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "4") == 2
    assert capsys.readouterr().err == (
        "error: ResourceLimit: KL table: ball(4) has 25 elements, past cap 24\n")
    assert list((tmp_path / "ws").rglob("kl.*")) == []
    monkeypatch.setattr("polycell.kl.KL_CAP", 25)
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "4") == 0
    assert [p.name for p in (tmp_path / "ws").rglob("kl.*")] == ["kl.r4.tsv"]


def test_fsa_roundtrip_bit_exact(tmp_path, w237, g237):
    from polycell.automata import canonical_fsa

    ws = Workspace(tmp_path / "ws")
    fsa = canonical_fsa(g237)
    path = ws.write_fsa(w237, "canonical", fsa)
    text = path.read_text()
    again = ws.write_fsa(w237, "canonical", from_text(path.read_text()))
    assert again.read_text() == text


def test_stale_stamp_forces_recompute(tmp_path, w237, g237, monkeypatch):
    ws = Workspace(tmp_path / "ws")
    ws.write_kl(w237, KLTable(g237, g237.ball(3)))
    assert ws.is_fresh(w237, ws.kl_name(3), radius=3)
    # different tool version invalidates every stamp
    monkeypatch.setattr("polycell.cache.__version__", "0.0.0-test")
    assert not ws.is_fresh(w237, ws.kl_name(3), radius=3)


def test_corrupt_meta_raises(tmp_path, w237):
    ws = Workspace(tmp_path / "ws")
    path = ws.meta_path(w237)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    with pytest.raises(CorruptCache):
        ws.read_meta(w237)


def test_write_kl_onto_a_directory_raises(tmp_path, w237, g237):
    ws = Workspace(tmp_path / "ws")
    path = ws.group_dir(w237) / ws.kl_name(2)
    path.mkdir(parents=True)
    with pytest.raises(CorruptCache, match="not a file"):
        ws.write_kl(w237, KLTable(g237, g237.ball(2)))
    assert path.is_dir()
    assert list(path.parent.iterdir()) == [path]  # no temp file left


def _store_k_repeatedly(root, w237, k):
    ws = Workspace(root)
    for _ in range(200):
        ws.store_validated_k(w237, k, 10)


def test_concurrent_meta_writes_stay_whole(tmp_path, w237):
    ctx = multiprocessing.get_context("spawn")
    workers = [ctx.Process(target=_store_k_repeatedly, args=(tmp_path, w237, k))
               for k in (4, 6)]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in workers] == [0, 0]
    ws = Workspace(tmp_path)
    assert ws.validated_k(w237)["k"] in (4, 6)
    assert [p.name for p in ws.group_dir(w237).iterdir()] == ["meta.json"]


def _store_after_a_slow_read(root, w237, record, barrier):
    # a delay between reading meta.json and writing it back: without a
    # lock, both writers read the file before either writes
    read = Workspace.read_meta

    def slow_read(self, pres):
        meta = read(self, pres)
        time.sleep(0.5)
        return meta

    Workspace.read_meta = slow_read
    ws = Workspace(root)
    barrier.wait()
    if record == "validated_k":
        ws.store_validated_k(w237, 6, 10)
    else:
        ws.store_fellow_traveler(w237, 7, 10)


def test_overlapping_meta_updates_both_survive(tmp_path, w237):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    workers = [ctx.Process(target=_store_after_a_slow_read,
                           args=(tmp_path, w237, record, barrier))
               for record in ("validated_k", "fellow_traveler")]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in workers] == [0, 0]
    ws = Workspace(tmp_path)
    assert ws.validated_k(w237) == {"k": 6, "radius": 10}
    assert ws.fellow_traveler(w237, 10) == 7
    assert [p.name for p in ws.group_dir(w237).iterdir()] == ["meta.json"]


# --- CLI ------------------------------------------------------------------


def test_cli_group_info(tmp_path, w237_config, capsys):
    assert main(["group", "info", "--group", str(w237_config)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["dihedral_longest_words"] == ["rt", "rsr", "stststs"]
    assert info["levels"] == [2, 3, 7]


def test_cli_ball_idempotent(tmp_path, w237_config, capsys):
    assert run(tmp_path, "ball", "--group", str(w237_config), "--radius", "5") == 0
    first = capsys.readouterr().out
    assert first.startswith("computed")
    ball_path = Path(first.split()[1])
    original = ball_path.read_bytes()
    ball_path.unlink()
    assert run(tmp_path, "ball", "--group", str(w237_config), "--radius", "5") == 0
    second = capsys.readouterr().out
    assert second == first
    assert ball_path.read_bytes() == original


def test_cli_kl_cached(tmp_path, w237_config, capsys):
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "4") == 0
    first = capsys.readouterr().out
    assert first.startswith("computed")
    kl_path = Path(first.split()[1])
    original = kl_path.read_bytes()
    inode = kl_path.stat().st_ino  # every write replaces the file
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "4") == 0
    assert capsys.readouterr().out == f"cached {kl_path}\n"
    assert kl_path.read_bytes() == original
    assert kl_path.stat().st_ino == inode


def test_cli_kl_recomputes_a_cut_table(tmp_path, w237_config, capsys):
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "3") == 0
    kl_path = Path(capsys.readouterr().out.split()[1])
    original = kl_path.read_bytes()
    kl_path.write_bytes(b"".join(original.splitlines(keepends=True)[:3]))
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "3") == 0
    assert capsys.readouterr().out == f"computed {kl_path}\n"
    assert kl_path.read_bytes() == original


@pytest.mark.parametrize("name, argv", [
    ("kl.r3.tsv", ("kl", "--radius", "3")),
    ("kl.r3.tsv", ("verify", "kl", "--radius", "3", "--oracle-length", "2")),
    ("ball.r3.tsv", ("ball", "--radius", "3")),
], ids=["kl", "verify-kl", "ball"])
def test_cli_artifact_path_is_a_directory_is_exit_2(tmp_path, w237_config, capsys,
                                                    name, argv):
    path = tmp_path / "ws" / "w237" / name
    path.mkdir(parents=True)
    assert run(tmp_path, *argv, "--group", str(w237_config)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: CorruptCache: ")
    assert name in err
    assert path.is_dir()


def test_cli_fsa_build_stats_equiv(tmp_path, w237_config, capsys):
    assert run(tmp_path, "fsa", "build", "canonical",
               "--group", str(w237_config), "--k", "6") == 0
    out = capsys.readouterr().out
    path = out.split()[1]
    assert run(tmp_path, "fsa", "stats", path,
               "--group", str(w237_config), "--radius", "6", "--k", "6") == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["word_counts"][:3] == [1, 3, 6]
    assert run(tmp_path, "fsa", "equiv", path, "canonical",
               "--group", str(w237_config), "--k", "6") == 0
    assert "equivalent: True" in capsys.readouterr().out


def test_cli_fsa_stats_counts_words_of_nondeterministic_file(tmp_path, w237_config,
                                                            capsys):
    # r+ with a dead state: the file reads as its minimal DFA, the sets {0}
    # and {0, 1}, and `states` counts the DFA's states, not the file's
    path = tmp_path / "nfa.fsa"
    path.write_text("states 3 alphabet r s t initial 0\n"
                    "0 r 0\n0 r 1\n0 s 2\naccept 1\n")
    assert run(tmp_path, "fsa", "stats", str(path),
               "--group", str(w237_config), "--radius", "3", "--k", "6") == 0
    assert json.loads(capsys.readouterr().out) == {
        "states": 2, "accepting": 1, "word_counts": [0, 1, 1, 1]}


def test_cli_subset_search_cap_is_exit_2(tmp_path, w237_config, capsys,
                                         monkeypatch):
    # the third letter from the end is r: 4 states in the file and 8 sets
    # in its subset search, so a cap of 5 stops loading the file; descent:rs
    # reverses a 35-state machine into 52 sets, so a cap of 40 stops the
    # reversal.  Both stop in the subset search, and each names its stage
    path = tmp_path / "nfa.fsa"
    path.write_text("states 4 alphabet r s t initial 0\n"
                    "0 r 0\n0 s 0\n0 t 0\n0 r 1\n"
                    + "".join(f"{q} {x} {q + 1}\n" for q in (1, 2) for x in "rst")
                    + "accept 3\n")
    monkeypatch.setattr("polycell.fsa.STATE_CAP", 5)
    assert run(tmp_path, "fsa", "stats", str(path),
               "--group", str(w237_config), "--radius", "3", "--k", "6") == 2
    assert capsys.readouterr().err == "error: StateBlowup: from_text exceeds 5 states\n"
    monkeypatch.setattr("polycell.fsa.STATE_CAP", 40)
    assert run(tmp_path, "fsa", "build", "descent:rs",
               "--group", str(w237_config), "--k", "6") == 2
    assert capsys.readouterr().err == "error: StateBlowup: reverse exceeds 40 states\n"


def test_cli_usage_error_is_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_missing_k_validation_is_exit_2(tmp_path, w237_config, capsys):
    # k = 1 cannot pass fellow-traveler validation
    code = run(tmp_path, "fsa", "build", "pattern:rt",
               "--group", str(w237_config), "--k", "1")
    assert code == 2


def test_cli_word_difference_table_cap_is_exit_2(tmp_path, w237_config, capsys,
                                                 monkeypatch):
    # the factor machine of rt passes a cap of 100 states, and the
    # word-difference table searched next (523 states) does not; a cell
    # language meets the cap at its first read, the same way
    monkeypatch.setattr("polycell.fsa.STATE_CAP", 100)
    for target in ("pattern:rt", "cell:c1"):
        code = run(tmp_path, "fsa", "build", target,
                   "--group", str(w237_config), "--k", "6")
        assert code == 2
        assert capsys.readouterr().err == \
            "error: StateBlowup: word_difference_table exceeds 100 states\n"


def test_cli_labelling_product_cap_is_exit_2(tmp_path, w237_config, capsys,
                                            monkeypatch):
    # a cap of 50 only on the partition's own search: the pattern machines
    # pass, and the labelling product (94 states) does not, whether a label
    # language or `classify` asks for it; no report is written
    from polycell import cells, fsa

    search = cells.search

    def capped(*args):
        cap, fsa.STATE_CAP = fsa.STATE_CAP, 50
        try:
            return search(*args)
        finally:
            fsa.STATE_CAP = cap

    monkeypatch.setattr(cells, "search", capped)
    for argv in (["fsa", "build", "cell:c1"],
                 ["cells", "compare", "--radius", "3"]):
        assert run(tmp_path, *argv, "--group", str(w237_config), "--k", "6") == 2
        assert capsys.readouterr().err == \
            "error: StateBlowup: labelling_machine exceeds 50 states\n"
    assert not (tmp_path / "ws" / "w237" / "reports").exists()


def test_cli_field_precision_cap_is_exit_2(tmp_path, capsys, monkeypatch):
    # the small roots of (5, 7, 9) need theta past the first 48 bits
    config = tmp_path / "w579.json"
    config.write_text('{"name": "w579", "angles": [5, 7, 9]}')
    monkeypatch.setattr("polycell.field.PRECISION_CAP", 48)
    code = run(tmp_path, "ball", "--group", str(config), "--radius", "2")
    assert code == 2
    assert capsys.readouterr().err == \
        "error: ResourceLimit: small roots: a field sign needs more than 48 bits of theta\n"
    monkeypatch.setattr("polycell.field.PRECISION_CAP", 96)
    assert run(tmp_path, "ball", "--group", str(config), "--radius", "2") == 0


def test_cli_small_root_cap_is_exit_2(tmp_path, w237_config, capsys, monkeypatch):
    # w237 has 12 small roots
    monkeypatch.setattr("polycell.smallroots.ROOT_CAP", 11)
    assert run(tmp_path, "ball", "--group", str(w237_config), "--radius", "2") == 2
    assert capsys.readouterr().err == "error: ResourceLimit: more than 11 small roots\n"


def test_cli_failed_k_reports_constant(tmp_path, w237_config, capsys):
    code = run(tmp_path, "fsa", "build", "pattern:rt",
               "--group", str(w237_config), "--k", "5")
    assert code == 2
    err = capsys.readouterr().err
    assert "k=5 fails" in err
    assert "fellow-traveler constant at radius 10 is 6" in err


def test_cli_explicit_k_leaves_auto_k(tmp_path, w237_config, capsys):
    assert run(tmp_path, "fsa", "build", "pattern:rt",
               "--group", str(w237_config), "--k", "9") == 0
    assert run(tmp_path, "cells", "conjectural", "--group", str(w237_config),
               "--radius", "4", "--k", "auto") == 0
    report_path = tmp_path / "ws" / "w237" / "reports" / "partition.r4.json"
    assert json.loads(report_path.read_text())["k"] == 6


def test_cli_explicit_k_reads_stored_constant(tmp_path, w237_config, capsys,
                                              monkeypatch):
    assert run(tmp_path, "fsa", "build", "pattern:rt",
               "--group", str(w237_config), "--k", "9") == 0
    meta = json.loads((tmp_path / "ws" / "w237" / "meta.json").read_text())
    assert meta["fellow_traveler"] == {"constant": 6, "radius": 10}
    assert "validated_k" not in meta

    def recompute(*args):
        raise AssertionError("fellow_traveler_constant recomputed")

    monkeypatch.setattr("polycell.automata.fellow_traveler_constant", recompute)
    assert run(tmp_path, "fsa", "build", "pattern:rt",
               "--group", str(w237_config), "--k", "7") == 0
    capsys.readouterr()
    assert run(tmp_path, "fsa", "build", "pattern:rt",
               "--group", str(w237_config), "--k", "5") == 2
    assert "fellow-traveler constant at radius 10 is 6" in capsys.readouterr().err


def _assert_bad_argument(code, capsys, message):
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: BadArgument: ")
    assert message in err


BAD_LETTER_FSA = "states 1 alphabet r initial 0\n0 s 0\naccept 0\n"


@pytest.mark.parametrize("argv, text, message", [
    (["stats", "{file}"], "not an automaton\n", "{file} is not a readable automaton"),
    (["stats", "{file}"], "", "{file} is not a readable automaton file: empty"),
    (["stats", "{file}"], BAD_LETTER_FSA, "{file} is not a readable automaton file: "
                                          "letter 's' is not in the alphabet"),
    (["stats", "{file}"], "states 1 alphabet r initial 0\n0 r 5\naccept 0\n",
     "{file} is not a readable automaton file: state 5 is out of range for 1 states"),
    (["stats", "{file}"], "states 1 alphabet r initial 3\naccept 0\n",
     "{file} is not a readable automaton file: state 3 is out of range for 1 states"),
    (["stats", "{file}"], "states -2 alphabet r initial 0\naccept 0\n",
     "{file} is not a readable automaton file: state 0 is out of range for -2 states"),
    (["equiv", "{file}", "canonical"], "states 1 alphabet r initial 0\naccept 7\n",
     "{file} is not a readable automaton file: state 7 is out of range for 1 states"),
    (["stats", "{file}"], "states 1 alphabet r r initial 0\n0 r 0\naccept 0\n",
     "{file} is not a readable automaton file: a letter appears twice in the "
     "alphabet ('r', 'r')"),
    (["stats", "{file}"], "states 2 alphabet r initial 0\n0 r 1\naccept 1\naccept 0\n",
     "{file} is not a readable automaton file: a second accept line"),
    (["stats", "{dir}"], None, "'{dir}' is neither a file nor an fsa target"),
    (["equiv", "canonical"], None, "needs a second automaton after 'canonical'"),
    (["build", "cell:c9"], None,
     "unknown cell label 'c9' in 'cell:c9'; labels are cid, c0, c1, c2, c3"),
    (["build", "ut:r"], None, "'r' is not a pair of generators at a finite vertex; "
                              "the pairs are rt, rs, st"),
], ids=["malformed", "empty", "bad-letter", "target-out-of-range",
        "initial-out-of-range", "negative-states", "accept-out-of-range",
        "repeated-letter", "second-accept", "directory", "equiv-one-operand",
        "unknown-cell", "ut-not-a-pair"])
def test_cli_fsa_bad_input_is_exit_2(tmp_path, w237_config, capsys, argv, text,
                                     message):
    paths = {"file": tmp_path / "bad.fsa", "dir": tmp_path / "folder"}
    if text is not None:
        paths["file"].write_text(text)
    paths["dir"].mkdir()
    argv = [arg.format(**paths) for arg in argv]
    code = run(tmp_path, "fsa", *argv, "--group", str(w237_config),
               "--radius", "3", "--k", "6")
    _assert_bad_argument(code, capsys, message.format(**paths))


@pytest.mark.parametrize("level", ["0", "-1", "4"])
@pytest.mark.parametrize("command", ["onesided", "render"])
def test_cli_missing_level_is_exit_2(tmp_path, w237_config, capsys, level, command):
    if command == "onesided":
        argv = ["onesided", "--level", level]
    else:
        argv = ["render", "--coloring", f"onesided:{level}",
                "--out", str(tmp_path / "out.svg")]
    code = run(tmp_path, *argv, "--group", str(w237_config),
               "--radius", "3", "--k", "6")
    _assert_bad_argument(code, capsys, f"level {level} does not exist; levels are 1..3")


def test_cli_non_integer_coloring_level_is_exit_2(tmp_path, w237_config, capsys):
    code = run(tmp_path, "render", "--coloring", "onesided:x",
               "--out", str(tmp_path / "out.svg"), "--group", str(w237_config),
               "--radius", "3", "--k", "6")
    _assert_bad_argument(code, capsys, "needs an integer level, got 'onesided:x'")


@pytest.mark.parametrize("argv, message", [
    (["render", "--coloring", "foo"], "unknown coloring 'foo'"),
    (["render", "--coloring", "onesided:x"], "needs an integer level, got 'onesided:x'"),
    (["onesided", "--level", "9"], "level 9 does not exist; levels are 1..3"),
], ids=["unknown-coloring", "non-integer-level", "missing-level"])
def test_cli_bad_coloring_or_level_fails_before_any_work(tmp_path, w237_config, capsys,
                                                         argv, message):
    # checked before k is chosen, so the workspace gets no meta.json
    if argv[0] == "render":
        argv = [*argv, "--out", str(tmp_path / "out.svg")]
    code = run(tmp_path, *argv, "--group", str(w237_config), "--radius", "3")
    _assert_bad_argument(code, capsys, message)
    assert list((tmp_path / "ws").rglob("meta.json")) == []


@pytest.mark.parametrize("size", ["-5", "0"])
def test_cli_render_size_below_1_is_exit_2(tmp_path, w237_config, capsys, size):
    out = tmp_path / "out.svg"
    code = run(tmp_path, "render", "--size", size, "--out", str(out),
               "--group", str(w237_config), "--radius", "2")
    _assert_bad_argument(code, capsys, f"--size must be a positive integer, got {size}")
    assert not out.exists()
    assert not (tmp_path / "ws").exists()


@pytest.mark.parametrize("mode, margin, report", [
    ("compare", "-3", "compare.r4.json"),
    ("compare", "9", "compare.r4.json"),
    ("conjectural", "-3", "partition.r4.json"),
], ids=["-3", "9", "conjectural--3"])
def test_cli_trust_margin_outside_radius_is_exit_2(tmp_path, w237_config, capsys,
                                                   mode, margin, report):
    code = run(tmp_path, "cells", mode, "--group", str(w237_config),
               "--radius", "4", "--trust-margin", margin, "--k", "6")
    _assert_bad_argument(code, capsys, f"between 0 and --radius 4, got {margin}")
    assert not (tmp_path / "ws" / "w237" / "reports" / report).exists()


@pytest.mark.parametrize("margin", ["2", "9"])
def test_cli_empirical_refuses_trust_margin(tmp_path, w237_config, capsys,
                                            monkeypatch, margin):
    # empirical mode has no --trust-margin, in range or out of it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "cells", "empirical", "--group", str(w237_config),
            "--radius", "3", "--trust-margin", margin)
    assert exc.value.code == 2
    assert "unrecognized arguments: --trust-margin" in capsys.readouterr().err
    assert not (tmp_path / "ws" / "w237" / "reports").exists()


def test_cli_unknown_letter_is_exit_2(tmp_path, w237_config, capsys):
    code = run(tmp_path, "fsa", "build", "pattern:xyz",
               "--group", str(w237_config), "--k", "6")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "unknown generator 'x'" in err
    assert "generators are r, s, t" in err


@pytest.mark.parametrize("k", ["foo", "0", "-3", "2.5"])
def test_cli_bad_k_is_exit_2(tmp_path, w237_config, capsys, k):
    code = run(tmp_path, "fsa", "build", "pattern:rt",
               "--group", str(w237_config), "--k", k)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: BadArgument: --k must be a positive integer")


@pytest.mark.parametrize("argv", [
    ["kl", "--k", "2"],
    ["group", "info", "--radius", "3"],
    ["onesided", "--level", "2", "--cap", "10"],
    ["render", "--out", "out.svg", "--trust-margin", "2"],
    ["fsa", "build", "canonical", "--cap", "10"],
    ["ball", "--cap", "10"],
    ["cells", "compare", "--cap", "10"],
    ["cells", "empirical", "--k", "2"],
], ids=["kl-k", "group-info-radius", "onesided-cap", "render-trust-margin", "fsa-cap",
        "ball-cap", "cells-compare-cap", "cells-empirical-k"])
def test_cli_rejects_an_option_the_command_does_not_read(tmp_path, w237_config, capsys,
                                                         monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # so an accepted option writes no workspace here
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--group", str(w237_config)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _parser_options() -> dict[str, list[str]]:
    """Each command the parser runs, named by its words ("cells compare"),
    with its options besides --group and --help, in the parser's order."""
    out = {}

    def walk(parser, words):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if subs:
            for name, child in subs[0].choices.items():
                walk(child, [*words, name])
            return
        out[" ".join(words)] = [a.option_strings[0] for a in parser._actions
                                if a.option_strings
                                and a.dest not in ("help", "group")]

    walk(_parser(), [])
    return out


def _readme_options() -> dict[str, list[str]]:
    """The README's options table: each command a row names, with the
    options the row lists."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.search(r"^\| subcommand .*\n\|-[-|]*\n((?:\|.*\n)+)", text, re.M)
    out = {}
    for row in rows.group(1).splitlines():
        names, options = row.split("|")[1:3]
        listed = re.findall(r"`([^`]+)`", options)
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in out, f"{name} has two rows"
            out[name] = listed[0].split() if listed else []
    return out


def test_readme_options_table_matches_the_parser():
    assert _readme_options() == _parser_options()


@pytest.mark.parametrize("argv", [
    ["cells", "empirical", "--radius", "4"],
    ["fsa", "build", "canonical", "--k", "2"],
], ids=["cells-empirical", "fsa-canonical"])
def test_cli_k_is_resolved_only_for_pair_machines(tmp_path, w237_config, capsys,
                                                  monkeypatch, argv):
    def resolve(*args):
        raise AssertionError("k resolved for a command without pair machines")

    monkeypatch.setattr("polycell.automata.choose_k", resolve)
    monkeypatch.setattr("polycell.automata.fellow_traveler_constant", resolve)
    assert run(tmp_path, *argv, "--group", str(w237_config)) == 0


def test_cli_fsa_equiv_builds_the_partition_once(tmp_path, w237_config, capsys,
                                                 monkeypatch):
    from polycell import cells

    built = []
    build = cells.build_partition
    monkeypatch.setattr(cells, "build_partition",
                        lambda *args: built.append(args) or build(*args))
    assert run(tmp_path, "fsa", "equiv", "cell:c0", "cell:c1",
               "--group", str(w237_config), "--k", "6") == 0
    assert "equivalent: False" in capsys.readouterr().out
    assert len(built) == 1


def test_cli_unknown_cell_label_builds_no_machine(tmp_path, w237_config, capsys,
                                                  monkeypatch):
    def build(*args):
        raise AssertionError("a pair machine was built to check a label")

    monkeypatch.setattr("polycell.automata.equal_endpoint_pairs", build)
    code = run(tmp_path, "fsa", "build", "cell:c9", "--group", str(w237_config),
               "--k", "6")
    _assert_bad_argument(code, capsys, "unknown cell label 'c9' in 'cell:c9'")


@pytest.mark.parametrize("argv, report", [
    (["cells", "compare", "--radius", "8"], "compare.r8.json"),
    (["verify", "oracles", "--radius", "10"], "verify.oracles.r10.json"),
], ids=["cells-compare", "verify-oracles"])
def test_cli_cap_bounds_the_ball_is_exit_2(tmp_path, w237_config, capsys, monkeypatch,
                                           argv, report):
    monkeypatch.setattr("polycell.words.BALL_CAP", 10)
    assert run(tmp_path, *argv, "--group", str(w237_config)) == 2
    err = capsys.readouterr().err
    assert err == "error: ResourceLimit: ball exceeds cap 10\n"
    assert not (tmp_path / "ws" / "w237" / "reports" / report).exists()


def _poison_one_r(monkeypatch, group, radius):
    """Every KLTable made from here on carries one R entry off by one: on a
    pair whose P `cells compare` at this radius computes, so the defining
    identity re-check of the first P that sums it fails."""
    table = KLTable(group, group.ball(radius))
    empirical_cells(table)
    v, w = min(table._P)
    init = KLTable.__init__

    def poisoned(self, *args):
        init(self, *args)
        self._R[v][w] = self._r(v, w) + 1

    monkeypatch.setattr(KLTable, "__init__", poisoned)


@pytest.mark.parametrize("argv", [
    ("kl",),
    ("cells", "compare", "--k", "6"),
], ids=["kl", "cells-compare"])
def test_cli_failed_identity_is_one_disagreement_line(tmp_path, w237_config, g237,
                                                      capsys, monkeypatch, argv):
    _poison_one_r(monkeypatch, g237, 8)
    assert run(tmp_path, *argv, "--group", str(w237_config), "--radius", "8") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("verification disagreement: defining identity failed "
                          "for pair ")
    assert not list((tmp_path / "ws" / "w237").glob("kl.*"))


def test_cli_verify_kl_reports_a_failed_identity(tmp_path, w237_config, g237, capsys,
                                                 monkeypatch):
    _poison_one_r(monkeypatch, g237, 8)
    assert run(tmp_path, "verify", "kl", "--group", str(w237_config),
               "--radius", "8", "--k", "6") == 1
    out, err = capsys.readouterr()
    assert "  kl_identity: FAIL (defining identity failed for pair " in out
    assert err == "verification disagreement: kl_identity\n"
    report = tmp_path / "ws" / "w237" / "reports" / "verify.kl.r8.json"
    assert json.loads(report.read_text())["kl_identity"]["pass"] is False


def test_cli_onesided_names_each_pair_its_own_file(tmp_path, capsys):
    # w2224 level 1 has three pairs, and each keeps a spec translated by e
    config = tmp_path / "w2224.json"
    config.write_text(json.dumps({"name": "w2224", "angles": [2, 2, 2, 4]}))
    assert run(tmp_path, "onesided", "--group", str(config), "--level", "1",
               "--radius", "8", "--k", "4") == 0
    capsys.readouterr()
    report = tmp_path / "ws" / "w2224" / "reports" / "onesided.l1.r8.json"
    specs = json.loads(report.read_text())["specs"]
    names = [Path(spec["fsa"]).name for spec in specs]
    assert len(set(names)) == len(specs)
    assert {"onesided_l1_ab_e.fsa", "onesided_l1_ad_e.fsa",
            "onesided_l1_bc_e.fsa"} <= set(names)
    for spec in specs:
        pair = "".join(spec["pair"])
        assert Path(spec["fsa"]).name == f"onesided_l1_{pair}_{spec['translator']}.fsa"
        assert from_text(Path(spec["fsa"]).read_text()).n_states == spec["states"]


def test_cli_render_out_is_a_directory_is_exit_2(tmp_path, w237_config, capsys):
    out = tmp_path / "folder"
    out.mkdir()
    code = run(tmp_path, "render", "--out", str(out), "--group", str(w237_config),
               "--radius", "2", "--k", "6", "--size", "50")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: IsADirectoryError: ")
    assert str(out) in err


def test_cli_workspace_is_a_file_is_exit_2(tmp_path, w237_config, capsys):
    ws = tmp_path / "ws"
    ws.write_text("not a directory\n")
    code = run(tmp_path, "ball", "--group", str(w237_config), "--radius", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ")
    assert str(ws) in err
    assert ws.read_text() == "not a directory\n"


def test_cli_negative_radius_is_exit_2(tmp_path, w237_config, capsys):
    code = run(tmp_path, "kl", "--group", str(w237_config), "--radius", "-1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--radius must be a nonnegative integer, got -1" in err
    assert not (tmp_path / "ws" / "w237" / "kl.r-1.tsv").exists()


def _python(cwd, *args):
    """A fresh interpreter on this package, as a user starts one: the exit
    path through `cli.run`, which in-process calls of `main` never take."""
    env = dict(os.environ, PYTHONPATH=str(Path(polycell.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def _process(tmp_path, *argv):
    return _python(tmp_path, "-m", "polycell", *argv,
                   "--workspace", str(tmp_path / "ws"))


def test_process_kl_writes_what_main_writes(tmp_path, w237_config):
    (tmp_path / "process").mkdir()
    proc = _process(tmp_path / "process", "kl", "--group", str(w237_config),
                    "--radius", "3")
    path = tmp_path / "process" / "ws" / "w237" / "kl.r3.tsv"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"computed {path}\n", "")
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "3") == 0
    assert path.read_bytes() == (tmp_path / "ws" / "w237" / "kl.r3.tsv").read_bytes()


@pytest.mark.parametrize("argv, last_line", [
    (["--radius", "-1"],
     "error: BadArgument: --radius must be a nonnegative integer, got -1"),
    (["--radius", "3", "--k", "2"], "polycell: error: unrecognized arguments: --k 2"),
], ids=["negative-radius", "unread-option"])
def test_process_errors_are_exit_2(tmp_path, w237_config, argv, last_line):
    proc = _process(tmp_path, "kl", "--group", str(w237_config), *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert lines[-1] == last_line
    assert [line for line in lines if "error:" in line] == [last_line]
    assert not (tmp_path / "ws" / "w237").exists()


def test_run_freezes_the_heap_and_exit_still_runs_atexit(tmp_path):
    proc = _python(tmp_path, "-c",
                   "import atexit, gc; from polycell.cli import run; "
                   "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
                   "run()", "--version")
    assert (proc.returncode, proc.stdout) == (0, f"{polycell.__version__}\nfrozen True\n")


@pytest.mark.parametrize("radius, code", [("3", 0), ("-1", 2)],
                         ids=["success", "typed-error"])
def test_cli_main_never_freezes(tmp_path, w237_config, radius, code):
    frozen = gc.get_freeze_count()
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", radius) == code
    assert gc.get_freeze_count() == frozen


def test_cli_negative_oracle_length_is_exit_2(tmp_path, w237_config, capsys):
    code = run(tmp_path, "verify", "kl", "--group", str(w237_config),
               "--radius", "3", "--oracle-length", "-1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--oracle-length must be a nonnegative integer, got -1" in err


BAD_NAME = "group name must be a non-empty string usable as a directory name"
BAD_GENERATORS = "generator names must be 3 distinct single characters"


@pytest.mark.parametrize("text, message", [
    ('{"name": "w237", "generators": ["r", "s", "t"]}', "no 'angles' key"),
    ('{"name": "w237", "angles": [2, 3, 7]', "readable file or JSON"),
    ('{"name": "w237", "angles": 5}', "angles must be a list, got 5"),
    ('{"name": 5, "angles": [2, 3, 7]}', BAD_NAME + ", got 5"),
    ('{"name": "", "angles": [2, 3, 7]}', BAD_NAME + ", got ''"),
    ('{"name": ".", "angles": [2, 3, 7]}', BAD_NAME + ", got '.'"),
    ('{"name": "../../x", "angles": [2, 3, 7]}', BAD_NAME + ", got '../../x'"),
    ('{"name": "w237", "angles": [2, 3, 7], "generators": 5}', BAD_GENERATORS),
    ('{"name": "w237", "angles": [2, 3, 7], "generators": ["r", "s", 7]}',
     BAD_GENERATORS),
    ('{"name": "w237", "angles": [2, 3, 7], "generators": ["r", "s", "r"]}',
     BAD_GENERATORS),
    ('{"name": "w237", "angles": [2, 3, 7], "generators": ["r", "s", "tt"]}',
     BAD_GENERATORS),
    ('{"name": "w237", "angles": [2, 3, 7], "generators": ["r", "s", " "]}',
     BAD_GENERATORS),
    ('{"name": "w237", "angles": [2, 3, 7], "generators": ["r", "s", "-"]}',
     BAD_GENERATORS),
    (json.dumps({"name": "big", "angles": [3] * 27}),
     "generator names must be 27 distinct single characters"),
])
def test_cli_bad_config_is_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["group", "info", "--group", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: BadConfig: ")
    assert message in err


def test_cli_corrupt_cache_is_exit_2(tmp_path, w237_config, capsys):
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "3") == 0
    capsys.readouterr()
    kl_path = tmp_path / "ws" / "w237" / "kl.r3.tsv"
    kl_path.write_text("garbage line without tabs\n")
    code = run(tmp_path, "verify", "kl", "--group", str(w237_config),
               "--radius", "3", "--oracle-length", "2")
    assert code == 2


def _meta_list(path):
    path.write_text("[]")


def _meta_bare_k(path):
    meta = json.loads(path.read_text())
    meta["validated_k"] = 4
    path.write_text(json.dumps(meta))


def _meta_list_artifacts(path):
    meta = json.loads(path.read_text())
    meta["artifacts"] = []
    path.write_text(json.dumps(meta))


def _meta_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("corrupt", [_meta_list, _meta_bare_k,
                                     _meta_list_artifacts, _meta_directory])
def test_cli_malformed_meta_is_exit_2(tmp_path, w237_config, capsys, corrupt):
    argv = ("cells", "conjectural", "--group", str(w237_config), "--radius", "3")
    assert run(tmp_path, *argv) == 0
    corrupt(tmp_path / "ws" / "w237" / "meta.json")
    capsys.readouterr()
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: CorruptCache: ")
    assert "meta.json" in err


def test_cli_planted_disagreement_is_exit_1(tmp_path, w237_config, capsys):
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "3") == 0
    capsys.readouterr()
    kl_path = tmp_path / "ws" / "w237" / "kl.r3.tsv"
    lines = kl_path.read_text().splitlines()
    # flip one polynomial value: well-formed record, wrong mathematics
    v, w, r, p, mu = lines[1].split("\t")
    lines[1] = "\t".join([v, w, r, "7", mu])
    kl_path.write_text("\n".join(lines) + "\n")
    code = run(tmp_path, "verify", "kl", "--group", str(w237_config),
               "--radius", "3", "--oracle-length", "2")
    assert code == 1
    err = capsys.readouterr().err
    assert "disagreement" in err


@pytest.mark.parametrize("damage", [
    lambda lines: lines[:-1],
    lambda lines: lines + lines[5:6],
    lambda lines: [],
    lambda lines: lines + ["st\trt\t0\t0\t0"],  # an incomparable pair
], ids=["last-dropped", "one-duplicated", "emptied", "incomparable-pair"])
def test_cli_kl_cache_must_hold_every_pair_once(tmp_path, w237_config, capsys,
                                               damage):
    assert run(tmp_path, "kl", "--group", str(w237_config), "--radius", "3") == 0
    kl_path = tmp_path / "ws" / "w237" / "kl.r3.tsv"
    kept = damage(kl_path.read_text().splitlines())
    kl_path.write_text("".join(line + "\n" for line in kept))
    capsys.readouterr()
    code = run(tmp_path, "verify", "kl", "--group", str(w237_config),
               "--radius", "3", "--oracle-length", "2")
    assert code == 1
    captured = capsys.readouterr()
    assert "kl_cache: FAIL" in captured.out
    assert captured.err == "verification disagreement: kl_cache\n"


def test_cli_verify_all_passes(tmp_path, w237_config, capsys):
    code = run(tmp_path, "verify", "all", "--group", str(w237_config),
               "--radius", "4", "--oracle-length", "3")
    assert code == 0
    path = Path(capsys.readouterr().out.split()[1])
    report = json.loads(path.read_text())
    assert (report.pop("group"), report.pop("radius")) == ("w237", 4)
    assert list(report) == ["oracle_classification", "census_routes",
                            "partition_exact", "inversion_closed", "word_counts",
                            "element_counts",
                            "kl_identity", "kl_oracle", "a_function"]
    assert all(check["pass"] is True for check in report.values())


def test_cli_render_deterministic(tmp_path, w237_config, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        assert run(tmp_path, "render", "--group", str(w237_config),
                   "--radius", "4", "--coloring", "twosided",
                   "--out", str(out), "--k", "6") == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_cells_conjectural_report(tmp_path, w237_config, capsys):
    assert run(tmp_path, "cells", "conjectural", "--group", str(w237_config),
               "--radius", "8", "--k", "6") == 0
    report_path = tmp_path / "ws" / "w237" / "reports" / "partition.r8.json"
    report = json.loads(report_path.read_text())
    assert report["exact_partition"] is True
    assert report["k"] == 6
    assert set(report["fsa_files"]) == {"cid", "c0", "c1", "c2", "c3"}
    counts = report["element_counts_by_length"]
    assert counts["cid"] == [1] + [0] * 8
    from polycell.automata import canonical_fsa
    from polycell.fsa import count_words
    from polycell import PolygonGroup, load_presentation

    g = PolygonGroup(load_presentation(str(w237_config)))
    total = [sum(counts[lab][n] for lab in counts) for n in range(9)]
    assert total == g.ball(8).counts
    word_counts = report["word_counts_by_length"]
    word_total = [sum(word_counts[lab][n] for lab in word_counts) for n in range(9)]
    assert word_total == count_words(canonical_fsa(g), 8)


def test_group_hash_differs(w237, w2224):
    assert group_hash(w237) != group_hash(w2224)
