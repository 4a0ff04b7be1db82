"""Command-line pipelines over a persistent workspace.

Exit codes: 0 success, 1 a verification found a disagreement, 2 usage,
resource, cache-integrity or file-system errors.

Each command loads the engine modules it runs when it runs, so that no
command pays for another's: `kl` never loads the automaton stack, and only
`verify` loads the oracles and only `render` numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .cache import Workspace, group_hash
from .errors import BadArgument, KNotValidated, PolycellError, VerificationDisagreement
from .presentation import load_presentation
from .words import PolygonGroup

if TYPE_CHECKING:
    from .fsa import FSA

def _context(args):
    if args.radius < 0:
        raise BadArgument(f"--radius must be a nonnegative integer, got {args.radius}")
    pres = load_presentation(args.group)
    return pres, PolygonGroup(pres), Workspace(args.workspace)


def _resolve_k(ws: Workspace, pres, group, k_arg: str) -> int:
    from .automata import VALIDATION_RADIUS, choose_k, fellow_traveler_constant

    cached = ws.validated_k(pres)
    if k_arg == "auto":
        if cached and cached["radius"] >= VALIDATION_RADIUS:
            return cached["k"]
        k = choose_k(group)
        ws.store_validated_k(pres, k, VALIDATION_RADIUS)
        return k
    try:
        k = int(k_arg)
    except ValueError:
        k = 0
    if k < 1:
        raise BadArgument(f"--k must be a positive integer or 'auto', got {k_arg!r}")
    if cached and cached["k"] <= k and cached["radius"] >= VALIDATION_RADIUS:
        return k
    # only choose_k's answer is stored as validated_k: a stored explicit k
    # would become what --k auto returns
    constant = ws.fellow_traveler(pres, VALIDATION_RADIUS)
    if constant is None:
        constant = fellow_traveler_constant(group, VALIDATION_RADIUS)
        ws.store_fellow_traveler(pres, constant, VALIDATION_RADIUS)
    if constant > k:
        raise KNotValidated(
            f"k={k} fails fellow-traveler validation; fellow-traveler constant "
            f"at radius {VALIDATION_RADIUS} is {constant}"
        )
    return k


# --- subcommand implementations ----------------------------------------------


def cmd_group_info(args) -> int:
    from .cells import dihedral_data

    pres = load_presentation(args.group)
    group = PolygonGroup(pres)
    data = dihedral_data(pres)
    info = {
        "name": pres.label,
        "hash": group_hash(pres),
        "generators": list(pres.names),
        "coxeter_matrix": [
            ["inf" if m == float("inf") else int(m) for m in row]
            for row in pres.matrix
        ],
        "dihedral_longest_words": [
            pres.word_str(e.longest_word) for e in data.entries
        ],
        "levels": list(data.levels),
        "predicted_two_sided_cells": data.predicted_cell_count,
        "small_roots": group.table.size,
        "canonical_states": len(group.transitions),
    }
    print(json.dumps(info, indent=2))
    return 0


def cmd_ball(args) -> int:
    pres, group, ws = _context(args)
    ball = group.ball(args.radius)
    path = ws.write_ball(pres, ball)
    print(f"computed {path} ({len(ball)} elements)")
    return 0


def cmd_kl(args) -> int:
    from .kl import KLTable, _check_radius

    pres, group, ws = _context(args)
    _check_radius(args.radius)  # before the ball is built
    name = ws.kl_name(args.radius)
    if ws.is_fresh(pres, name, radius=args.radius):
        print(f"cached {ws.group_dir(pres) / name}")
        return 0
    table = KLTable(group, group.ball(args.radius))
    path = ws.write_kl(pres, table)
    print(f"computed {path}")
    return 0


def _trust_margin(args) -> int:
    margin = args.trust_margin
    if margin is None:
        return min(4, args.radius)
    if not 0 <= margin <= args.radius:
        raise BadArgument(f"--trust-margin must be between 0 and --radius "
                          f"{args.radius}, got {margin}")
    return margin


def cmd_cells_conjectural(args) -> int:
    from .automata import shortlex_fsa
    from .cells import build_partition, partition_is_exact
    from .fsa import count_words, intersect

    pres, group, ws = _context(args)
    margin = _trust_margin(args)
    k = _resolve_k(ws, pres, group, args.k)
    part = build_partition(group, k)
    # build every label language before writing any, so a blown cap
    # leaves no file behind
    languages = dict(part.languages)
    refs = {}
    for label, fsa in languages.items():
        path = ws.write_fsa(pres, f"cell_{label}", fsa)
        refs[label] = str(path)
    nf = shortlex_fsa(group)
    counts = {
        label: count_words(intersect(nf, fsa), args.radius)
        for label, fsa in languages.items()
    }
    word_counts = {
        label: count_words(fsa, args.radius)
        for label, fsa in languages.items()
    }
    report = {
        "group": pres.label,
        "k": k,
        "radius": args.radius,
        "trust_margin": margin,
        "exact_partition": partition_is_exact(part),
        "element_counts_by_length": counts,
        "word_counts_by_length": word_counts,
        "fsa_files": refs,
    }
    path = ws.write_report(pres, f"partition.r{args.radius}.json", report)
    print(f"wrote {path}")
    return 0


def cmd_cells_empirical(args) -> int:
    from .kl import KLTable, empirical_cells

    pres, group, ws = _context(args)
    ball = group.ball(args.radius)
    left, right, two_sided = empirical_cells(KLTable(group, ball))
    report = {
        "group": pres.label,
        "radius": args.radius,
        "left_cells": len(left),
        "right_cells": len(right),
        "two_sided_cells": len(two_sided),
        "cells": [
            [pres.word_str(ball.words[i]) for i in comp]
            for comp in two_sided
        ],
    }
    path = ws.write_report(pres, f"empirical.r{args.radius}.json", report)
    print(f"wrote {path}")
    return 0


def cmd_cells_compare(args) -> int:
    from .cells import build_partition
    from .compare import empirical_vs_conjectural
    from .kl import KLTable

    pres, group, ws = _context(args)
    margin = _trust_margin(args)
    ball = group.ball(args.radius)
    part = build_partition(group, _resolve_k(ws, pres, group, args.k))
    report = empirical_vs_conjectural(part, KLTable(group, ball),
                                      trust_margin=margin)
    path = ws.write_report(pres, f"compare.r{args.radius}.json", report)
    print(f"wrote {path} (agreement {report['agreement_ratio']:.3f})")
    if not report["partition_equal"]:
        raise VerificationDisagreement("empirical cells disagree with the partition")
    return 0


def _build_target(args, pres, group, ws, target: str, made: dict) -> FSA:
    """`made` holds the command's k and partition: each is made at most
    once, and only for a target that builds a pair machine."""
    from .automata import canonical_fsa, factor_fsa, red_x_mu, shortlex_fsa
    from .cells import build_partition, descent_class_fsa, u_t_fsa

    kind, colon, arg = target.partition(":")
    if target == "canonical":
        return canonical_fsa(group)
    if target == "shortlex":
        return shortlex_fsa(group)
    if kind == "factor":
        return factor_fsa(group, pres.parse_word(arg))
    if kind == "descent":
        return descent_class_fsa(group, frozenset(pres.parse_word(arg)))
    if not colon or kind not in ("cell", "pattern", "ut"):
        raise BadArgument(f"{target!r} is neither a file nor an fsa target")
    if "k" not in made:
        made["k"] = _resolve_k(ws, pres, group, args.k)
    if kind == "pattern":
        return red_x_mu(group, pres.parse_word(arg), made["k"])
    if "part" not in made:
        made["part"] = build_partition(group, made["k"])
    part = made["part"]
    if kind == "ut":
        return u_t_fsa(part, tuple(sorted(pres.parse_word(arg))))
    if arg not in part.labels:
        raise BadArgument(f"unknown cell label {arg!r} in {target!r}; "
                          f"labels are {', '.join(part.labels)}")
    return part.languages[arg]


def cmd_fsa(args) -> int:
    from .fsa import are_equivalent, count_words

    pres, group, ws = _context(args)
    made: dict = {}
    if args.action == "build":
        fsa = _build_target(args, pres, group, ws, args.target, made)
        name = args.target.replace(":", "_")
        path = ws.write_fsa(pres, name, fsa)
        print(f"wrote {path} ({fsa.n_states} states)")
        return 0
    if args.action == "stats":
        fsa = _load_or_build(args, pres, group, ws, args.target, made)
        print(json.dumps({
            "states": fsa.n_states,
            "accepting": len(fsa.accepting),
            "word_counts": count_words(fsa, args.radius),
        }, indent=2))
        return 0
    # equiv
    if args.other is None:
        raise BadArgument(f"fsa equiv needs a second automaton after "
                          f"{args.target!r}: a file or a target")
    a = _load_or_build(args, pres, group, ws, args.target, made)
    b = _load_or_build(args, pres, group, ws, args.other, made)
    same = are_equivalent(a, b)
    print(f"equivalent: {same}")
    return 0


def _load_or_build(args, pres, group, ws, ref: str, made: dict) -> FSA:
    from .fsa import from_text

    path = Path(ref)
    if not path.is_file():
        return _build_target(args, pres, group, ws, ref, made)
    try:
        return from_text(path.read_text())
    except (OSError, ValueError) as exc:
        raise BadArgument(f"{ref} is not a readable automaton file: {exc}") from exc


def cmd_onesided(args) -> int:
    from .cells import build_partition, dihedral_data, omega_minimal

    pres, group, ws = _context(args)
    # one translator word may serve several pairs of a level
    several = len(dihedral_data(pres).pairs_at_level(args.level)) > 1
    k = _resolve_k(ws, pres, group, args.k)
    part = build_partition(group, k)
    specs = omega_minimal(part, args.level, args.radius)
    entries = []
    for spec in specs:
        word = pres.word_str(spec.translator) or "e"
        pair = pres.word_str(spec.pair) + "_" if several else ""
        name = f"onesided_l{spec.level}_{pair}{word}"
        path = ws.write_fsa(pres, name, spec.language)
        entries.append({
            "level": spec.level,
            "pair": [pres.names[s] for s in spec.pair],
            "translator": word,
            "fsa": str(path),
            "states": spec.language.n_states,
        })
    report = {
        "group": pres.label,
        "level": args.level,
        "radius": args.radius,
        "k": k,
        "specs": entries,
    }
    path = ws.write_report(pres, f"onesided.l{args.level}.r{args.radius}.json",
                           report)
    print(f"wrote {path} ({len(entries)} specs)")
    return 0


def cmd_verify(args) -> int:
    from . import verify
    from .cells import build_partition
    from .kl import KLTable

    pres, group, ws = _context(args)
    if args.oracle_length < 0:
        raise BadArgument(f"--oracle-length must be a nonnegative integer, "
                          f"got {args.oracle_length}")
    ball = group.ball(args.radius)
    part = build_partition(group, _resolve_k(ws, pres, group, args.k))
    checks = []
    if args.suite in ("oracles", "all"):
        checks += [
            verify.oracle_classification(part, ball),
            verify.census_routes(part, ball),
            verify.partition_exact(part),
            verify.inversion_closed(part),
            verify.word_counts(group, ball, min(args.radius, 10)),
            verify.element_counts(group, ball),
        ]
    if args.suite in ("kl", "all"):
        table = KLTable(group, ball)
        checks.append(verify.kl_identity(table))
        # the other checks read P, which a failed identity leaves unsound
        if checks[-1].ok:
            checks += [
                verify.kl_oracle(table, args.oracle_length),
                verify.a_function(part, table, min(3, args.radius // 2)),
            ]
            if (ws.group_dir(pres) / ws.kl_name(args.radius)).exists():
                checks.append(verify.kl_cache(table, ws.read_kl(pres, args.radius)))

    results = {"group": pres.label, "radius": args.radius,
               **{c.name: {"pass": c.ok, "detail": c.detail} for c in checks}}
    path = ws.write_report(pres, f"verify.{args.suite}.r{args.radius}.json",
                           results)
    print(f"wrote {path}")
    for c in checks:
        print(f"  {c.name}: {'PASS' if c.ok else 'FAIL'}"
              + (f" ({c.detail})" if c.detail else ""))
    failures = [c.name for c in checks if not c.ok]
    if failures:
        raise VerificationDisagreement(", ".join(failures))
    return 0


def cmd_render(args) -> int:
    if args.size < 1:
        raise BadArgument(f"--size must be a positive integer, got {args.size}")
    from .cells import build_partition, dihedral_data, omega_minimal, spec_index
    from .render import PALETTE, realize_polygon, render_svg, tile

    pres, group, ws = _context(args)
    level = None  # two-sided
    if args.coloring.startswith("onesided:"):
        try:
            level = int(args.coloring.split(":", 1)[1])
        except ValueError:
            raise BadArgument(f"--coloring onesided:<level> needs an integer "
                              f"level, got {args.coloring!r}") from None
        dihedral_data(pres).pairs_at_level(level)  # BadArgument if it is missing
    elif args.coloring != "twosided":
        raise BadArgument(f"unknown coloring {args.coloring!r}")
    ball = group.ball(args.radius)
    k = _resolve_k(ws, pres, group, args.k)
    part = build_partition(group, k)
    realization = realize_polygon(pres)
    if level is None:
        labels = [part.classify(e) for e in ball.elements]
        palette = dict(PALETTE)
    else:
        specs = omega_minimal(part, level, args.radius)
        found = [spec_index(specs, e.word) for e in ball.elements]
        labels = ["bg" if si is None else f"spec{si}" for si in found]
        palette = {"bg": "#eeeeee"}
    data = render_svg(realization, tile(ball, realization), labels, palette,
                      args.size)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(data)
    print(f"wrote {out} ({len(data)} bytes)")
    return 0


# --- argument parsing ---------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="polycell",
        description="Cell data and reduced-word automata for hyperbolic "
                    "polygon Coxeter groups",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    options = {
        "workspace": dict(default="workspace"),
        "radius": dict(type=int, default=10),
        "trust-margin": dict(type=int, help="default 4, or --radius if smaller"),
        "k": dict(default="auto", help="fellow-traveler constant or 'auto'"),
    }

    def command(p, func, names="", **defaults):
        """--group and the named options: only those the command reads."""
        p.add_argument("--group", required=True, help="group config JSON file")
        for name in names.split():
            p.add_argument(f"--{name}", **options[name])
        p.set_defaults(func=func, **defaults)

    g = sub.add_parser("group", help="inspect a group configuration")
    gsub = g.add_subparsers(dest="action", required=True)
    command(gsub.add_parser("info"), cmd_group_info)
    command(sub.add_parser("ball", help="compute and cache a metric ball"),
            cmd_ball, "workspace radius")
    command(sub.add_parser("kl", help="compute and cache Kazhdan-Lusztig data"),
            cmd_kl, "workspace radius")

    c = sub.add_parser("cells", help="cell partitions")
    csub = c.add_subparsers(dest="mode", required=True)
    command(csub.add_parser("empirical"), cmd_cells_empirical,
            "workspace radius", radius=12)
    command(csub.add_parser("conjectural"), cmd_cells_conjectural,
            "workspace radius trust-margin k", radius=12)
    command(csub.add_parser("compare"), cmd_cells_compare,
            "workspace radius trust-margin k", radius=12)

    f = sub.add_parser("fsa", help="build, inspect, compare automata")
    f.add_argument("action", choices=["build", "stats", "equiv"])
    f.add_argument("target", help="canonical | shortlex | cell:<label> | "
                                  "pattern:<word> | factor:<word> | "
                                  "descent:<letters> | ut:<letters> | file path")
    f.add_argument("other", nargs="?", help="second automaton for equiv")
    command(f, cmd_fsa, "workspace radius k")

    o = sub.add_parser("onesided", help="one-sided cell specs at a level")
    command(o, cmd_onesided, "workspace radius k", radius=12)
    o.add_argument("--level", type=int, required=True)

    v = sub.add_parser("verify", help="oracle verification suites")
    v.add_argument("suite", choices=["all", "oracles", "kl"])
    command(v, cmd_verify, "workspace radius k")
    v.add_argument("--oracle-length", type=int, default=8)

    r = sub.add_parser("render", help="tessellation SVG")
    command(r, cmd_render, "workspace radius k", radius=8)
    r.add_argument("--coloring", default="twosided")
    r.add_argument("--out", required=True)
    r.add_argument("--size", type=int, default=800)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationDisagreement as exc:
        print(f"verification disagreement: {exc}", file=sys.stderr)
        return 1
    except (PolycellError, OSError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point (`python -m polycell`, the `polycell` script).

    Interpreter exit walks every live object in collector passes before it
    frees them by reference count.  Freezing the heap `main` leaves moves
    those objects out of the passes' reach; the rest of exit (atexit
    handlers, flushing the standard streams) still runs, so no `os._exit`.
    In-process callers of `main` are never frozen.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)
