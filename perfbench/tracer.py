"""Run one polycell command with its layers wrapped in spans.

    python perfbench/tracer.py SPANS.json -- <polycell arguments>

The layers are the package modules.  Every public function they define is
wrapped from outside, before `polycell.cli.main(argv)` runs, and so are the
private functions and methods that a per-layer metric needs.  Each call
records a span (name, start, end, parent) in memory; counts come from the
objects the calls return.  Spans and counts are written to SPANS.json when
the command ends, and the exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("presentation", "smallroots", "words", "automata", "fsa", "cells",
          "kl", "compare", "cache", "cli", "oracle")

# Integer-polynomial helpers called millions of times inside the KL
# recursions; a span each would dwarf the work, so their time stays in the
# caller's self time.
UNWRAPPED = {f"kl.poly_{op}" for op in
             ("add", "sub", "mul", "shift", "coeff", "reverse")}

# Private functions and methods that carry a per-layer metric.
EXTRA_SPANS = {
    "words": ("PolygonGroup.__init__", "PolygonGroup._build_transitions",
              "PolygonGroup.ball"),
    "fsa": ("_product",),
    "cells": ("_spec_candidates",),
    "kl": ("KLTable.fill",),
    "cache": ("_atomic_write", "Workspace.write_meta", "Workspace.stamp",
              "Workspace.store_validated_k", "Workspace.write_ball",
              "Workspace.write_kl", "Workspace.write_fsa",
              "Workspace.write_report"),
}

# Hot calls that get a count and no span.
COUNT_ONLY = {
    "words": ("PolygonGroup.element",),
    "kl": ("KLTable.__init__",),
}

spans: list[list] = []      # [name, start, end, parent index or -1]
_current: list[int] = [-1]  # indices of the open spans, innermost last
counts: Counter = Counter()
groups: list = []
tables: list = []


def _add(key: str, n: int) -> None:
    counts[key] += n


OBSERVERS = {
    "smallroots.compute_small_roots":
        lambda a, r: _add("smallroots.roots", r.size),
    "words.PolygonGroup.__init__": lambda a, r: groups.append(a[0]),
    "automata.equal_endpoint_pairs":
        lambda a, r: _add("automata.pair_machine.states", r.n_states),
    "fsa.minimize": lambda a, r: (_add("fsa.minimize.states_in", a[0].n_states),
                                  _add("fsa.minimize.states_out", r.n_states)),
    "cells._spec_candidates": lambda a, r: _add("cells.candidates", len(r)),
    "cells.omega_minimal": lambda a, r: _add("cells.specs_kept", len(r)),
    "kl.w_graph":
        lambda a, r: _add("kl.mu_edges", sum(map(len, r.edges.values()))),
    "kl.KLTable.__init__": lambda a, r: tables.append(a[0]),
    "cache._atomic_write": lambda a, r: (_add("cache.bytes_written", len(a[1])),
                                         _add("cache.files_written", 1)),
}


def _spanned(name: str, fn):
    observe = OBSERVERS.get(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = [name, 0.0, 0.0, _current[-1]]
        _current.append(len(spans))
        spans.append(record)
        record[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = clock()
            _current.pop()
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def _counted(name: str, fn):
    observe = OBSERVERS.get(name)
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        result = fn(*args, **kwargs)
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def install() -> None:
    modules = {layer: importlib.import_module(f"polycell.{layer}")
               for layer in LAYERS}
    wrapped = {}  # original function -> wrapper
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED
                    and not inspect.isgeneratorfunction(fn)):
                wrapped[fn] = _spanned(name, fn)
        for attr in EXTRA_SPANS.get(layer, ()):
            _wrap_path(mod, layer, attr, _spanned, wrapped)
        for attr in COUNT_ONLY.get(layer, ()):
            _wrap_path(mod, layer, attr, _counted, wrapped)
    # rebind every module-level reference, including `from .x import f`
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "polycell" or mod_name.startswith("polycell."):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])


def _wrap_path(mod, layer: str, path: str, make, wrapped: dict) -> None:
    owner_name, _, attr = path.rpartition(".")
    name = f"{layer}.{path}"
    if owner_name:
        owner = getattr(mod, owner_name)
        setattr(owner, attr, make(name, vars(owner)[attr]))
    else:
        fn = vars(mod)[attr]
        wrapped[fn] = make(name, fn)


def _final_counts() -> dict:
    out = dict(counts)
    out["words.canonical_states"] = sum(len(g.transitions) for g in groups)
    out["words.ball.elements"] = sum(len(b) for g in groups
                                     for b in g._balls.values())
    out["kl.memo.leq"] = sum(len(t._leq) for t in tables)
    out["kl.memo.R"] = sum(len(t._R) for t in tables)
    out["kl.memo.P"] = sum(len(t._P) for t in tables)
    return out


def main(argv: list[str]) -> int:
    out_path = argv[0]
    if argv[1:2] != ["--"]:
        raise SystemExit("usage: tracer.py SPANS.json -- <polycell arguments>")
    install()
    from polycell import cli

    code = 1
    try:
        code = cli.main(argv[2:])
    finally:
        with open(out_path, "w") as fh:
            json.dump({"exit": code, "spans": spans,
                       "counts": _final_counts()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
