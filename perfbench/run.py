"""polycell benchmark: cold-process CLI workloads, timed and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command is a fresh
`python -m polycell` process (sources from `src/`) against a fresh
workspace under `perfbench/results/work/`, so each pays the cold caches a
user pays; the committed `workspace/` is never touched.  The seed becomes
the child's PYTHONHASHSEED.  Each command's outputs are compared with
`perfbench/references.json`; a nonzero exit or a mismatch is a failure.

--trace 0 times the program's set-up several times, then repeats the
command for about S seconds, and reports medians of the end-to-end metrics.
Times are scaled to a reference machine speed by a calibration job run
between the children (see `calibration.py`); the unscaled samples and
medians are kept alongside.
--trace 1 runs the command once untraced and once under `tracer.py`, and
reports the per-layer metrics of the traced run.  Every sample, with the
run context, is kept in `perfbench/results/`.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from calibration import REFERENCE_S, calibrate
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 7
# every run must end within 180 s; a command still running then is killed
# and counted as failed
RUN_DEADLINE_S = 170.0

# Start-up as a command pays it: interpreter, imports, config load and
# PolygonGroup construction (small roots and the canonical automaton).
SETUP_CODE = """\
import sys
import polycell.cli
from polycell.presentation import load_presentation
from polycell.words import PolygonGroup
PolygonGroup(load_presentation(sys.argv[1]))
"""

# Per-layer metrics: how each is read from the traced run.
#   module: self time of every span of the module
#   self:   self time of the named spans
#   calls:  number of spans with the name
#   count:  a counter the tracer recorded
LAYER_METRICS = {
    "smallroots.s": ("module", "smallroots"),
    "smallroots.roots": ("count", "smallroots.roots"),
    "words.canonical_states": ("count", "words.canonical_states"),
    "words.ball.s": ("self", "words.PolygonGroup.ball"),
    "words.ball.elements": ("count", "words.ball.elements"),
    "words.element.calls": ("count", "words.PolygonGroup.element.calls"),
    "oracle.braid_closure.s": ("self", "oracle.braid_closure"),
    "oracle.braid_closure.calls": ("calls", "oracle.braid_closure"),
    "automata.choose_k.s": ("self", "automata.choose_k"),
    "automata.validate_k.s": ("self", "automata.validate_k"),
    "automata.validate_k.calls": ("calls", "automata.validate_k"),
    "automata.red_x_mu.s": ("self", "automata.red_x_mu"),
    "automata.red_x_mu.calls": ("calls", "automata.red_x_mu"),
    "cells.build_partition.s": ("self", "cells.build_partition"),
    "cells.partition_is_exact.s": ("self", "cells.partition_is_exact"),
    "fsa.are_equivalent.calls": ("calls", "fsa.are_equivalent"),
    "automata.pair_machine.s": ("self", "automata.equal_endpoint_pairs"),
    "automata.pair_machine.states": ("count", "automata.pair_machine.states"),
    "automata.left_translate.s": ("self", "automata.left_translate"),
    "automata.left_translate.calls": ("calls", "automata.left_translate"),
    "fsa.determinize.s": ("self", "fsa.determinize"),
    "fsa.minimize.s": ("self", "fsa.minimize"),
    "fsa.minimize.states_in": ("count", "fsa.minimize.states_in"),
    "fsa.minimize.states_out": ("count", "fsa.minimize.states_out"),
    "fsa.product.s": ("self", "fsa._product"),
    "fsa.is_subset.calls": ("calls", "fsa.is_subset"),
    "cells.omega_minimal.s": ("self", "cells.omega_minimal"),
    "cells.candidates": ("count", "cells.candidates"),
    "cells.specs_kept": ("count", "cells.specs_kept"),
    "kl.w_graph.s": ("self", "kl.w_graph"),
    "kl.mu_edges": ("count", "kl.mu_edges"),
    "kl.scc.s": ("self", "kl.strongly_connected_components", "kl.cells",
                 "kl.two_sided_cells"),
    "compare.s": ("module", "compare"),
    "kl.fill.s": ("self", "kl.KLTable.fill"),
    "kl.memo.leq": ("count", "kl.memo.leq"),
    "kl.memo.R": ("count", "kl.memo.R"),
    "kl.memo.P": ("count", "kl.memo.P"),
    "cache.write.s": ("module", "cache"),
    "cache.bytes_written": ("count", "cache.bytes_written"),
    "cache.files_written": ("count", "cache.files_written"),
    "cli.self.s": ("module", "cli"),
}


class Failure(Exception):
    """A command exited nonzero or its outputs differ from the reference."""


def child_env(root: Path, seed: int) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _run_child(cmd: list[str], root: Path, env: dict, log: Path,
               deadline: float) -> dict:
    """Run one child to completion; wall time and its own rusage."""
    load_before = os.getloadavg()
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "load_before": load_before,
        "load_after": os.getloadavg(),
    }


@contextmanager
def _scratch(prefix: str):
    work = RESULTS / "work"
    work.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=work))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextmanager
def fresh_workspace(root: Path, wl: Workload):
    with _scratch(f"{wl.name}-") as ws:
        if wl.validated_k is not None:
            _stamp_validated_k(root, wl, ws)
        yield ws


def _stamp_validated_k(root: Path, wl: Workload, ws: Path) -> None:
    # written through the program's own workspace API, so the stamp carries
    # whatever group hash and version the checked-out code expects
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from polycell.cache import Workspace
    from polycell.presentation import load_presentation

    k, radius = wl.validated_k
    Workspace(ws).store_validated_k(load_presentation(root / wl.group),
                                    k, radius)


def run_command(root: Path, wl: Workload, seed: int, deadline: float,
                reference: dict, traced: bool = False) -> dict:
    """One cold CLI command in a fresh workspace, its outputs checked."""
    env = child_env(root, seed)
    with fresh_workspace(root, wl) as ws:
        args = [*wl.argv, "--workspace", str(ws)]
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"),
                   str(ws / "spans.json"), "--", *args]
        else:
            cmd = [sys.executable, "-m", "polycell", *args]
        sample = _run_child(cmd, root, env, ws / "output.log", deadline)
        sample["traced"] = traced
        try:
            if sample["exit"] != 0:
                raise Failure(f"exit {sample['exit']}: "
                              + (ws / "output.log").read_text()[-2000:])
            observed = wl.observe(ws)
            if observed != reference:
                sample["observed"] = observed
                bad = sorted(key for key in set(observed) | set(reference)
                             if observed.get(key) != reference.get(key))
                raise Failure(f"outputs differ from the reference in {bad}")
            sample["ok"] = True
        except (Failure, OSError, ValueError, KeyError) as exc:
            sample["ok"] = False
            sample["error"] = f"{type(exc).__name__}: {exc}"
        if traced and sample["exit"] == 0:
            sample["trace"] = json.loads((ws / "spans.json").read_text())
    return sample


def time_setup(root: Path, wl: Workload, seed: int, deadline: float) -> dict:
    with _scratch("setup-") as tmp:
        sample = _run_child([sys.executable, "-c", SETUP_CODE, wl.group], root,
                            child_env(root, seed), tmp / "output.log",
                            deadline)
    sample["ok"] = sample["exit"] == 0
    return sample


def summarize_trace(trace: dict, wl: Workload) -> dict:
    """Self time (span minus children) and calls per span name, self time
    per module, and the self time spent in the workload's focus layer."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    module_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    in_focus = [False] * len(spans)
    focus_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_time[i]
        module = name.split(".", 1)[0]
        self_s[name] += own
        module_s[module] += own
        calls[name] += 1
        in_focus[i] = name in wl.focus_spans or (parent >= 0 and in_focus[parent])
        if in_focus[i] or module in wl.focus_modules:
            focus_s += own
    return {"self_s": dict(self_s), "module_s": dict(module_s),
            "calls": dict(calls), "counts": trace["counts"],
            "focus_s": focus_s, "spans": len(spans)}


def layer_value(summary: dict, rule: tuple) -> float | int:
    kind, *keys = rule
    if kind == "module":
        return sum(summary["module_s"].get(k, 0.0) for k in keys)
    if kind == "self":
        return sum(summary["self_s"].get(k, 0.0) for k in keys)
    if kind == "calls":
        return sum(summary["calls"].get(k, 0) for k in keys)
    return sum(summary["counts"].get(k, 0) for k in keys)


def run_context(root: Path) -> dict:
    sha = None  # the checkout need not be a git repository
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "polycell").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_start": os.getloadavg(),
    }


def _own_peak_rss_mb() -> float:
    # a child's ru_maxrss also counts the address space it replaced at exec,
    # a copy of this process; this must stay below the children's peaks
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(root, wl, seed, seconds, deadline, reference):
    start = time.perf_counter()
    calibration = [calibrate()]

    def bracketed(sample: dict) -> dict:
        # machine speed while the sample ran, from the calibrations just
        # before and just after it
        calibration.append(calibrate())
        sample["speed"] = 2 * REFERENCE_S / (calibration[-2] + calibration[-1])
        return sample

    setups = [bracketed(time_setup(root, wl, seed, deadline))
              for _ in range(SETUP_REPEATS)]
    commands = []
    while True:
        commands.append(bracketed(run_command(root, wl, seed, deadline,
                                              reference)))
        typical = statistics.median(c["wall_s"] for c in commands)
        if time.perf_counter() - start + typical > seconds:
            break

    def median(samples, key, scaled=True):
        return statistics.median(s[key] * (s["speed"] if scaled else 1.0)
                                 for s in samples)

    metrics = {
        "wall_s": median(commands, "wall_s"),
        "cpu_s": median(commands, "cpu_s"),
        "peak_rss_mb": median(commands, "peak_rss_mb", scaled=False),
        "setup_s": median(setups, "wall_s"),
    }
    unscaled = {
        "wall_s": median(commands, "wall_s", scaled=False),
        "cpu_s": median(commands, "cpu_s", scaled=False),
        "setup_s": median(setups, "wall_s", scaled=False),
    }
    return metrics, {"setup": setups, "commands": commands,
                     "calibration_s": calibration,
                     "unscaled_medians": unscaled}


def traced_run(root, wl, seed, deadline, reference):
    plain = run_command(root, wl, seed, deadline, reference)
    trace = run_command(root, wl, seed, deadline, reference, traced=True)
    metrics = {}
    if "trace" in trace:
        summary = summarize_trace(trace.pop("trace"), wl)
        summary["focus_share"] = summary["focus_s"] / trace["wall_s"]
        trace["summary"] = summary
        metrics = {name: layer_value(summary, rule)
                   for name, rule in LAYER_METRICS.items()}
        metrics["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    return metrics, {"commands": [plain, trace]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    root = Path.cwd()
    wl = WORKLOADS[args.workload]
    missing = [p for p in ("src/polycell/__main__.py", wl.group)
               if not (root / p).is_file()]
    if missing:
        print(f"error: not a polycell checkout, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "references.json").read_text())[wl.name]
    context = run_context(root)

    if args.trace:
        wanted = spec["per_layer"]
        metrics, record = traced_run(root, wl, args.seed, deadline,
                                     reference["observed"])
    else:
        wanted = spec["end_to_end"]
        metrics, record = timed_run(root, wl, args.seed, args.seconds,
                                    deadline, reference["observed"])
    samples = record.get("setup", []) + record["commands"]
    failed = sum(1 for s in samples if not s["ok"])
    context["load_end"] = os.getloadavg()
    context["bench_peak_rss_mb"] = _own_peak_rss_mb()
    result = {
        "correct": failed == 0 and all(m["name"] in metrics for m in wanted),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / (f"{wl.name}.seed{args.seed}.trace{args.trace}."
                     f"{time.time_ns()}.json")
    out.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context,
        "fail_ratio": failed / len(samples), **record, "result": result,
    }, indent=1) + "\n")
    sizes = f"{len(record['commands'])} commands"
    if "setup" in record:
        sizes = f"medians of {len(record['setup'])} set-up probes and {sizes}"
    print(f"{wl.name}: {sizes}, {failed} failed; samples in {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
