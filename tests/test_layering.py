"""Main-path engines stay independent of the brute-force oracles: only
`verify.py` may import `polycell.oracle`, to run the verification checks,
and the command line loads it only for `verify`.  In turn `oracle.py`
imports from the package only its errors and the presentation, so no
engine's result reaches the oracles.  The workspace reads KL
data only through public `KLTable` methods, and every cell comes from
`kl.empirical_cells`.  Outside the word engine and the oracles no module
rewrites words through normal forms, and outside fsa.py none builds an
automaton by hand.  The benchmark's tracer finds every
layer function it wraps.  Only `render` loads numpy, so the other commands
start without it, and the command line loads each engine only for the
commands that run it.  No module does arithmetic in `fractions`, and none
defines a record with `dataclasses`, which would load `inspect` and
compile the record's methods at every start-up.  Every
resource cap is a module-level integer `*_CAP` read where the resource is
spent: no function takes a cap.  Every automaton is a DFA: `fsa.FSA` has
five fields, and each of its moves goes to one int target, also where a
reversal or a file has several.  Fellow-traveler validation, the
word-difference tables and the Bruhat ideals read no `Element` record.
`python -m polycell` and the `polycell` script share one entry point,
`cli.run`, the only code that freezes the heap.  Every function the
package defines is named by the package, its scripts or the benchmark:
none is kept only for the tests."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import polycell

PACKAGE = Path(polycell.__file__).parent


def _imports_oracle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "oracle":
                return True
            if module in ("", "polycell") and any(
                    alias.name == "oracle" for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name == "polycell.oracle" for alias in node.names):
                return True
    return False


def test_only_verify_imports_oracle():
    offenders = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("verify.py", "oracle.py")
        and _imports_oracle(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_oracle_imports_no_engine():
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "polycell"):
            module = node.module or ""
            imported |= ({alias.name for alias in node.names}
                         if module in ("", "polycell") else {module.split(".")[-1]})
        elif isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[-1] for alias in node.names
                         if alias.name.split(".")[0] == "polycell"}
    assert imported <= {"errors", "presentation"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_cache_reads_kl_only_through_public_names():
    tree = ast.parse((PACKAGE / "cache.py").read_text())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "kl":
            offenders += [alias.name for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            offenders.append(f"{ast.unparse(node.value)}.{node.attr}")
    assert offenders == []


def test_only_kl_builds_cells():
    """W-graphs and their strongly connected components are built in kl.py
    alone; every other module takes its cells from `empirical_cells`."""
    names = {"w_graph", "strongly_connected_components"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "kl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            found = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(node, ast.alias) else None)
            if found in names:
                offenders.append(f"{path.name}: {found}")
    assert offenders == []


# the word engine's rewriting methods: normal forms and products of words
WORD_REWRITING = {"nf", "element", "multiply", "inverse", "shortlex", "reduce_word"}


def _method_calls(path: Path, names: set[str]) -> list[str]:
    """Calls `x.name(...)` in a module: the word engine is reached only
    through `PolygonGroup` methods."""
    return [f"{path.name}: {ast.unparse(node.func)}()"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names]


def test_main_path_rewrites_no_words():
    """Outside the word engine and the oracles, words move through ball
    indices and automata, never through normal forms."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("words.py", "oracle.py"):
            offenders += _method_calls(path, WORD_REWRITING)
    assert offenders == []


def _function(path: Path, qualname: str) -> ast.AST:
    owner, _, name = qualname.rpartition(".")
    tree = ast.parse(path.read_text())
    if owner:
        tree = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == owner)
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_ball_walks_read_no_element_records():
    """Fellow-traveler validation, the word-difference tables and the
    Bruhat ideals read a ball's flat arrays: neither its `Element` records
    nor its word index, which are built only when first read."""
    offenders = [
        f"{module}.{qualname}: .{node.attr}"
        for module, qualname in (("automata", "fellow_traveler_constant"),
                                 ("automata", "word_difference_table"),
                                 ("kl", "KLTable.__init__"))
        for node in ast.walk(_function(PACKAGE / f"{module}.py", qualname))
        if isinstance(node, ast.Attribute) and node.attr in ("elements", "index")]
    assert offenders == []


def test_only_fsa_constructs_machines():
    """Every automaton is made in fsa.py, by `explore`, `make_dfa` or a
    parser; other modules describe states and moves and never call `FSA(`
    themselves."""
    offenders = [
        f"{path.name}: {ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "fsa.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "FSA"]
    assert offenders == []


def test_hecke_stays_on_the_kl_table():
    """Hecke arithmetic runs on the KL table's ball indices and packed
    integers: no field arithmetic and no call into the word engine."""
    path = PACKAGE / "hecke.py"
    offenders = _method_calls(path, WORD_REWRITING)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "field":
            offenders.append(f"from {node.module} import")
        elif isinstance(node, ast.ImportFrom) and node.module in ("", "polycell"):
            offenders += [alias.name for alias in node.names if alias.name == "field"]
        elif isinstance(node, ast.Import):
            offenders += [alias.name for alias in node.names
                          if alias.name.split(".")[-1] == "field"]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("nf", "element")):
            offenders.append(f"{node.func.id}()")
    assert offenders == []


def test_benchmark_tracer_hooks_resolve():
    """Every name the benchmark tracer wraps must exist, or `--trace 1`
    fails with a KeyError; this is the lookup `tracer._wrap_path` makes.
    The private paths it names (16 of them) must each be a plain function,
    which the tracer's wrappers call; the file is read, never changed."""
    tracer_path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    paths = [(layer, path) for table in (tracer.EXTRA_SPANS, tracer.COUNT_ONLY)
             for layer, paths in table.items() for path in paths]
    assert len(paths) == 16
    names = paths + [tuple(name.split(".", 1)) for name in tracer.OBSERVERS]
    missing = []
    for layer, path in names:
        owner = importlib.import_module(f"polycell.{layer}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{layer}.{path}")
        elif (layer, path) in paths and not inspect.isfunction(vars(owner)[attr]):
            missing.append(f"{layer}.{path} is not a function")
    assert missing == []


# functions defined in the package that only the tests name, each with why
TEST_ONLY: dict[str, str] = {}


def test_no_function_only_the_tests_call():
    """Each module-level function and method of the package (dunders aside)
    is named in `src/`, `scripts/` or `perfbench/`: a method as an
    attribute, a module-level function as an attribute, as an imported
    name or inside its own module, so a local variable of the same name
    elsewhere does not count.  The tests reach the package only through
    what the program itself uses, and `TEST_ONLY`."""
    root = PACKAGE.parents[1]
    attrs, imported, own = set(), set(), {}
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            named = own.setdefault(path, set())
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.alias):
                    imported.add(node.name.split(".")[-1])
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            is_class = isinstance(node, ast.ClassDef)
            used = attrs if is_class else attrs | imported | own[path]
            unused += [f"{path.stem}.{node.name + '.' if is_class else ''}{fn.name}"
                       for fn in (node.body if is_class else [node])
                       if isinstance(fn, ast.FunctionDef)
                       and not (fn.name.startswith("__") and fn.name.endswith("__"))
                       and fn.name not in used]
    assert sorted(unused) == sorted(TEST_ONLY)


ENGINES = ("automata", "fsa", "cells", "compare")


def _loaded(code: str, *argv: str) -> list[str]:
    """The polycell modules, numpy, fractions, dataclasses and inspect that
    running code leaves loaded."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         code + "; print(*sorted(m for m in sys.modules if m.startswith('polycell') "
                "or m in ('numpy', 'fractions', 'dataclasses', 'inspect')))", *argv],
        capture_output=True, text=True, env=env, check=True)
    return out.stdout.splitlines()[-1].split()


def test_cli_start_up_does_not_load_numpy(tmp_path):
    """Each command loads the engines it runs: start-up loads none of them,
    and `kl` loads the KL layer without the automaton stack."""
    loaded = _loaded("import sys, polycell.cli")
    assert "numpy" not in loaded and "polycell.oracle" not in loaded
    assert [m for m in loaded if m.split(".")[-1] in (*ENGINES, "kl")] == []
    config = tmp_path / "w237.json"
    config.write_text('{"name": "w237", "angles": [2, 3, 7]}')
    loaded = _loaded(
        "import sys; from polycell.cli import main; assert main(sys.argv[1:]) == 0",
        "kl", "--group", str(config), "--radius", "3",
        "--workspace", str(tmp_path / "ws"))
    assert "polycell.kl" in loaded
    assert [m for m in loaded if m.split(".")[-1] in ENGINES] == []


def test_no_fraction_arithmetic(tmp_path):
    """Signs are decided on dyadic integers and angle sums compared as
    integers: neither start-up, nor a group's small roots and canonical
    automaton, nor the `kl` command loads `fractions`."""
    assert "fractions" not in _loaded("import sys, polycell.cli")
    assert "fractions" not in _loaded(
        "import sys; from polycell import PolygonGroup, presentation_from_angles; "
        "PolygonGroup(presentation_from_angles([2, 3, 7]))")
    config = tmp_path / "w237.json"
    config.write_text('{"name": "w237", "angles": [2, 3, 7]}')
    assert "fractions" not in _loaded(
        "import sys; from polycell.cli import main; assert main(sys.argv[1:]) == 0",
        "kl", "--group", str(config), "--radius", "3",
        "--workspace", str(tmp_path / "ws"))


def test_no_dataclasses(tmp_path):
    """Records are plain classes: no module imports `dataclasses`, and
    neither it nor `inspect` is loaded by start-up, by `kl` or by
    `cells compare`."""
    offenders = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names))]
    assert offenders == []
    config = tmp_path / "w237.json"
    config.write_text('{"name": "w237", "angles": [2, 3, 7]}')
    run = "import sys; from polycell.cli import main; assert main(sys.argv[1:]) == 0"
    for loaded in (
            _loaded("import sys, polycell.cli"),
            _loaded(run, "kl", "--group", str(config), "--radius", "3",
                    "--workspace", str(tmp_path / "ws")),
            _loaded(run, "cells", "compare", "--group", str(config), "--radius", "6",
                    "--workspace", str(tmp_path / "ws"))):
        assert "polycell.cli" in loaded
        assert "dataclasses" not in loaded and "inspect" not in loaded


def test_no_function_takes_a_cap():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs, args.vararg, args.kwarg)
                         if a is not None]
                if "cap" in names:
                    offenders.append(f"{path.name}: {getattr(node, 'name', 'lambda')}")
    assert offenders == []


def test_every_automaton_is_a_dfa():
    from polycell import fsa

    assert fsa.FSA.__slots__ == ("alphabet", "n_states", "initial",
                                 "accepting", "transitions")
    ab = ("a", "b")
    a = fsa.make_dfa(ab, 2, 0, {1}, {(0, 0): 1, (1, 1): 0})
    # two targets for 0 a: the file reads as its minimal DFA
    read = fsa.from_text("states 2 alphabet a b initial 0\n"
                         "0 a 0\n0 a 1\n1 b 0\naccept 1\n")
    machines = [fsa.reverse(a), read, fsa.intersect(a, read),
                fsa.union(a, read), fsa.difference(read, a),
                fsa.minimal_dfa(ab, [0], lambda q: (q == 1, [(0, 0), (0, 1)]))]
    for m in machines:
        assert type(m) is fsa.FSA and m.transitions
        assert {type(t) for t in m.transitions.values()} == {int}


def test_every_cap_is_a_module_integer():
    caps = {}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        if info.name != "__main__":  # importing it would run the command line
            module = importlib.import_module(f"polycell.{info.name}")
            caps.update({f"{info.name}.{name}": value
                         for name, value in vars(module).items() if name.endswith("_CAP")})
    assert {"words.BALL_CAP", "smallroots.ROOT_CAP", "oracle.CLOSURE_CAP",
            "fsa.STATE_CAP", "field.PRECISION_CAP", "kl.KL_CAP"} <= caps.keys()
    assert [name for name, value in caps.items() if type(value) is not int] == []


def test_one_process_entry_point():
    """`__main__.py` and the `polycell` script of `pyproject.toml` both run
    `polycell.cli:run`, and no other code calls `gc.freeze`: in-process
    callers of `cli.main` keep a collectable heap."""
    tree = ast.parse((PACKAGE / "__main__.py").read_text())
    imported = {alias.asname or alias.name: f"polycell.{node.module}:{alias.name}"
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    called = [imported.get(node.value.func.id) for node in tree.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)]
    assert called == ["polycell.cli:run"]
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    section = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.split() == ["polycell", "=", '"polycell.cli:run"']

    def freezes(tree):
        return [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("freeze")]

    assert [f"{path.name}: {call}" for path in sorted(PACKAGE.glob("*.py"))
            for call in freezes(ast.parse(path.read_text()))] == ["cli.py: gc.freeze()"]
    assert freezes(_function(PACKAGE / "cli.py", "run")) == ["gc.freeze()"]
