"""Main-path engines stay independent of the brute-force oracles: only the
command line may import `polycell.oracle`, to run the verification suites."""

import ast
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


def test_only_cli_imports_oracle():
    offenders = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("cli.py", "oracle.py")
        and _imports_oracle(ast.parse(path.read_text()))
    ]
    assert offenders == []
