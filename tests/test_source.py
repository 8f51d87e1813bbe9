"""Source scan: invariants of the package that no single test exercises."""

import ast
import pathlib

import grstacks


def test_no_asserts_and_no_recursion_limit():
    # asserts vanish under python -O, so invariants raise typed errors; the
    # recursion limit is process-wide state that the package leaves alone
    found = []
    for path in sorted(pathlib.Path(grstacks.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, ast.Assert) or name == "setrecursionlimit":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
