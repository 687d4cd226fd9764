"""Every module under src/, tools/ and tests/ uses each name it imports."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = ("src", "tools", "tests")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``from __future__`` aside) that never
    appear as a name elsewhere in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c\nc(os)\n"
    assert unused_imports(source) == ["line 3: np", "line 4: b"]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)} {name}"
             for top in CHECKED for path in sorted((ROOT / top).rglob("*.py"))
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
