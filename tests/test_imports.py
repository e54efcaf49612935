"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nevkit"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "np.ndarray"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(
        imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_detector_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import math, os.path\nfrom a import b as c, d\n"
           "def f(x: 'd') -> int:\n    return math.floor(x)\n")
    assert _unused_imports(src) == ["os (line 2)", "c (line 3)"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             # the package's __init__ re-exports what it imports
             if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}
