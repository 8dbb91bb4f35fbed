"""No module under src/secpon, tests or scripts imports a name it never
uses: pyflakes' F401, from the standard library's ``ast``.

A name counts as used if it is read anywhere in its file or listed in
``__all__``; an import line marked ``# noqa: F401`` is kept on purpose.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/secpon", "tests", "scripts")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[node.lineno - 1] + lines[alias.lineno - 1]:
                continue
            imported.append((alias.lineno, alias.asname or alias.name.partition(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in CHECKED for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_checker_flags_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "import json  # noqa: F401\n"
              "from x import (\n    a,\n    b as c,  # noqa: F401\n    d,\n)\n"
              "__all__ = ['d']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == [(6, "a")]
