"""Every import in ``src/repro`` is used.

An import whose name appears neither in code nor in a quoted annotation
still loads its module and misleads a reader about what the module
depends on.  Package ``__init__.py`` files import to re-export, and a
``# noqa: F401`` line marks a deliberate side-effect import, so both
are skipped.  The check is stdlib ``ast`` only, so it needs no linter.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent


def _quoted_names(annotation: ast.AST) -> Iterator[str]:
    """Names inside the quoted parts of an annotation."""
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each import in *source* that nothing uses."""
    lines = source.splitlines()
    imported = []
    used: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_quoted_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_quoted_names(node.annotation))
    return [(line, name) for line, name in imported if name not in used]


def test_detector():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "def f(x: 'Optional[int]') -> List[str]:\n"
        "    return [os.sep]  # Dict appears only in this comment\n"
    )
    assert unused_imports(source) == [(3, "Dict")]


def test_no_unused_imports_in_repro():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
