"""The names ``bench/tracing.py`` matches against ``src/repro`` exist.

The traced benchmark run counts the calls of a few boundary functions
(``PINS``: metric -> (module path inside ``repro``, function name)) and
splits profile time by ``repro`` subpackage (``LAYERS``).  Both are
matched by name, so a refactor that renames or moves a pinned function,
turns it into a generator (cProfile counts every resume as a call), or
renames a subpackage would make a per-layer figure read 0 or nonsense
without failing anything.  The check reads ``bench/tracing.py`` with
stdlib ``ast`` (importing it would pull in the harness) and needs no
benchmark run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, List

import repro

SRC = Path(repro.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def module_constant(source: str, name: str) -> Any:
    """The literal value of the module-level assignment to *name*."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no module-level assignment to {name}")


def _yields(func: ast.AST) -> bool:
    """Whether *func*'s own body (not a nested def or lambda) yields."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def function_kinds(source: str) -> Dict[str, List[str]]:
    """Function name -> kind (``plain``, ``generator`` or ``async``) of
    every ``def`` of that name in *source*, methods included."""
    kinds: Dict[str, List[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AsyncFunctionDef):
            kinds.setdefault(node.name, []).append("async")
        elif isinstance(node, ast.FunctionDef):
            kind = "generator" if _yields(node) else "plain"
            kinds.setdefault(node.name, []).append(kind)
    return kinds


def test_detector():
    source = (
        "class A:\n"
        "    def read(self):\n"
        "        return 1\n"
        "def steps():\n"
        "    yield 1\n"
        "def outer():\n"
        "    def inner():\n"
        "        yield from steps()\n"
        "    return inner\n"
        "async def fetch():\n"
        "    return 2\n"
        "PINS: dict = {'m': ('a.py', 'read')}\n"
    )
    assert function_kinds(source) == {
        "read": ["plain"],
        "steps": ["generator"],
        "outer": ["plain"],
        "inner": ["generator"],
        "fetch": ["async"],
    }
    assert module_constant(source, "PINS") == {"m": ("a.py", "read")}


def test_every_pin_names_a_plain_function():
    pins = module_constant(TRACING.read_text(), "PINS")
    assert pins
    problems = []
    for metric, (path, function) in sorted(pins.items()):
        module = SRC.joinpath(*path.split("/"))
        if not module.is_file():
            problems.append(f"{metric}: repro/{path} does not exist")
            continue
        kinds = function_kinds(module.read_text()).get(function)
        if not kinds:
            problems.append(f"{metric}: repro/{path} defines no {function}")
        elif set(kinds) != {"plain"}:
            problems.append(f"{metric}: repro/{path} {function} is {'/'.join(kinds)}")
    assert not problems, "\n".join(problems)


def test_every_layer_is_a_subpackage():
    layers = module_constant(TRACING.read_text(), "LAYERS")
    assert layers
    missing = [name for name in layers if not (SRC / name / "__init__.py").is_file()]
    assert not missing, f"not repro subpackages: {missing}"
