"""Self-test of ``scripts/reachability.py``'s matcher on a small module."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reachability.py"

SAMPLE = textwrap.dedent(
    """\
    import functools


    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    @decorate
    def decorated():
        def nested():
            return 2
        return nested()


    @decorate
    def decorated_unused():
        return 3


    class Box:
        @property
        def size(self):
            return 4

        @property
        def unused(self):
            return 5


    def never():
        def never_nested():
            pass
    """
)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reachability():
    return _load("reachability_under_test", SCRIPT)


def test_spans_start_at_the_first_decorator(reachability, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    spans = {s.qualname: s for s in reachability.function_spans(path)}
    assert sorted(spans) == [
        "Box.size", "Box.unused", "decorate", "decorate.<locals>.wrapper",
        "decorated", "decorated.<locals>.nested", "decorated_unused",
        "never", "never.<locals>.never_nested",
    ]
    assert spans["decorated"].first_line == 11  # "@decorate", not "def decorated"
    assert spans["decorated"].lines == 5
    assert spans["Box.size"].first_line == 24  # "@property"
    assert spans["never"].lines == 3


def test_never_entered_matches_code_objects(reachability, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    recorder = reachability.Recorder()
    with recorder.active():
        module = _load("reachability_sample", path)
        module.decorated()
        assert module.Box().size == 4
    missed = reachability.never_entered(reachability.function_spans(path),
                                        recorder.entered())
    assert [s.qualname for s in missed] == [
        "decorated_unused", "Box.unused", "never", "never.<locals>.never_nested",
    ]
