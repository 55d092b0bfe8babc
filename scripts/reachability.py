#!/usr/bin/env python
"""List the ``src/repro`` functions that no entry point enters.

Runs every entry point in this process under a ``sys.setprofile`` hook
that records each code object entered, then prints each ``src/repro``
function whose code never ran, with its line count.  The entry points:

* every CLI artifact, in text and, where it has one, in JSON;
* each mode flag: ``--distribution``, ``--outstanding``, ``--rate``,
  ``--scenario reset``, ``--soak``, ``--fault-rate``, ``--arbiter
  weighted``, ``--transport mmio``, and a payload mix;
* a cold and a warm ``--cache`` run, and a ``-j 2`` run;
* the five examples, each with ``sys.argv = [path]``;
* ``benchmarks/`` at ``REPRO_PACKETS=60``, with ``--benchmark-disable``
  (pytest-benchmark calls ``sys.setprofile(None)`` while it times a
  benchmark, so a timed run would read as never entered);
* one pass of each ``bench/workloads.py`` workload (``--scale``,
  default 0.05), the cached one cold and then warm.

A function is matched by ``(co_filename, co_firstlineno)``; for a
decorated function that line is its first decorator's.  Pool workers,
fork children and ``atexit`` hooks run where the hook does not reach, so
the functions that run only there (:data:`UNTRACED`) are printed apart,
as known false hits.

    PYTHONPATH=src python scripts/reachability.py [--scale S]

A full run takes a few minutes on a 2-vCPU host.
``bench/workloads.py`` is imported, never modified.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Functions that run only in pool workers, fork children or at exit,
#: by path under ``src/repro`` and qualified name.
UNTRACED = {
    ("exec/runner.py", "_warm_worker"),
    ("exec/runner.py", "shutdown_pool"),
    ("exec/snapshot.py", "_stamp"),
    ("exec/snapshot.py", "_read_exact"),
    ("exec/snapshot.py", "_write_all"),
}

Key = Tuple[str, int]


@dataclass(frozen=True)
class FunctionSpan:
    """One ``def`` in a source file."""

    path: str
    first_line: int
    qualname: str
    lines: int

    @property
    def key(self) -> Key:
        return (self.path, self.first_line)


def function_spans(path: Path) -> List[FunctionSpan]:
    """Every function and method defined in *path*, nested ones included.

    ``first_line`` is what CPython stores as the code object's
    ``co_firstlineno``: the first decorator's line for a decorated
    function, else the ``def`` line.  ``lines`` runs from there to the
    end of the body.
    """
    filename = os.path.realpath(path)
    spans: List[FunctionSpan] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                spans.append(FunctionSpan(filename, first, qualname,
                                          child.end_lineno - first + 1))
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), filename=filename), "")
    return spans


class Recorder:
    """Records the code objects entered while it is active."""

    def __init__(self) -> None:
        self.codes: Set[object] = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    @contextlib.contextmanager
    def active(self) -> Iterator["Recorder"]:
        sys.setprofile(self._hook)
        try:
            yield self
        finally:
            sys.setprofile(None)

    def entered(self) -> Set[Key]:
        return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in self.codes}


def never_entered(spans: Sequence[FunctionSpan], entered: Set[Key]) -> List[FunctionSpan]:
    return [span for span in spans if span.key not in entered]


def relative(span: FunctionSpan) -> str:
    return Path(span.path).relative_to(SRC.resolve()).as_posix()


# -- entry points ----------------------------------------------------------------------


def _cli_runs(cache_dir: str) -> List[List[str]]:
    from repro.cli import ARTIFACTS, JSON_ARTIFACTS
    from repro.workload.arrivals import ARRIVAL_KINDS

    small = {
        "fig3": ["--packets", "40"],
        "fig4": ["--packets", "40"],
        "fig5": ["--packets", "40"],
        "table1": ["--packets", "40"],
        "claims": ["--packets", "40"],
        "all": ["--packets", "40", "--payloads", "64", "1024"],
        "loadsweep": ["--packets", "40"],
        "faultsweep": ["--packets", "40", "--fault-rates", "0", "0.05"],
        "overload": ["--packets", "60", "--multipliers", "0.5", "4"],
        "fleetsweep": ["--packets", "10", "--pods", "2", "--tenants", "6"],
        "guestsweep": ["--packets", "10", "--payloads", "64"],
    }
    runs = [[name] + small[name] for name in ARTIFACTS]
    runs += [[name] + small[name] + ["--json"] for name in JSON_ARTIFACTS]
    runs += [["loadsweep", "--packets", "40", "--distribution", kind] for kind in ARRIVAL_KINDS]
    runs += [
        ["loadsweep", "--packets", "30", "--outstanding", "1", "2"],
        ["loadsweep", "--packets", "30", "--outstanding", "1", "2", "--json"],
        ["loadsweep", "--packets", "40", "--rate", "5000", "20000"],
        ["loadsweep", "--packets", "40", "--payloads", "64", "1024", "--json"],
        ["faultsweep", "--packets", "60", "--scenario", "reset", "--every", "20"],
        ["faultsweep", "--packets", "60", "--scenario", "reset", "--every", "20", "--json"],
        ["overload", "--packets", "80", "--soak"],
        ["overload", "--packets", "80", "--soak", "--json"],
        ["overload", "--packets", "60", "--multipliers", "0.5", "4", "--fault-rate", "0.02"],
        ["overload", "--packets", "60", "--rate", "20000", "--payloads", "64", "256"],
        ["fleetsweep", "--packets", "10", "--pods", "1", "--tenants", "4", "--arbiter",
         "weighted", "--json"],
        ["guestsweep", "--packets", "10", "--payloads", "64", "--transport", "mmio", "--json"],
        ["table1", "--packets", "30", "--payloads", "64", "-j", "2"],
    ]
    for _ in ("cold", "warm"):
        runs.append(["faultsweep", "--packets", "40", "--fault-rates", "0", "0.05",
                     "--cache", "--cache-dir", cache_dir, "--json"])
        runs.append(["table1", "--packets", "30", "--payloads", "64",
                     "--cache", "--cache-dir", cache_dir])
    return runs


def run_cli(cache_dir: str) -> None:
    from repro.cli import main
    from repro.exec import cache as result_cache

    for argv in _cli_runs(cache_dir):
        print("  repro", " ".join(argv), file=sys.stderr, flush=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                main(argv)
            except SystemExit:
                pass
        result_cache.configure(enabled=False)


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        print("  example", path.name, file=sys.stderr, flush=True)
        saved = sys.argv
        sys.argv = [str(path)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved


def run_benchmarks() -> None:
    import pytest

    print("  pytest benchmarks/", file=sys.stderr, flush=True)
    os.environ["REPRO_PACKETS"] = "60"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            pytest.main([str(ROOT / "benchmarks"), "-q", "--benchmark-disable",
                         "-p", "no:cacheprovider"])
    finally:
        del os.environ["REPRO_PACKETS"]


def run_bench_workloads(scale: float) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from repro.exec import cache as result_cache
    from repro.exec.runner import run_cells

    for name, workload in workloads.WORKLOADS.items():
        print("  bench", name, file=sys.stderr, flush=True)
        cells = workload.make_cells(0, scale)
        workloads.boot_first(cells)
        cache_dir = tempfile.mkdtemp(prefix="reach-bench-") if workload.cached else None
        if cache_dir:
            result_cache.configure(enabled=True, cache_dir=cache_dir)
        try:
            outcomes = run_cells(cells, jobs=1)
            if cache_dir:
                run_cells(cells, jobs=1)
        finally:
            if cache_dir:
                result_cache.configure(enabled=False)
                shutil.rmtree(cache_dir, ignore_errors=True)
        assert all(workloads.cell_ok(o) for o in outcomes), name
        workload.check(outcomes)
        workloads.sim_digest([workloads.cell_digest(o) for o in outcomes])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="bench workload packet-count multiplier (default 0.05)")
    args = parser.parse_args(argv)

    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    spans = [s for path in sorted(SRC.rglob("*.py")) for s in function_spans(path)]
    recorder = Recorder()
    cache_dir = tempfile.mkdtemp(prefix="reach-cache-")
    try:
        runs = [lambda: run_cli(cache_dir), run_examples, run_benchmarks,
                lambda: run_bench_workloads(args.scale)]
        for run in runs:
            # Installed per entry point: pytest-benchmark clears the hook.
            with recorder.active():
                run()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    missed = never_entered(spans, recorder.entered())
    untraced = [s for s in missed if (relative(s), s.qualname) in UNTRACED]
    listed = [s for s in missed if s not in untraced]
    print(f"entered {len(spans) - len(missed)} of {len(spans)} functions; "
          f"{len(listed)} never entered ({sum(s.lines for s in listed)} lines)")
    for span in listed:
        print(f"{relative(span)}:{span.first_line} {span.qualname} ({span.lines} lines)")
    if untraced:
        print("\nknown false hits (run only in pool workers, fork children or at exit):")
        for span in untraced:
            print(f"{relative(span)}:{span.first_line} {span.qualname} ({span.lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
