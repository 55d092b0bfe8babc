"""The traced run: spans around layer boundaries and a per-layer profile.

Two instruments, used on separate passes so neither distorts the other:

* :class:`Spans` wraps public calls from the outside -- a cell
  (``repro.exec.runner.execute_cell``), a testbed boot
  (``build_from_spec`` / ``build_fleet``) and a result-cache lookup or
  store (``ResultCache.get`` / ``put``) -- and records name, start, end
  and parent span id in memory.  It also captures every ``Simulator``
  the pass constructs and reads its ``scheduler_stats`` when the cell
  ends.
* :func:`attribute` splits a cProfile run by layer.  A layer is a
  ``repro`` subpackage; a function belongs to the subpackage its module
  sits in.  Time in builtins, the standard library and numpy goes to
  the layer that called it, pro rata by the time cProfile recorded on
  each caller edge (by calls when no time was recorded).  Time with no
  ``repro`` caller anywhere above it is *unattributed*.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The ``repro`` subpackages, in data-path order; every other ``repro``
#: module (``env.py``, ``cli.py``, ...) is the ``other`` layer.
LAYERS = (
    "sim", "pcie", "fpga", "virtio", "drivers", "host", "mem", "guest",
    "workload", "health", "faults", "topology", "exec", "stats", "core",
)
ALL_LAYERS = LAYERS + ("other",)

#: Boundary counters: metric -> (module path inside ``repro``, function).
#: Each counts the calls of one plain (non-generator) function.
PINS: Dict[str, Tuple[str, str]] = {
    "pcie.tlps_per_packet": ("pcie/link.py", "_transmit_next"),
    "mem.copies_per_packet": ("mem/physical.py", "read"),
    "host.irqs_per_packet": ("host/irq.py", "deliver_msi"),
    "guest.traps_per_packet": ("guest/vmm.py", "mmio_write"),
    "virtio.doorbells_per_packet": ("virtio/controller/queue_engine.py", "kick"),
}

Func = Tuple[str, int, str]  # pstats key: (filename, first line, name)


def _repro_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


# -- spans ------------------------------------------------------------------------


class Spans:
    """Spans kept in memory: ``{id, parent, name, start_ns, end_ns}``."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._simulators: List[Any] = []
        self.queue_peak_depth = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.records),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end_ns"] = time.perf_counter_ns()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def _wrap_cell(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(cell: Any) -> Any:
            with self.span("cell"):
                try:
                    return fn(cell)
                finally:
                    for sim in self._simulators:
                        peak = sim.scheduler_stats["peak_depth"]
                        self.queue_peak_depth = max(self.queue_peak_depth, peak)
                    self._simulators.clear()

        return wrapped

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the boundary calls for the duration of the block."""
        from repro.exec import cache, runner
        from repro.sim.kernel import Simulator
        from repro.topology import builder

        patches: List[Tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, new: Any) -> None:
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        simulators = self._simulators
        sim_init = Simulator.__init__

        def init(sim: Any, *args: Any, **kwargs: Any) -> None:
            sim_init(sim, *args, **kwargs)
            simulators.append(sim)

        patch(Simulator, "__init__", init)
        patch(runner, "execute_cell", self._wrap_cell(runner.execute_cell))
        patch(cache.ResultCache, "get", self._wrap("cache.get", cache.ResultCache.get))
        patch(cache.ResultCache, "put", self._wrap("cache.put", cache.ResultCache.put))
        # Modules that imported a builder by name hold their own binding.
        for name in ("build_from_spec", "build_fleet"):
            original = getattr(builder, name)
            wrapped = self._wrap("boot", original)
            for module in list(sys.modules.values()):
                if module is not None and getattr(module, "__name__", "").startswith("repro") \
                        and getattr(module, name, None) is original:
                    patch(module, name, wrapped)
        try:
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def durations_ms(records: List[Dict[str, Any]], name: str, outermost: bool = False) -> List[float]:
    """Durations of the spans called *name*; with *outermost*, only those
    whose parent is not itself a *name* span."""
    out = []
    for record in records:
        if record["name"] != name or record["end_ns"] is None:
            continue
        parent = record["parent"]
        if outermost and parent is not None and records[parent]["name"] == name:
            continue
        out.append((record["end_ns"] - record["start_ns"]) / 1e6)
    return out


# -- per-layer profile --------------------------------------------------------------


def layer_of(filename: str, repro_dir: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside ``repro``."""
    if not filename.startswith(repro_dir + os.sep):
        return None
    top = os.path.relpath(filename, repro_dir).split(os.sep)[0]
    return top if top in LAYERS else "other"


def attribute(stats: Dict[Func, tuple], repro_dir: Optional[str] = None) -> Dict[str, Any]:
    """Split pstats-style *stats* by layer.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n},
    "unattributed_s": s, "total_s": s}``; the layer self times plus the
    unattributed time add up to the total.
    """
    repro_dir = repro_dir or _repro_dir()
    memo: Dict[Func, Dict[str, float]] = {}

    def owners(func: Func, visiting: frozenset) -> Dict[str, float]:
        """Layer -> share of *func*'s time that layer is charged."""
        layer = layer_of(func[0], repro_dir)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        # A caller edge is (calls, primitive calls, self time, cumulative time).
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[3] for c, edge in callers.items() if c not in visiting}
        if not sum(weights.values()):
            weights = {c: edge[0] for c, edge in callers.items() if c not in visiting}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            for owner, share in owners(caller, visiting | {func}).items():
                shares[owner] = shares.get(owner, 0.0) + share * weight / total
        # A caller edge skipped to break a recursion cycle leaves its
        # share unattributed, memoized or not.
        memo[func] = shares
        return shares

    self_s = {layer: 0.0 for layer in ALL_LAYERS}
    calls = {layer: 0 for layer in ALL_LAYERS}
    unattributed = total = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        total += tt
        layer = layer_of(func[0], repro_dir)
        if layer is not None:
            calls[layer] += nc
        shares = owners(func, frozenset())
        for owner, share in shares.items():
            self_s[owner] += tt * share
        unattributed += tt * (1.0 - sum(shares.values()))
    return {"self_s": self_s, "calls": calls, "unattributed_s": unattributed, "total_s": total}


def pin_counts(stats: Dict[Func, tuple], repro_dir: Optional[str] = None) -> Dict[str, int]:
    """Call counts of the :data:`PINS` functions."""
    repro_dir = repro_dir or _repro_dir()
    counts = {metric: 0 for metric in PINS}
    for (filename, _line, name), entry in stats.items():
        for metric, (path, function) in PINS.items():
            if name == function and filename == os.path.join(repro_dir, *path.split("/")):
                counts[metric] += entry[1]
    return counts
