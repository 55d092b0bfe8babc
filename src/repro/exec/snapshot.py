"""Snapshot boot reuse: boot a testbed once, stamp cells from the image.

Booting a testbed -- device enumeration, feature negotiation, ring
setup, the driver probe, and the ``sim.run()`` drain -- is a
deterministic function of ``(spec, seed, profile)``, and several cell
families deliberately share that triple: every fault rate of a
(driver, payload) column, every repeat of one workload in a process
(the benchmark's timed passes), a warm worker seeing the same spec
across fan-outs.  Where the boot outweighs the measurement, re-running
it for each of them is waste; this module boots once and reuses the
post-probe state (see Policy for which keys qualify).

Why fork, not deepcopy
----------------------

A booted testbed is *not* copyable in-process: the machine's suspended
coroutine processes (the echo user-logic loop, RX service loops) live
in generator frames that are unreachable from the testbed object
graph, so ``copy.deepcopy`` silently drops them and the copy deadlocks
on first use (generators themselves refuse to deepcopy, but nothing
reachable from the testbed *is* the generator).  The only faithful
copy of a running simulation is a copy of the whole process image --
``os.fork()``'s copy-on-write clone.  Each stamped cell forks a child
off the pristine parent, runs the measurement there, and ships the
pickled result back through a pipe; the parent image is never touched,
so one boot serves any number of same-key cells, byte-identically
(``tests/exec/test_snapshot.py`` pins the parity with a hypothesis
test).

Policy
------

Keeping a pristine image costs memory, and a stamp adds a fork, a pipe
and a pickle to the measurement it wraps (9-18 ms on a 2-vCPU x86 VM,
fork + exit alone ~4 ms, against a ~15 ms VirtIO or ~3 ms XDMA boot),
so it pays only on a cell whose boot is a large share of its work.
Simulator events are the exact measure of that share.  Most cell keys
occur exactly once (latency cells all have distinct seeds), so the
registry keeps nothing until a key repeats: the first use runs cold
and records how many events the boot ran and how many the measurement
then added.  A repeated key whose boot ran more events than its
measurement boots once more and *keeps* the pristine image (stamping
the measurement off it), and every later use stamps straight from the
image -- a *boot reuse*.  Any other repeated key boots cold on every
use and holds no image.  A 50-packet fault cell measures 6 755-8 004
events after a 1221-event VirtIO boot (3 911-5 324 after a 147-event
XDMA boot; seeds 0-9); stamping those cells lost to cold boots in all
ten same-seed pairs of the benchmark's ``fault_sweep_cached`` workload
(median 2679 packets/s stamped, 3288 cold).  A 1-packet cell (122-160
events after the VirtIO boot, 79-123 after the XDMA one) still
stamps.  The counts are exact, so which keys stamp, and every reuse
count, repeat run to run.

Images are capped by an LRU, and an evicted or reset image is
garbage-collected at once; any transport failure (no ``fork``,
unpicklable result) falls back to the cold path, never to an error.
The registry is per-process: each warm pool worker accumulates its own
images, which survive across fan-outs exactly like the worker's module
caches.

``REPRO_SNAPSHOT_BOOT=0`` disables the whole layer (every cell boots
cold, the pre-snapshot behavior).
"""

from __future__ import annotations

import gc
import os
import pickle
import struct
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro import env


class SnapshotError(RuntimeError):
    """The fork/pipe transport failed (the caller falls back to cold)."""


#: Cap on pristine testbed images kept per process (LRU-evicted).
MAX_SNAPSHOTS = 8

_SUPPORTED = hasattr(os, "fork")

# Per-process state: pristine images by key (LRU order), the simulator
# events each seen key's first (cold) use spent on boot and on the
# measurement, keys whose stamping transport failed (never retried),
# and how many boots this process has reused.
_PRISTINE: "OrderedDict[str, Any]" = OrderedDict()
_COST: Dict[str, Tuple[int, int]] = {}
_BROKEN: set = set()
_LOCAL_REUSES = 0

# Parent-side aggregation: ``run_cells`` folds the ``boot_reused``
# flags riding each outcome back here, so reuses that happened inside
# pool workers are visible to ``cache_stats()`` in the parent.
_PARENT_REUSES = 0


def enabled() -> bool:
    """Whether boot snapshots are usable in this process."""
    return _SUPPORTED and env.snapshot_boot()


def reset() -> None:
    """Drop all pristine images and counters (tests; monkeypatched
    module state in a pristine image would otherwise leak across
    tests)."""
    global _LOCAL_REUSES, _PARENT_REUSES
    _PRISTINE.clear()
    _COST.clear()
    _BROKEN.clear()
    _LOCAL_REUSES = 0
    _PARENT_REUSES = 0
    _collect_dropped_images()


def _collect_dropped_images() -> None:
    """Reclaim dropped images now: each is a cyclic object graph that
    has long since reached the oldest GC generation, which the
    generation-0 collection ending every cell never reaches."""
    gc.collect()


def local_reuses() -> int:
    """Boot reuses performed by *this* process (worker-side counter)."""
    return _LOCAL_REUSES


def note_parent_reuses(count: int) -> None:
    """Fold worker-side reuses (from outcome flags) into the parent."""
    global _PARENT_REUSES
    _PARENT_REUSES += count


def parent_boot_reuses() -> int:
    """Total boot reuses observed across all workers (parent-side)."""
    return _PARENT_REUSES


def snapshots_held() -> int:
    """Pristine images currently kept in this process."""
    return len(_PRISTINE)


def execute(
    key: Optional[str],
    boot: Callable[[], Any],
    measure: Callable[[Any], Any],
) -> Tuple[Any, bool]:
    """Run *measure* on a testbed from *boot*, reusing snapshots.

    Returns ``(measure's result, boot_reused)``.  ``boot`` must be the
    pure testbed construction (everything *key* identifies) and
    ``measure`` everything after it -- fault-plan attachment, overload
    bounds, the workload itself -- so the pristine image is never
    mutated by cell-specific state.  The testbed's ``sim`` counts the
    events each of them runs, which decides whether the key stamps.
    """
    global _LOCAL_REUSES
    if key is None or key in _BROKEN or not enabled():
        return measure(boot()), False
    pristine = _PRISTINE.get(key)
    if pristine is not None:
        _PRISTINE.move_to_end(key)
        try:
            result = _stamp(pristine, measure)
        except SnapshotError:
            _PRISTINE.pop(key, None)
            _BROKEN.add(key)
            return measure(boot()), False
        _LOCAL_REUSES += 1
        return result, True
    cost = _COST.get(key)
    if cost is None:
        # Most keys occur once; don't pay fork/pickle or image memory
        # until the key proves it repeats.
        testbed = boot()
        booted = testbed.sim.events_executed
        result = measure(testbed)
        _COST[key] = (booted, testbed.sim.events_executed - booted)
        return result, False
    boot_events, measure_events = cost
    if boot_events <= measure_events:
        # The stamp would cost more than the boot it saves (see Policy).
        return measure(boot()), False
    testbed = boot()
    try:
        result = _stamp(testbed, measure)
    except SnapshotError:
        _BROKEN.add(key)
        # The freshly booted testbed is still pristine: measure on it
        # directly, which is exactly the cold path.
        return measure(testbed), False
    _keep(key, testbed)
    return result, False


def _keep(key: str, testbed: Any) -> None:
    _PRISTINE[key] = testbed
    _PRISTINE.move_to_end(key)
    while len(_PRISTINE) > MAX_SNAPSHOTS:
        _PRISTINE.popitem(last=False)
        _collect_dropped_images()


def _read_exact(fd: int, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = os.read(fd, remaining)
        if not chunk:
            raise SnapshotError(
                f"snapshot child pipe closed with {remaining} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _stamp(testbed: Any, measure: Callable[[Any], Any]) -> Any:
    """Run *measure* against a copy-on-write fork of this process.

    The child mutates its own image of *testbed* (rings advance,
    processes run) and ships ``pickle((ok, result))`` back through a
    pipe; the parent's image -- and everything else in the parent --
    is untouched.  A failure inside *measure* is pickled and re-raised
    here, so cell errors surface exactly as they would cold.
    """
    if not _SUPPORTED:
        raise SnapshotError("os.fork is unavailable on this platform")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # Child: never return into the caller's stack; _exit skips
        # atexit hooks (the warm pool's shutdown) and buffered I/O.
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps(
                    (True, measure(testbed)), protocol=pickle.HIGHEST_PROTOCOL
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded to parent
                try:
                    payload = pickle.dumps(
                        (False, exc), protocol=pickle.HIGHEST_PROTOCOL
                    )
                except Exception:
                    payload = pickle.dumps(
                        (False, SnapshotError(f"unpicklable cell failure: {exc!r}"))
                    )
            _write_all(write_fd, struct.pack("<Q", len(payload)) + payload)
        except BaseException:  # noqa: BLE001 - nothing to report through
            os._exit(1)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        header = _read_exact(read_fd, 8)
        payload = _read_exact(read_fd, struct.unpack("<Q", header)[0])
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(f"snapshot result failed to unpickle: {exc!r}") from exc
    if not ok:
        raise value
    return value
