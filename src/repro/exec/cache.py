"""Content-addressed on-disk cache of cell results.

Every artifact decomposes into cells that are pure functions of their
parameters (``docs/architecture.md``, "Parallel execution"), which
makes their results *content-addressable*: a cell's outcome is fully
determined by its kind, its canonicalized spec (every ``Cell`` field,
including the spawn-key-derived seed), and the source code it runs.
The cache keys on exactly that triple, so a warm rerun of an unchanged
tree returns every cell from disk -- and any change to an input (a
spec field, the root seed, a module a cell may execute) changes the
key and forces a fresh run.

Key derivation
--------------

``sha256(json({kind, spec, code}))`` where

* ``spec`` is the cell's dataclass canonicalized recursively (floats
  kept exact via JSON's shortest-repr round trip, nested dataclasses
  such as the calibration profile / fault plan / overload config /
  fleet config expanded field-by-field with their type names);
* ``code`` is the *code fingerprint*: one hash over the path and
  source of every ``repro/**/*.py`` file except the two in
  :data:`EXCLUDED_MODULES` (``cli.py`` and this module), which choose
  what runs and where results go but compute no cell.  There is no
  per-kind list to keep in step with the call graph, so no edit to
  model code can leave a key stale; the price is that any such edit
  invalidates every entry.  Docs-only and CLI-only changes invalidate
  nothing.

The cell seed already encodes the experiment's root seed and the
cell's spawn-key identity (:func:`repro.exec.cells.seed_identity`), so
including it in ``spec`` covers the seed-identity axis of the key.

Entry format and corruption
---------------------------

Entries live at ``<dir>/<key[:2]>/<key>.entry`` as ``magic + sha256 +
pickle((value, events))``, written via a temp file and
``os.replace`` so readers never see a half-written entry.  A missing
file, bad magic, checksum mismatch, or unpicklable payload is treated
as a miss -- a corrupted cache can cost time, never correctness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Dict, Optional, Tuple

#: Default on-disk location (relative to the working directory) when
#: neither ``--cache-dir`` nor ``REPRO_CACHE_DIR`` names one.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Entry-format magic; bump when the payload layout changes (old
#: entries then read as corrupt, i.e. as misses).
_MAGIC = b"RPC2"

#: ``repro`` sources outside the code fingerprint, relative to the
#: package and ``/``-separated: they decide which cells run and where
#: results go, never what a cell computes.
EXCLUDED_MODULES: Tuple[str, ...] = ("cli.py", "exec/cache.py")


# -- code fingerprints ---------------------------------------------------------


_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over the path and source of every ``repro`` module outside
    :data:`EXCLUDED_MODULES`.

    Computed once per process; the tree is assumed stable for the
    process lifetime (the same assumption imports make).
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        hasher = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                if rel in EXCLUDED_MODULES:
                    continue
                with open(path, "rb") as handle:
                    source = handle.read()
                hasher.update(rel.encode("utf-8"))
                hasher.update(hashlib.sha256(source).digest())
        _FINGERPRINT = hasher.hexdigest()
    return _FINGERPRINT


# -- spec canonicalization -----------------------------------------------------


def canonical(value: Any) -> Any:
    """A JSON-able, deterministic form of a cell spec value.

    Nested dataclasses (profiles, fault plans, overload/fleet configs)
    expand field-by-field tagged with their type name, so two configs
    of different types with equal fields cannot collide.  Floats ride
    as JSON numbers: ``json.dumps`` emits ``repr``-shortest forms,
    which distinguish any two different doubles.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): canonical(value[key])
            for key in sorted(value, key=str)
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"__type__": type(value).__qualname__}
        for field in dataclasses.fields(value):
            out[field.name] = canonical(getattr(value, field.name))
        return out
    return {"__repr__": f"{type(value).__qualname__}:{value!r}"}


def spec_digest(value: Any) -> str:
    """Short stable digest of any canonicalizable value (snapshot keys)."""
    material = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


# -- the store -----------------------------------------------------------------


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache instance (rides every JSON report)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    hit_bytes: int = 0
    stored_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class ResultCache:
    """The content-addressed store; one instance per cache directory."""

    def __init__(self, root: str):
        self.root = root
        self.stats = CacheStats()
        os.makedirs(root, exist_ok=True)

    def key(self, cell: Any) -> str:
        """The cell's content address (see the module docstring)."""
        material = json.dumps(
            {
                "kind": cell.kind,
                "spec": canonical(cell),
                "code": code_fingerprint(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.entry")

    def get(self, cell: Any):
        """The cell's cached outcome, or ``None`` (counted as a miss).

        Any defect in the entry -- missing, short, bad magic, checksum
        mismatch, unpicklable -- is a miss, never an error.
        """
        from repro.exec.runner import CellOutcome

        path = self._path(self.key(cell))
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.stats.misses += 1
            return None
        payload = data[36:]
        if (
            len(data) < 36
            or data[:4] != _MAGIC
            or hashlib.sha256(payload).digest() != data[4:36]
        ):
            self.stats.misses += 1
            return None
        try:
            value, events = pickle.loads(payload)
        except Exception:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.hit_bytes += len(data)
        return CellOutcome(cell=cell, value=value, events=events)

    def put(self, cell: Any, outcome: Any) -> None:
        """Store *outcome* atomically (temp file + ``os.replace``)."""
        payload = pickle.dumps(
            (outcome.value, outcome.events), protocol=pickle.HIGHEST_PROTOCOL
        )
        data = _MAGIC + hashlib.sha256(payload).digest() + payload
        path = self._path(self.key(cell))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self.stats.stored_bytes += len(data)


# -- the process-global active cache -------------------------------------------

_ACTIVE: Optional[ResultCache] = None


def configure(
    enabled: Optional[bool] = None, cache_dir: Optional[str] = None
) -> Optional[ResultCache]:
    """Install (or remove) the process-global cache.

    ``enabled=None`` defers to the ``REPRO_CACHE`` env knob; an explicit
    ``False`` always removes the active cache.  The directory falls
    back ``cache_dir`` -> ``REPRO_CACHE_DIR`` -> ``.repro-cache``.
    """
    from repro import env

    global _ACTIVE
    if enabled is None:
        enabled = env.result_cache()
    if not enabled:
        _ACTIVE = None
        return None
    _ACTIVE = ResultCache(cache_dir or env.cache_dir() or DEFAULT_CACHE_DIR)
    return _ACTIVE


def active_cache() -> Optional[ResultCache]:
    """The cache ``run_cells`` consults, or ``None`` when disabled."""
    return _ACTIVE


def cache_stats() -> Optional[Dict[str, Any]]:
    """The active cache's counters as a JSON-ready dict, or ``None``.

    ``boot_reuses`` comes from the snapshot layer's parent-side
    aggregation, so it covers reuses performed inside pool workers.
    """
    from repro.exec import snapshot

    if _ACTIVE is None:
        return None
    stats = _ACTIVE.stats.as_dict()
    stats["boot_reuses"] = snapshot.parent_boot_reuses()
    stats["dir"] = _ACTIVE.root
    return stats
