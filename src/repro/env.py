"""One validated reader for every ``REPRO_*`` environment knob.

The knobs accumulated across subsystems (packet-count override,
result cache, snapshot boot reuse), each with its own parsing and its
own failure behavior -- a typo in one silently fell back to the
default while a typo in another raised.  This module is the single
source of truth: every knob is declared here with its
accepted values, every reader validates, and an unknown value always
raises :class:`EnvError` naming the variable, the offending value, and
what would have been accepted.

The reference table lives in ``docs/architecture.md`` ("Environment
knobs"); keep the two in sync.

Knobs
-----

``REPRO_PACKETS``
    Positive integer: packets per payload size / load point, overriding
    artifact defaults (the paper used 50000).
``REPRO_CACHE``
    Flag: consult and populate the content-addressed cell result cache
    (the CLI's ``--cache``/``--no-cache`` flags override it).
``REPRO_CACHE_DIR``
    Directory path for the result cache (default ``.repro-cache``; the
    CLI's ``--cache-dir`` overrides it).  A path that exists but is
    not a directory is an error.
``REPRO_SNAPSHOT_BOOT``
    ``1`` (default) or ``0``: reuse pristine boot snapshots via
    fork/copy-on-write stamping when a cell's (spec, seed, profile)
    repeats in a process.  ``0`` boots every cell cold.

Flags accept ``1`` (on) and ``0`` / unset / empty (off); anything else
is an error rather than a guess.
"""

from __future__ import annotations

import os
from typing import Optional


class EnvError(ValueError):
    """An environment knob holds a value outside its accepted set."""


#: knob name -> human-readable accepted-values description (the
#: architecture doc's table is generated from the docstring above; this
#: map is what :func:`check_environment` sweeps).
KNOWN_KNOBS = {
    "REPRO_PACKETS": "a positive integer",
    "REPRO_CACHE": "'1' or '0'",
    "REPRO_CACHE_DIR": "a directory path (created if missing)",
    "REPRO_SNAPSHOT_BOOT": "'1' (default) or '0'",
}


def _raw(name: str) -> str:
    return os.environ.get(name, "")


def _flag(name: str) -> bool:
    value = _raw(name)
    if value in ("", "0"):
        return False
    if value == "1":
        return True
    raise EnvError(
        f"{name} must be {KNOWN_KNOBS[name]}, got {value!r}"
    )


def packets(fallback: Optional[int] = None) -> Optional[int]:
    """``REPRO_PACKETS`` as a positive int, or *fallback* when unset."""
    value = _raw("REPRO_PACKETS")
    if not value:
        return fallback
    try:
        count = int(value)
    except ValueError:
        raise EnvError(
            f"REPRO_PACKETS must be an integer, got {value!r}"
        ) from None
    if count <= 0:
        raise EnvError(f"REPRO_PACKETS must be positive, got {count}")
    return count


def result_cache() -> bool:
    """``REPRO_CACHE``: enable the content-addressed result cache."""
    return _flag("REPRO_CACHE")


def cache_dir() -> Optional[str]:
    """``REPRO_CACHE_DIR``: result-cache directory, or None (default)."""
    value = _raw("REPRO_CACHE_DIR")
    if not value:
        return None
    if os.path.exists(value) and not os.path.isdir(value):
        raise EnvError(
            f"REPRO_CACHE_DIR must be {KNOWN_KNOBS['REPRO_CACHE_DIR']}, "
            f"got {value!r} which exists and is not a directory"
        )
    return value


def snapshot_boot() -> bool:
    """``REPRO_SNAPSHOT_BOOT``: boot-snapshot reuse (default on)."""
    value = _raw("REPRO_SNAPSHOT_BOOT")
    if value in ("", "1"):
        return True
    if value == "0":
        return False
    raise EnvError(
        f"REPRO_SNAPSHOT_BOOT must be {KNOWN_KNOBS['REPRO_SNAPSHOT_BOOT']}, "
        f"got {value!r}"
    )


def check_environment() -> None:
    """Validate every set knob at once (CLI startup hook): one clear
    error up front instead of a late failure deep inside a worker."""
    packets()
    result_cache()
    cache_dir()
    snapshot_boot()
