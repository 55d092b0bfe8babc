"""The content-addressed result cache: parity, invalidation, robustness.

The contract under test (docs/architecture.md, "Result cache &
snapshot boot reuse"):

* a warm rerun of an unchanged command is byte-identical to the cold
  run, for any ``--jobs`` and any hit/miss mix;
* the key covers every input -- root seed, any spec field, the source
  of any ``repro`` module a cell may execute -- and leaves out only the
  plumbing that computes no cell (the CLI and the cache);
* a defective entry (truncated, corrupted, wrong magic) is a miss,
  never an error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.exec import cache as result_cache
from repro.exec.cache import ResultCache
from repro.exec.cells import latency_cells
from repro.exec.runner import CellOutcome


@pytest.fixture(autouse=True)
def _no_global_cache():
    """Leave no process-global cache behind for other tests."""
    yield
    result_cache.configure(enabled=False)


def strip_stats(out: str) -> str:
    """Drop the ``cache_stats`` section from a CLI JSON artifact.

    ``cache_stats`` is the one intentional difference between cached
    and uncached output; everything else must match byte-for-byte
    (floats round-trip exactly through json, so re-dumping is safe).
    """
    payload = json.loads(out)
    payload.pop("cache_stats", None)
    return json.dumps(payload, indent=2) + "\n"


def run_cli(argv, capsys) -> str:
    main(argv)
    return capsys.readouterr().out


class TestCliParity:
    ARGV = ["table1", "--packets", "12", "--payloads", "64", "1024",
            "--seed", "3", "--json"]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_warm_hit_is_byte_identical(self, jobs, tmp_path, capsys):
        argv = self.ARGV + ["-j", str(jobs)]
        cold = run_cli(argv, capsys)

        cached = argv + ["--cache", "--cache-dir", str(tmp_path)]
        first = run_cli(cached, capsys)
        stats = json.loads(first)["cache_stats"]
        assert stats["hits"] == 0 and stats["misses"] == stats["stores"] == 4

        second = run_cli(cached, capsys)
        stats = json.loads(second)["cache_stats"]
        assert stats["hits"] == 4 and stats["misses"] == 0

        assert strip_stats(first) == cold
        assert strip_stats(second) == cold

    def test_mixed_hit_miss_is_byte_identical(self, tmp_path, capsys):
        # Populate only the 64 B column, then run 64+1024: two cells
        # come from disk, two run fresh, and the merged artifact still
        # matches a fully cold run byte-for-byte.
        base = ["table1", "--packets", "12", "--seed", "3", "--json", "-j", "4"]
        cached = ["--cache", "--cache-dir", str(tmp_path)]
        run_cli(base + ["--payloads", "64"] + cached, capsys)

        cold = run_cli(base + ["--payloads", "64", "1024"], capsys)
        mixed = run_cli(base + ["--payloads", "64", "1024"] + cached, capsys)
        stats = json.loads(mixed)["cache_stats"]
        assert stats["hits"] == 2 and stats["misses"] == 2
        assert strip_stats(mixed) == cold

    def test_reset_storm_is_served_from_the_cache(self, tmp_path, capsys):
        # E-F2 is one faultlat cell carrying the reset-storm plan.
        argv = ["faultsweep", "--scenario", "reset", "--every", "20",
                "--packets", "40", "--seed", "3", "--json",
                "--cache", "--cache-dir", str(tmp_path)]
        first = run_cli(argv, capsys)
        stats = json.loads(first)["cache_stats"]
        assert stats["hits"] == 0 and stats["misses"] == stats["stores"] == 1
        second = run_cli(argv, capsys)
        stats = json.loads(second)["cache_stats"]
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert strip_stats(second) == strip_stats(first)

    def test_no_cache_flag_wins_over_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["table1", "--packets", "8", "--payloads", "64", "--seed", "3",
                "--json", "-j", "1"]
        enabled = run_cli(argv, capsys)
        assert "cache_stats" in json.loads(enabled)
        disabled = run_cli(argv + ["--no-cache"], capsys)
        assert "cache_stats" not in json.loads(disabled)

    def test_cache_and_no_cache_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--json", "--cache", "--no-cache"])


class TestConcurrentProcesses:
    """Two CLI processes started together on one cache directory: each
    may miss and write any cell (``os.replace`` makes the last writer
    win whole), both print the golden bytes, and the entries they leave
    serve a third run entirely from disk."""

    ARGV = ["table1", "--packets", "60", "--payloads", "64", "1024",
            "--seed", "7", "--json"]
    GOLDEN = Path(__file__).parent.parent / "topology" / "golden" / "table1.json"

    def test_two_processes_share_one_cache_dir(self, tmp_path, capsys):
        src = Path(result_cache.__file__).resolve().parent.parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = self.ARGV + ["--cache", "--cache-dir", str(tmp_path)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        try:
            outputs = [proc.communicate(timeout=600) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()  # no-op once it has exited
        expected = self.GOLDEN.read_text()
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
            assert strip_stats(out) == expected

        warm = run_cli(argv, capsys)
        stats = json.loads(warm)["cache_stats"]
        assert stats["misses"] == 0 and stats["hits"] == 4
        assert strip_stats(warm) == expected
        assert not list(tmp_path.rglob("*.tmp"))


def _cell(seed: int = 9, packets: int = 10):
    return latency_cells((64,), packets=packets, seed=seed)[0]


def _outcome(cell):
    return CellOutcome(cell=cell, value={"rtt": [1, 2, 3]}, events=42)


class TestKeying:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = _cell()
        assert cache.get(cell) is None
        cache.put(cell, _outcome(cell))
        hit = cache.get(cell)
        assert hit is not None
        assert hit.value == {"rtt": [1, 2, 3]}
        assert hit.events == 42
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_seed_change_forces_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.key(_cell(seed=9)) != cache.key(_cell(seed=10))

    def test_spec_change_forces_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.key(_cell(packets=10)) != cache.key(_cell(packets=11))

    def test_code_change_forces_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        cell = _cell()
        cache.put(cell, _outcome(cell))
        monkeypatch.setattr(result_cache, "_FINGERPRINT", "0" * 64)
        assert cache.get(cell) is None


#: Prints the cache key of one latency cell, computed by whichever
#: ``repro`` package is first on ``PYTHONPATH``.
_KEY_SCRIPT = (
    "import sys\n"
    "from repro.exec.cache import ResultCache\n"
    "from repro.exec.cells import latency_cells\n"
    "cell = latency_cells((64,), packets=10, seed=9)[0]\n"
    "print(ResultCache(sys.argv[1]).key(cell))\n"
)


class TestCodeFingerprint:
    """The key follows the source tree: one package copy per case, the
    key computed in a fresh interpreter importing that copy."""

    @staticmethod
    def _latency_key(tmp_path, name, edits=()):
        tree = tmp_path / name
        shutil.copytree(
            Path(result_cache.__file__).resolve().parent.parent, tree / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        for rel in edits:
            with open(tree / "repro" / rel, "a") as handle:
                handle.write("\n# edited\n")
        env = dict(os.environ, PYTHONPATH=str(tree), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-c", _KEY_SCRIPT, str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, check=True,
        )
        return done.stdout.strip()

    def test_any_model_module_changes_a_latency_key(self, tmp_path):
        # Latency cells reach health/bounded.py through the socket
        # receive queue (BoundedQueue.try_push on every UDP delivery).
        base = self._latency_key(tmp_path, "base")
        edited = self._latency_key(tmp_path, "health", ["health/bounded.py"])
        assert len(base) == 64
        assert edited != base

    def test_plumbing_edits_keep_the_key(self, tmp_path):
        base = self._latency_key(tmp_path, "base")
        edited = self._latency_key(
            tmp_path, "plumbing", result_cache.EXCLUDED_MODULES
        )
        assert edited == base


class TestCorruption:
    def _entry_path(self, cache, cell):
        return cache._path(cache.key(cell))

    def test_flipped_byte_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = _cell()
        cache.put(cell, _outcome(cell))
        path = self._entry_path(cache, cell)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        assert cache.get(cell) is None
        assert cache.stats.misses == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = _cell()
        cache.put(cell, _outcome(cell))
        path = self._entry_path(cache, cell)
        open(path, "wb").write(open(path, "rb").read()[:10])
        assert cache.get(cell) is None

    def test_bad_magic_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = _cell()
        cache.put(cell, _outcome(cell))
        path = self._entry_path(cache, cell)
        data = open(path, "rb").read()
        open(path, "wb").write(b"NOPE" + data[4:])
        assert cache.get(cell) is None

    def test_unpicklable_payload_is_a_miss(self, tmp_path):
        import hashlib

        cache = ResultCache(str(tmp_path))
        cell = _cell()
        payload = b"this is not a pickle"
        entry = result_cache._MAGIC + hashlib.sha256(payload).digest() + payload
        path = self._entry_path(cache, cell)
        import os

        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "wb").write(entry)
        assert cache.get(cell) is None


class TestCanonical:
    def test_dataclasses_are_tagged(self):
        cell = _cell()
        form = result_cache.canonical(cell)
        assert form["__type__"] == "Cell"
        assert form["kind"] == "latency" and form["payload"] == 64

    def test_float_exactness(self):
        a = result_cache.spec_digest({"rate": 0.1})
        b = result_cache.spec_digest({"rate": 0.1 + 2**-54})
        assert a != b

    def test_equal_fields_different_types_do_not_collide(self):
        @dataclasses.dataclass
        class A:
            x: int = 1

        @dataclasses.dataclass
        class B:
            x: int = 1

        assert result_cache.spec_digest(A()) != result_cache.spec_digest(B())
