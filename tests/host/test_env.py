"""Tests for the consolidated environment-knob reader (repro.env)."""

import os

import pytest

from repro import env


class TestPackets:
    def test_unset_returns_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_PACKETS", raising=False)
        assert env.packets(500) == 500
        assert env.packets() is None

    def test_set_overrides_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACKETS", "250")
        assert env.packets(500) == 250

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACKETS", "many")
        with pytest.raises(env.EnvError, match="must be an integer, got 'many'"):
            env.packets(500)

    def test_non_positive_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACKETS", "0")
        with pytest.raises(env.EnvError, match="must be positive"):
            env.packets(500)


class TestFlags:
    def test_flag_guessing_rejected(self, monkeypatch):
        # "true"/"yes"/"on" are errors, not synonyms: a knob that
        # silently ignores them reads as enabled when it is not.
        for value in ("true", "yes", "on", "2"):
            monkeypatch.setenv("REPRO_CACHE", value)
            with pytest.raises(env.EnvError, match="REPRO_CACHE"):
                env.result_cache()

    def test_rejection_lists_choices_then_value(self, monkeypatch):
        # The message names the variable, the accepted set, then the value.
        monkeypatch.setenv("REPRO_CACHE", "yes")
        with pytest.raises(
            env.EnvError, match="REPRO_CACHE must be '1' or '0', got 'yes'"
        ):
            env.result_cache()


class TestCacheKnobs:
    def test_result_cache_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert env.result_cache() is False
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert env.result_cache() is True
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert env.result_cache() is False
        monkeypatch.setenv("REPRO_CACHE", "yes")
        with pytest.raises(env.EnvError, match="REPRO_CACHE"):
            env.result_cache()

    def test_cache_dir_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert env.cache_dir() is None

    def test_cache_dir_passes_through_paths(self, monkeypatch, tmp_path):
        existing = tmp_path / "store"
        existing.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(existing))
        assert env.cache_dir() == str(existing)
        # A not-yet-created directory is fine: the cache mkdirs it.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "later"))
        assert env.cache_dir() == str(tmp_path / "later")

    def test_cache_dir_rejects_non_directory(self, monkeypatch, tmp_path):
        occupied = tmp_path / "file"
        occupied.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(occupied))
        with pytest.raises(env.EnvError, match="REPRO_CACHE_DIR"):
            env.cache_dir()

    def test_snapshot_boot_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SNAPSHOT_BOOT", raising=False)
        assert env.snapshot_boot() is True
        monkeypatch.setenv("REPRO_SNAPSHOT_BOOT", "1")
        assert env.snapshot_boot() is True
        monkeypatch.setenv("REPRO_SNAPSHOT_BOOT", "0")
        assert env.snapshot_boot() is False
        monkeypatch.setenv("REPRO_SNAPSHOT_BOOT", "off")
        with pytest.raises(env.EnvError, match="REPRO_SNAPSHOT_BOOT"):
            env.snapshot_boot()


class TestCheckEnvironment:
    def test_knob_set(self):
        assert sorted(env.KNOWN_KNOBS) == [
            "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_PACKETS",
            "REPRO_SNAPSHOT_BOOT",
        ]

    def test_clean_environment_passes(self, monkeypatch):
        for name in env.KNOWN_KNOBS:
            monkeypatch.delenv(name, raising=False)
        env.check_environment()

    def test_every_knob_is_swept(self, monkeypatch):
        # Each known knob, when corrupted, must surface through the
        # one-shot validator with its own name in the message.  For
        # most knobs any odd string is invalid; REPRO_CACHE_DIR takes
        # arbitrary paths, so its bad value is a path that exists and
        # is not a directory.
        invalid = {"REPRO_CACHE_DIR": os.devnull}
        for name in env.KNOWN_KNOBS:
            monkeypatch.delenv(name, raising=False)
        for name in env.KNOWN_KNOBS:
            monkeypatch.setenv(name, invalid.get(name, "surely-invalid"))
            with pytest.raises(env.EnvError, match=name):
                env.check_environment()
            monkeypatch.delenv(name)
