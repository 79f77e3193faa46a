"""Centralized REPRO_* parsing: typed accessors, validation errors."""

import pytest

from repro.perf import env
from repro.perf.env import EnvError


class TestPrimitives:
    def test_string_default_when_unset_or_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_VAR", raising=False)
        assert env.env_string("REPRO_TEST_VAR", "fallback") == "fallback"
        monkeypatch.setenv("REPRO_TEST_VAR", "")
        assert env.env_string("REPRO_TEST_VAR", "fallback") == "fallback"
        monkeypatch.setenv("REPRO_TEST_VAR", "value")
        assert env.env_string("REPRO_TEST_VAR") == "value"

    def test_int_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_VAR", "three")
        with pytest.raises(EnvError, match="REPRO_TEST_VAR"):
            env.env_int("REPRO_TEST_VAR")

    def test_int_enforces_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_VAR", "0")
        with pytest.raises(EnvError, match=">= 1"):
            env.env_int("REPRO_TEST_VAR", minimum=1)

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("False", False), ("no", False), ("off", False),
        ("", False),
    ])
    def test_flag_accepted_spellings(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_TEST_VAR", raw)
        assert env.env_flag("REPRO_TEST_VAR", not expected) is expected

    def test_flag_rejects_junk(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_VAR", "maybe")
        with pytest.raises(EnvError, match="not a boolean"):
            env.env_flag("REPRO_TEST_VAR", True)


class TestCacheKnobs:
    def test_disable_flag_inverts(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        assert env.cache_enabled() is True
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert env.cache_enabled() is False

    def test_max_bytes_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        with pytest.raises(EnvError, match="REPRO_CACHE_MAX_BYTES"):
            env.cache_max_bytes()
