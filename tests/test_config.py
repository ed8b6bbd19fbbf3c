"""The shared environment-variable parsing policy (`repro.config`).

One helper, four callers (compile-cache size, tuner-cache size, program-
cache size, disk-cache byte budget).  The policy under test: unset or
blank means the default, valid positive integers pass through, and
anything else -- non-numeric, zero, negative -- warns (naming the
variable) and falls back to the caller's documented default instead of
silently clamping or raising.
"""

from __future__ import annotations

import pytest

from repro.config import flag_env, list_env, positive_int_env, str_env

VAR = "REPRO_TEST_POSITIVE_INT"
STR_VAR = "REPRO_TEST_STRING"


class TestPositiveIntEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert positive_int_env(VAR, 42) == 42

    def test_blank_returns_default(self, monkeypatch):
        monkeypatch.setenv(VAR, "   ")
        assert positive_int_env(VAR, 42) == 42

    def test_none_default_passes_through(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert positive_int_env(VAR, None) is None

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv(VAR, " 17 ")
        assert positive_int_env(VAR, 42) == 17

    @pytest.mark.parametrize("raw", ["many", "0", "-3", "1.5"])
    def test_invalid_warns_and_defaults(self, monkeypatch, raw):
        monkeypatch.setenv(VAR, raw)
        with pytest.warns(RuntimeWarning, match=VAR):
            assert positive_int_env(VAR, 42) == 42

    def test_invalid_note_overrides_warning_tail(self, monkeypatch):
        monkeypatch.setenv(VAR, "nope")
        with pytest.warns(RuntimeWarning, match="stays unbounded"):
            assert positive_int_env(VAR, None, invalid_note="stays unbounded") is None


class TestStrEnv:
    def test_unset_and_blank_return_default(self, monkeypatch):
        monkeypatch.delenv(STR_VAR, raising=False)
        assert str_env(STR_VAR) == ""
        assert str_env(STR_VAR, "fallback") == "fallback"
        monkeypatch.setenv(STR_VAR, "   ")
        assert str_env(STR_VAR, "fallback") == "fallback"

    def test_strips_and_optionally_lowercases(self, monkeypatch):
        monkeypatch.setenv(STR_VAR, "  Fused ")
        assert str_env(STR_VAR) == "Fused"
        assert str_env(STR_VAR, lower=True) == "fused"

    def test_default_is_never_lowercased(self, monkeypatch):
        monkeypatch.delenv(STR_VAR, raising=False)
        assert str_env(STR_VAR, "KeepCase", lower=True) == "KeepCase"


class TestListEnv:
    def test_unset_returns_default_tuple(self, monkeypatch):
        monkeypatch.delenv(STR_VAR, raising=False)
        assert list_env(STR_VAR) == ()
        assert list_env(STR_VAR, ["a", "b"]) == ("a", "b")

    def test_splits_strips_and_drops_empties(self, monkeypatch):
        monkeypatch.setenv(STR_VAR, " default , optimized ,, fused ,")
        assert list_env(STR_VAR) == ("default", "optimized", "fused")

    def test_separator_only_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(STR_VAR, " , ,")
        assert list_env(STR_VAR, ["fallback"]) == ("fallback",)


class TestFlagEnv:
    @pytest.mark.parametrize("raw", ["1", "true", "YES", " On "])
    def test_truthy(self, monkeypatch, raw):
        monkeypatch.setenv(STR_VAR, raw)
        assert flag_env(STR_VAR) is True

    @pytest.mark.parametrize("raw", ["0", "False", "no", "off"])
    def test_falsy(self, monkeypatch, raw):
        monkeypatch.setenv(STR_VAR, raw)
        assert flag_env(STR_VAR, True) is False

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(STR_VAR, raising=False)
        assert flag_env(STR_VAR) is False
        assert flag_env(STR_VAR, True) is True

    def test_invalid_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv(STR_VAR, "ture")
        with pytest.warns(RuntimeWarning, match=STR_VAR):
            assert flag_env(STR_VAR) is False


class TestCallerWiring:
    """Each consolidated caller still reads its documented variable/default."""

    def test_disk_cache_max_bytes_unbounded_default(self, monkeypatch):
        from repro.caching.disk import MAX_BYTES_ENV_VAR, _default_max_bytes

        monkeypatch.delenv(MAX_BYTES_ENV_VAR, raising=False)
        assert _default_max_bytes() is None
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "bogus")
        with pytest.warns(RuntimeWarning, match=MAX_BYTES_ENV_VAR):
            assert _default_max_bytes() is None

    def test_sim_kernel_reads_through_str_env(self, monkeypatch):
        from repro.simulators.backend import SIM_KERNEL_ENV_VAR, active_simulation_kernel

        monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "  REFERENCE ")
        assert active_simulation_kernel() == "reference"
        monkeypatch.delenv(SIM_KERNEL_ENV_VAR)
        assert active_simulation_kernel() == "fused"

    def test_autotune_candidates_read_through_list_env(self, monkeypatch):
        from repro.compiler.autotune import (
            CANDIDATES_ENV_VAR,
            _DEFAULT_CANDIDATES,
            default_candidate_pipelines,
        )

        monkeypatch.setenv(CANDIDATES_ENV_VAR, " optimized , fused ")
        assert default_candidate_pipelines() == ("optimized", "fused")
        monkeypatch.delenv(CANDIDATES_ENV_VAR)
        assert default_candidate_pipelines() == _DEFAULT_CANDIDATES

    def test_disk_cache_dir_reads_through_str_env(self, tmp_path, monkeypatch):
        from repro.caching import disk

        monkeypatch.setenv(disk.CACHE_DIR_ENV_VAR, f" {tmp_path} ")
        disk.reset_disk_cache_configuration()
        try:
            cache = disk.get_global_disk_cache()
            assert cache is not None
            monkeypatch.delenv(disk.CACHE_DIR_ENV_VAR)
            assert disk.get_global_disk_cache() is None
        finally:
            disk.reset_disk_cache_configuration()
