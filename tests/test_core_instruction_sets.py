"""Tests for the gate-type and instruction-set catalogue (Table II)."""

import dataclasses

import numpy as np
import pytest

from repro.core.gate_types import (
    S_TYPE_FSIM_PARAMETERS,
    S_TYPE_XY_ANGLES,
    all_google_types,
    all_rigetti_types,
    google_gate_type,
    rigetti_gate_type,
)
from repro.core.instruction_sets import (
    InstructionSet,
    full_fsim_set,
    full_xy_set,
    google_catalogue,
    google_instruction_set,
    rigetti_catalogue,
    rigetti_instruction_set,
    single_gate_set,
    table2_catalogue,
)
from repro.gates.kak import is_locally_equivalent
from repro.gates.parametric import fsim
from repro.gates.standard import CZ, ISWAP, SQRT_ISWAP, SWAP, SYC
from repro.gates.unitary import is_unitary


class TestGateTypes:
    def test_s_type_matrices_match_fsim_parameters(self):
        for label, (theta, phi) in S_TYPE_FSIM_PARAMETERS.items():
            gate_type = google_gate_type(label)
            assert np.allclose(gate_type.matrix, fsim(theta, phi))
            assert is_unitary(gate_type.matrix)

    def test_named_equivalences_from_table2(self):
        assert np.allclose(google_gate_type("S1").matrix, SYC)
        assert np.allclose(google_gate_type("S2").matrix, fsim(np.pi / 4, 0))
        assert is_locally_equivalent(google_gate_type("S2").matrix, SQRT_ISWAP)
        assert is_locally_equivalent(google_gate_type("S3").matrix, CZ)
        assert is_locally_equivalent(google_gate_type("S4").matrix, ISWAP)
        assert np.allclose(google_gate_type("SWAP").matrix, SWAP)

    def test_rigetti_types_use_xy_and_cz_parameterisation(self):
        assert rigetti_gate_type("S3").type_key == "cz"
        assert rigetti_gate_type("S4").type_key == "xy(3.141593)"
        for label, angle in S_TYPE_XY_ANGLES.items():
            rigetti = rigetti_gate_type(label)
            google = google_gate_type(label)
            assert is_locally_equivalent(rigetti.matrix, google.matrix)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            google_gate_type("S99")
        with pytest.raises(ValueError):
            rigetti_gate_type("S99")

    def test_all_types_catalogues(self):
        assert set(all_google_types()) == {"S1", "S2", "S3", "S4", "S5", "S6", "S7", "SWAP"}
        assert set(all_rigetti_types()) == {"S2", "S3", "S4", "S5", "S6", "SWAP"}


class TestInstructionSets:
    def test_google_set_memberships_match_table2(self):
        assert google_instruction_set("G1").labels() == ["S1", "S2"]
        assert google_instruction_set("G3").labels() == ["S1", "S2", "S3", "S4"]
        assert google_instruction_set("G7").labels() == [
            "S1", "S2", "S3", "S4", "S5", "S6", "S7", "SWAP",
        ]
        assert google_instruction_set("G7").has_native_swap()
        assert not google_instruction_set("G6").has_native_swap()

    def test_rigetti_set_memberships_match_table2(self):
        assert rigetti_instruction_set("R1").labels() == ["S3", "S4"]
        assert rigetti_instruction_set("R5").labels() == ["S2", "S3", "S4", "S5", "S6", "SWAP"]
        assert rigetti_instruction_set("R5").has_native_swap()

    def test_single_gate_sets(self):
        s1 = single_gate_set("S1")
        assert s1.num_gate_types == 1
        assert not s1.is_continuous

    def test_continuous_sets(self):
        assert full_xy_set().is_continuous
        assert full_xy_set().continuous_family == "xy"
        assert full_fsim_set().continuous_family == "fsim"
        assert full_fsim_set().num_gate_types == 0

    def test_unknown_set_names_rejected(self):
        with pytest.raises(ValueError):
            google_instruction_set("G9")
        with pytest.raises(ValueError):
            rigetti_instruction_set("R9")

    def test_instruction_set_validation(self):
        with pytest.raises(ValueError):
            InstructionSet(name="bad")
        with pytest.raises(ValueError):
            InstructionSet(name="bad", continuous_family="weird")

    def test_catalogue_sizes(self):
        assert len(google_catalogue()) == 7 + 7 + 1
        assert len(rigetti_catalogue()) == 5 + 5 + 1
        combined = table2_catalogue()
        assert "G7" in combined and "R5" in combined and "FullfSim" in combined and "FullXY" in combined

    def test_type_keys_are_unique_within_a_set(self):
        for instruction_set in google_catalogue().values():
            keys = instruction_set.type_keys()
            assert len(keys) == len(set(keys))


def _same_catalogue(left, right):
    return list(left) == list(right) and all(left[name] is right[name] for name in left)


class TestSharedCatalogues:
    def test_each_call_returns_a_new_dict_over_the_same_frozen_sets(self):
        for catalogue in (google_catalogue, rigetti_catalogue):
            first, second = catalogue(), catalogue()
            assert first is not second
            assert _same_catalogue(first, second)
            for name in first:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    first[name].name = "renamed"

    def test_mutating_a_returned_dict_never_reaches_later_calls(self):
        reference = google_catalogue()
        mutated = google_catalogue()
        mutated["S1"] = rigetti_catalogue()["S2"]
        mutated.pop("G3")
        mutated["extra"] = full_xy_set()
        assert _same_catalogue(google_catalogue(), reference)

    def test_table2_catalogue_leaves_google_catalogue_unchanged(self):
        reference = google_catalogue()
        combined = table2_catalogue()
        assert combined["S2"].vendor == "rigetti"  # the Rigetti update wins
        assert _same_catalogue(google_catalogue(), reference)
        assert google_catalogue()["S2"].vendor == "google"
        assert "FullXY" not in google_catalogue()
