"""Tests for NuOp template circuits and their analytic gradients."""

import numpy as np
import pytest

from repro.core import templates
from repro.core.decomposer import NuOpDecomposer
from repro.core.pipeline import _decomposer_fingerprint
from repro.core.templates import (
    TemplateSpec,
    _batched_u3,
    _batched_u3_derivatives,
    continuous_family_template,
    fixed_gate_template,
)
from repro.gates.parametric import u3
from repro.gates.standard import CZ, SYC
from repro.gates.unitary import hilbert_schmidt_fidelity, is_unitary, random_su4


class TestBatchedU3:
    def test_matches_scalar_u3(self, rng):
        angles = rng.uniform(-np.pi, np.pi, size=(6, 3))
        batched = _batched_u3(angles)
        for k in range(angles.shape[0]):
            assert np.allclose(batched[k], u3(*angles[k]), atol=1e-12)

    def test_derivatives_match_finite_differences(self, rng):
        angles = rng.uniform(-np.pi, np.pi, size=(2, 3))
        derivatives = _batched_u3_derivatives(angles)
        eps = 1e-7
        for k in range(2):
            for axis in range(3):
                bumped = angles.copy()
                bumped[k, axis] += eps
                numeric = (_batched_u3(bumped)[k] - _batched_u3(angles)[k]) / eps
                assert np.allclose(derivatives[k, axis], numeric, atol=1e-6)


class TestTemplateStructure:
    def test_parameter_counts(self):
        fixed = fixed_gate_template(3, CZ)
        assert fixed.num_single_qubit_parameters == 24
        assert fixed.num_two_qubit_parameters == 0
        assert fixed.num_parameters == 24

        fsim_template = continuous_family_template(2, "fsim")
        assert fsim_template.num_parameters == 18 + 4
        xy_template = continuous_family_template(2, "xy")
        assert xy_template.num_parameters == 18 + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TemplateSpec(num_layers=-1)
        with pytest.raises(ValueError):
            TemplateSpec(num_layers=1, two_qubit_family="fixed", fixed_gate_matrix=None)
        with pytest.raises(ValueError):
            TemplateSpec(num_layers=1, two_qubit_family="exotic")

    def test_split_parameters_checks_length(self):
        template = fixed_gate_template(1, CZ)
        with pytest.raises(ValueError):
            template.split_parameters(np.zeros(5))

    def test_zero_layer_template_is_local(self, rng):
        template = TemplateSpec(num_layers=0)
        params = rng.uniform(-np.pi, np.pi, template.num_parameters)
        unitary = template.unitary(params)
        assert is_unitary(unitary)
        # A 0-layer template cannot express an entangling gate exactly.
        assert hilbert_schmidt_fidelity(unitary, CZ) < 0.999

    def test_template_unitary_is_unitary(self, rng):
        for template in (
            fixed_gate_template(2, CZ),
            continuous_family_template(2, "fsim"),
            continuous_family_template(1, "xy"),
        ):
            params = rng.uniform(-np.pi, np.pi, template.num_parameters)
            assert is_unitary(template.unitary(params))

    def test_identity_parameters_give_gate_product(self):
        template = fixed_gate_template(2, CZ)
        unitary = template.unitary(np.zeros(template.num_parameters))
        assert np.allclose(unitary, CZ @ CZ)

    def test_two_qubit_angles_reporting(self):
        template = continuous_family_template(2, "fsim")
        params = np.zeros(template.num_parameters)
        params[-4:] = [0.1, 0.2, 0.3, 0.4]
        angles = template.two_qubit_angles(template.split_parameters(params)[1])
        assert angles == [(0.1, 0.2), (0.3, 0.4)]
        fixed = fixed_gate_template(2, CZ)
        assert fixed.two_qubit_angles(np.zeros(0)) == [(), ()]


class TestGradients:
    @pytest.mark.parametrize(
        "template_factory",
        [
            lambda layers: fixed_gate_template(layers, CZ),
            lambda layers: continuous_family_template(layers, "fsim"),
            lambda layers: continuous_family_template(layers, "xy"),
            lambda layers: fixed_gate_template(layers, SYC),
        ],
    )
    def test_analytic_gradient_matches_finite_differences(self, template_factory, rng):
        # Every parameter index -- all U3 angles and, for the continuous
        # families, every fSim (theta, phi) / XY theta -- at L = 0..4.
        epsilon = 1e-6
        for num_layers in range(5):
            template = template_factory(num_layers)
            target = random_su4(rng)
            params = rng.uniform(-np.pi, np.pi, template.num_parameters)
            value, gradient = template.objective_with_gradient(params, target)
            assert value == pytest.approx(
                1.0 - hilbert_schmidt_fidelity(template.unitary(params), target), abs=1e-12
            )
            assert gradient.shape == (template.num_parameters,)
            for index in range(template.num_parameters):
                shifted_up = params.copy()
                shifted_up[index] += epsilon
                shifted_down = params.copy()
                shifted_down[index] -= epsilon
                up, _ = template.objective_with_gradient(shifted_up, target)
                down, _ = template.objective_with_gradient(shifted_down, target)
                numeric = (up - down) / (2 * epsilon)
                assert gradient[index] == pytest.approx(numeric, abs=1e-7), (
                    num_layers,
                    index,
                )

    def test_gradient_is_zero_at_exact_solution(self):
        # Template CZ with zero single-qubit angles realises CZ CZ = identity;
        # the gradient of the objective against the identity target is ~0 by symmetry.
        template = fixed_gate_template(2, CZ)
        value, gradient = template.objective_with_gradient(
            np.zeros(template.num_parameters), np.eye(4)
        )
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(gradient, 0.0, atol=1e-9)

    def test_vanishing_overlap_returns_zero_gradient(self):
        # |Tr(U^dagger target)| = 0: the modulus is not differentiable, so
        # the objective reports the flat zero gradient.
        template = continuous_family_template(1, "fsim")
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
        target = np.kron(pauli_x, np.eye(2))
        value, gradient = template.objective_with_gradient(
            np.zeros(template.num_parameters), target
        )
        assert value == 1.0
        assert gradient.shape == (template.num_parameters,)
        assert not gradient.any()


class TestObjectiveVersion:
    def test_version_orphans_compile_keys(self, monkeypatch):
        decomposer = NuOpDecomposer()
        fingerprint = _decomposer_fingerprint(decomposer)
        monkeypatch.setattr(templates, "OBJECTIVE_VERSION", templates.OBJECTIVE_VERSION + 1)
        assert _decomposer_fingerprint(decomposer) != fingerprint

    def test_synthesis_version_orphans_compile_keys(self, monkeypatch):
        from repro.core import synthesis

        decomposer = NuOpDecomposer()
        fingerprint = _decomposer_fingerprint(decomposer)
        monkeypatch.setattr(synthesis, "SYNTHESIS_VERSION", synthesis.SYNTHESIS_VERSION + 1)
        assert _decomposer_fingerprint(decomposer) != fingerprint
