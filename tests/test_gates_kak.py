"""Tests for the KAK / Weyl local-equivalence machinery."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates import standard
from repro.gates.kak import (
    MAGIC_BASIS,
    canonical_unitary,
    gamma_matrix,
    invariant_distance,
    is_locally_equivalent,
    kak_decomposition,
    local_invariants,
    min_cz_count,
    min_gate_count,
    min_iswap_count,
    min_sqrt_iswap_count,
    weyl_coordinates,
)
from repro.gates.parametric import canonical_gate, cphase, fsim, rzz, u3, xy
from repro.gates.unitary import is_unitary, random_su4, random_unitary

QUARTER = np.pi / 4
ANGLES = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)


def random_local(rng) -> np.ndarray:
    """Random tensor product of single-qubit unitaries."""
    return np.kron(random_unitary(2, rng), random_unitary(2, rng))


class TestMagicBasisAndInvariants:
    def test_magic_basis_is_unitary(self):
        assert is_unitary(MAGIC_BASIS)

    def test_gamma_matrix_is_unitary(self, rng):
        assert is_unitary(gamma_matrix(random_su4(rng)))

    def test_invariants_unchanged_by_local_rotations(self, rng):
        target = random_su4(rng)
        dressed = random_local(rng) @ target @ random_local(rng)
        assert invariant_distance(target, dressed) == pytest.approx(0.0, abs=1e-6)

    def test_invariants_distinguish_different_classes(self):
        assert invariant_distance(standard.CZ, standard.SWAP) > 0.1
        assert invariant_distance(standard.CZ, np.eye(4)) > 0.1

    def test_local_invariants_shape(self, rng):
        e1, e2, e3 = local_invariants(random_su4(rng))
        assert all(isinstance(v, complex) for v in (e1, e2, e3))


class TestLocalEquivalence:
    def test_known_equivalences(self):
        assert is_locally_equivalent(standard.CNOT, standard.CZ)
        assert is_locally_equivalent(standard.ISWAP, xy(np.pi))
        assert is_locally_equivalent(fsim(np.pi / 2, np.pi), standard.SWAP)
        assert not is_locally_equivalent(standard.CZ, standard.ISWAP)

    @given(theta=ANGLES)
    @settings(max_examples=15, deadline=None)
    def test_xy_half_angle_fsim_equivalence(self, theta):
        assert is_locally_equivalent(xy(theta), fsim(theta / 2, 0))

    def test_dressing_with_locals_preserves_equivalence(self, rng):
        target = random_su4(rng)
        dressed = random_local(rng) @ target @ random_local(rng)
        assert is_locally_equivalent(target, dressed)


class TestWeylCoordinates:
    @pytest.mark.parametrize(
        "matrix, expected",
        [
            (np.eye(4), (0.0, 0.0, 0.0)),
            (standard.CZ, (QUARTER, 0.0, 0.0)),
            (standard.CNOT, (QUARTER, 0.0, 0.0)),
            (standard.ISWAP, (QUARTER, QUARTER, 0.0)),
            (standard.SWAP, (QUARTER, QUARTER, QUARTER)),
            (standard.SQRT_ISWAP, (np.pi / 8, np.pi / 8, 0.0)),
        ],
    )
    def test_known_gate_coordinates(self, matrix, expected):
        coords = weyl_coordinates(matrix)
        assert np.allclose(coords, expected, atol=1e-4)

    def test_fsim_coordinates(self):
        theta, phi = 0.7, 1.1
        x, y, z = weyl_coordinates(fsim(theta, phi))
        assert x == pytest.approx(theta / 2, abs=1e-3)
        assert y == pytest.approx(theta / 2, abs=1e-3)
        assert abs(z) == pytest.approx(phi / 4, abs=1e-3)

    def test_coordinates_lie_in_chamber(self, rng):
        for _ in range(3):
            x, y, z = weyl_coordinates(random_su4(rng))
            assert QUARTER + 1e-6 >= x >= y >= abs(z) - 1e-6

    def test_coordinates_reject_non_unitary(self):
        with pytest.raises(ValueError):
            weyl_coordinates(np.ones((4, 4)))

    def test_canonical_gate_roundtrip(self):
        coords = (0.61, 0.32, 0.11)
        recovered = weyl_coordinates(canonical_gate(*coords))
        assert np.allclose(recovered, coords, atol=1e-3)

    def test_returns_a_float_array(self):
        coords = weyl_coordinates(standard.SWAP)
        assert isinstance(coords, np.ndarray)
        assert coords.shape == (3,) and coords.dtype == np.float64

    def test_global_phase_and_local_dressing_leave_the_point(self, rng):
        for _ in range(5):
            target = random_su4(rng)
            dressed = (
                np.exp(1j * rng.uniform(-np.pi, np.pi))
                * random_local(rng) @ target @ random_local(rng)
            )
            assert np.abs(weyl_coordinates(dressed) - weyl_coordinates(target)).max() < 1e-9


def _pinned_inputs():
    inputs = {
        "identity": np.eye(4),
        "cz": standard.CZ,
        "cnot": standard.CNOT,
        "iswap": standard.ISWAP,
        "swap": standard.SWAP,
        "sqrt_iswap": standard.SQRT_ISWAP,
        "fsim(0.7,1.1)": fsim(0.7, 1.1),
        "canonical(0.61,0.32,0.11)": canonical_gate(0.61, 0.32, 0.11),
        "canonical(pi/4,pi/4,0)": canonical_gate(QUARTER, QUARTER, 0.0),
        "canonical(pi/4,pi/4,pi/4)": canonical_gate(QUARTER, QUARTER, QUARTER),
    }
    rng = np.random.default_rng(1234)
    for index in range(3):
        inputs[f"random_su4(1234)[{index}]"] = random_su4(rng)
    return inputs


class TestPinnedCoordinates:
    """``weyl_coordinates`` is bit-identical to the values captured from its
    eigenphase reading (``tests/golden/weyl_coordinates.json``)."""

    def test_outputs_match_golden_bits(self):
        golden = json.loads(
            (Path(__file__).parent / "golden" / "weyl_coordinates.json").read_text()
        )["coordinates"]
        inputs = _pinned_inputs()
        assert set(inputs) == set(golden)
        for name, matrix in inputs.items():
            assert [float(v).hex() for v in weyl_coordinates(matrix)] == golden[name], name


def rebuild(kak) -> np.ndarray:
    return kak.phase * np.kron(*kak.left) @ canonical_unitary(kak.point) @ np.kron(*kak.right)


class TestKakDecomposition:
    """``U = phase (a1 (x) b1) A(x, y, z) (a2 (x) b2)`` with the chamber point
    of :func:`weyl_coordinates`."""

    FACES = {
        "identity": np.eye(4, dtype=complex),
        "CZ": standard.CZ,
        "iSWAP": standard.ISWAP,
        "SWAP": standard.SWAP,
        "sqrt_iSWAP": standard.SQRT_ISWAP,
        "SYC": fsim(np.pi / 2, np.pi / 6),
    }

    def test_canonical_unitary_matches_canonical_gate(self):
        for point in np.random.default_rng(40).uniform(-np.pi, np.pi, (20, 3)):
            assert np.abs(canonical_unitary(point) - canonical_gate(*point)).max() < 1e-14

    def test_haar_targets_rebuild(self):
        rng = np.random.default_rng(41)
        for _ in range(250):
            target = random_unitary(4, rng)
            kak = kak_decomposition(target)
            assert np.abs(rebuild(kak) - target).max() < 1e-12
            for factor in kak.left + kak.right:
                assert is_unitary(factor, atol=1e-12)
            assert np.abs(kak.point - weyl_coordinates(target)).max() < 1e-9

    def test_pinned_inputs_share_the_precise_chamber_point(self):
        for name, matrix in _pinned_inputs().items():
            kak = kak_decomposition(matrix)
            assert np.abs(kak.point - weyl_coordinates(matrix)).max() < 1e-9, name
            assert np.abs(rebuild(kak) - matrix).max() < 1e-12, name

    @pytest.mark.parametrize("name", list(FACES))
    def test_chamber_faces(self, name):
        rng = np.random.default_rng(42)
        gate = self.FACES[name]
        for matrix in [gate] + [random_local(rng) @ gate @ random_local(rng) for _ in range(10)]:
            kak = kak_decomposition(matrix)
            assert np.abs(kak.point - weyl_coordinates(matrix)).max() < 1e-9
            assert np.abs(rebuild(kak) - matrix).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            kak_decomposition(np.ones((4, 4)))


class TestPreciseWeylCoordinates:
    """The eigenphase reading is exact on the chamber's degenerate faces."""

    @pytest.mark.parametrize(
        "point",
        [
            (0.0, 0.0, 0.0),
            (QUARTER, 0.0, 0.0),
            (QUARTER, QUARTER, 0.0),
            (QUARTER, QUARTER, QUARTER),
            (QUARTER, np.pi / 12, np.pi / 12),  # fSim(pi/6, pi)
            (np.pi / 6, np.pi / 6, 0.0),  # XY(2pi/3)
            (0.5, 0.5, 0.2),
            (0.5, 0.3, 0.3),
            (0.5, 0.3, -0.3),
            (0.4, 0.0, 0.0),
            (QUARTER, 0.3, 0.1),
            (0.61, 0.32, 0.11),
        ],
    )
    def test_recovers_chamber_points(self, rng, point):
        target = random_local(rng) @ canonical_gate(*point) @ random_local(rng)
        assert np.allclose(weyl_coordinates(target), point, atol=1e-12)

    def test_random_targets_stay_in_the_same_class(self, rng):
        for _ in range(20):
            target = random_su4(rng)
            point = weyl_coordinates(target)
            assert invariant_distance(canonical_gate(*point), target) < 1e-12


class TestWeylRoundTrip:
    """Round-trips through ``canonical_gate``:
    ``weyl_coordinates(canonical_gate(*c)) == c`` over the whole chamber."""

    @pytest.mark.parametrize(
        "corner",
        [
            (0.0, 0.0, 0.0),  # identity
            (QUARTER, 0.0, 0.0),  # CZ / CNOT class
            (QUARTER, QUARTER, 0.0),  # iSWAP class
            (QUARTER, QUARTER, QUARTER),  # SWAP class
        ],
    )
    def test_chamber_corner_roundtrip(self, corner):
        recovered = weyl_coordinates(canonical_gate(*corner))
        assert np.allclose(recovered, corner, atol=1e-4)
        assert invariant_distance(
            canonical_gate(*recovered), canonical_gate(*corner)
        ) == pytest.approx(0.0, abs=1e-6)

    def test_randomized_canonical_reconstruction(self, rng):
        # Interior sampling; the faces are covered by
        # TestPreciseWeylCoordinates.
        for _ in range(6):
            x = rng.uniform(0.3, 0.7)
            y = rng.uniform(0.08, x - 0.05)
            z = rng.uniform(-y + 0.03, y - 0.03)
            target = canonical_gate(x, y, z)
            dressed = random_local(rng) @ target @ random_local(rng)
            recovered = weyl_coordinates(dressed)
            assert invariant_distance(
                canonical_gate(*recovered), target
            ) == pytest.approx(0.0, abs=1e-6)
            assert np.allclose(recovered, (x, y, z), atol=2e-3)

    def test_reconstruction_matches_global_phase_shift(self, rng):
        target = random_su4(rng)
        shifted = np.exp(1.3j) * target
        assert np.allclose(
            weyl_coordinates(target), weyl_coordinates(shifted), atol=1e-6
        )


class TestMinimalGateCounts:
    def test_cz_counts_for_known_gates(self):
        assert min_cz_count(np.eye(4)) == 0
        assert min_cz_count(np.kron(standard.H, standard.X)) == 0
        assert min_cz_count(standard.CZ) == 1
        assert min_cz_count(standard.CNOT) == 1
        assert min_cz_count(rzz(0.3)) == 2
        assert min_cz_count(standard.ISWAP) == 2
        assert min_cz_count(standard.SWAP) == 3

    def test_generic_su4_needs_three_cz(self, rng):
        assert min_cz_count(random_su4(rng)) == 3

    def test_cphase_needs_two_cz(self):
        assert min_cz_count(cphase(np.pi / 2)) == 2

    def test_iswap_counts(self):
        assert min_iswap_count(np.eye(4)) == 0
        assert min_iswap_count(standard.ISWAP) == 1
        assert min_iswap_count(standard.CZ) == 2
        assert min_iswap_count(standard.SWAP) == 3

    def test_sqrt_iswap_counts(self):
        assert min_sqrt_iswap_count(standard.SQRT_ISWAP) == 1
        assert min_sqrt_iswap_count(standard.ISWAP) == 2
        assert min_sqrt_iswap_count(standard.CZ) == 2
        assert min_sqrt_iswap_count(standard.SWAP) == 3

    @pytest.mark.parametrize(
        "point, count",
        [
            ((QUARTER, 0.1, 0.1), 2),  # x >= y + |z|, off the z = 0 plane
            ((0.6, 0.3, 0.25), 2),
            ((0.6, 0.3, -0.25), 2),
            ((0.5, 0.3, 0.2), 2),  # on the boundary x = y + |z|
            ((0.5, 0.3, 0.25), 3),
            ((0.5, 0.5, 0.2), 3),
        ],
    )
    def test_sqrt_iswap_two_gate_region(self, rng, point, count):
        """Two sqrt(iSWAP) gates reach exactly ``x >= y + |z|`` (Huang et
        al., arXiv:2105.06074), a superset of the ``z = 0`` plane."""
        target = random_local(rng) @ canonical_gate(*point) @ random_local(rng)
        assert min_sqrt_iswap_count(target) == count

    def test_sqrt_iswap_count_is_a_local_invariant(self, rng):
        for point in [(QUARTER, 0.1, 0.1), (0.6, 0.3, -0.25), (0.5, 0.3, 0.25), (0.5, 0.5, 0.2)]:
            gate = canonical_gate(*point)
            count = min_sqrt_iswap_count(gate)
            for _ in range(3):
                dressed = random_local(rng) @ gate @ random_local(rng)
                assert min_sqrt_iswap_count(dressed) == count, point

    def test_two_sqrt_iswap_layers_reach_the_region_off_the_plane(self):
        """Numerical witness: two sqrt(iSWAP) layers with optimised
        single-qubit gates implement ``canonical_gate(0.6, 0.3, 0.25)``."""
        from scipy.optimize import minimize

        target = canonical_gate(0.6, 0.3, 0.25)
        assert min_sqrt_iswap_count(target) == 2

        def infidelity(params):
            locals_ = [np.kron(u3(*p[:3]), u3(*p[3:])) for p in params.reshape(3, 6)]
            built = locals_[2] @ standard.SQRT_ISWAP @ locals_[1] @ standard.SQRT_ISWAP @ locals_[0]
            return 1.0 - abs(np.trace(target.conj().T @ built)) / 4.0

        rng = np.random.default_rng(0)
        best = min(
            minimize(infidelity, rng.uniform(-np.pi, np.pi, 18), method="BFGS").fun
            for _ in range(8)
        )
        assert best < 1e-7

    def test_min_gate_count_dispatch(self, rng):
        unitary = random_su4(rng)
        assert min_gate_count(unitary, "cz") == min_cz_count(unitary)
        assert min_gate_count(standard.SWAP, "iswap") == 3
        with pytest.raises(ValueError):
            min_gate_count(unitary, "syc")

    def test_counts_agree_with_nuop(self, rng, shared_decomposer):
        """The analytic CZ count matches what NuOp actually achieves."""
        from repro.circuits.gate import named_gate

        cz_gate = named_gate("cz")
        for target in (standard.SWAP, rzz(0.4), random_su4(rng)):
            analytic = min_cz_count(target)
            numerical = shared_decomposer.decompose_exact(target, gate=cz_gate).num_layers
            assert numerical == analytic
